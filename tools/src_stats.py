#!/usr/bin/env python3
"""Print the size of the package source: lines per module and in total, and
the optional-parameter count.

    python3 tools/src_stats.py [SRC]

SRC defaults to ``src/contractkit`` of the tree this script lives in.  A
module's lines are the lines of its file.  The optional-parameter count is the
number of parameters with a default value, positional or keyword-only, summed
over every ``def`` in every ``*.py`` file of SRC, methods and nested functions
included; a ``lambda`` is not a ``def`` and is not counted.  After the table,
one line per ``def`` that has optional parameters lists them as
``module:function(name=default, ...)``, so a diff of two trees' output names
the defaults that changed.  Uses the standard library only.
"""

import argparse
import ast
import os


def _optional(args):
    """(name, default source) of each parameter of ``args`` with a default."""
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [(a.arg, ast.unparse(d)) for a, d in pairs]


def module_stats(path):
    """(lines, [(function, [(name, default)])]) of one source file, one entry
    per ``def`` with optional parameters, in source order."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    defs = []
    for node in ast.walk(ast.parse(text, filename=path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = _optional(node.args)
            if params:
                defs.append((node.lineno, node.name, params))
    return len(text.splitlines()), [(name, params) for _, name, params in sorted(defs)]


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?",
                        default=os.path.join(here, os.pardir, "src", "contractkit"))
    args = parser.parse_args(argv)
    names = sorted(n for n in os.listdir(args.src) if n.endswith(".py"))
    total_lines = total_optional = 0
    listing = []
    print(f"{'module':<16}{'lines':>7}{'optional':>10}")
    for name in names:
        lines, defs = module_stats(os.path.join(args.src, name))
        optional = sum(len(params) for _, params in defs)
        total_lines += lines
        total_optional += optional
        listing += [(name[:-3], fn, params) for fn, params in defs]
        print(f"{name:<16}{lines:>7}{optional:>10}")
    print(f"{'total':<16}{total_lines:>7}{total_optional:>10}")
    print()
    for module, fn, params in listing:
        print(f"{module}:{fn}(" + ", ".join(f"{a}={d}" for a, d in params) + ")")


if __name__ == "__main__":
    main()
