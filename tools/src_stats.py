#!/usr/bin/env python3
"""Print the size of the package source: lines per module and in total, and
the optional-parameter count.

    python3 tools/src_stats.py [SRC]

SRC defaults to ``src/contractkit`` of the tree this script lives in.  A
module's lines are the lines of its file.  The optional-parameter count is the
number of parameters with a default value, positional or keyword-only, summed
over every ``def`` in every ``*.py`` file of SRC, methods and nested functions
included; a ``lambda`` is not a ``def`` and is not counted.  Uses the standard
library only.
"""

import argparse
import ast
import os


def module_stats(path):
    """(lines, optional parameters) of one source file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    optional = 0
    for node in ast.walk(ast.parse(text, filename=path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            optional += len(args.defaults)
            optional += sum(d is not None for d in args.kw_defaults)
    return len(text.splitlines()), optional


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?",
                        default=os.path.join(here, os.pardir, "src", "contractkit"))
    args = parser.parse_args(argv)
    names = sorted(n for n in os.listdir(args.src) if n.endswith(".py"))
    total_lines = total_optional = 0
    print(f"{'module':<16}{'lines':>7}{'optional':>10}")
    for name in names:
        lines, optional = module_stats(os.path.join(args.src, name))
        total_lines += lines
        total_optional += optional
        print(f"{name:<16}{lines:>7}{optional:>10}")
    print(f"{'total':<16}{total_lines:>7}{total_optional:>10}")


if __name__ == "__main__":
    main()
