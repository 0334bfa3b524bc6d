#!/usr/bin/env python3
"""Print the size of the package source: lines per module and in total, the
optional-parameter count and the count of dataclass fields with defaults.

    python3 tools/src_stats.py [SRC]

SRC defaults to ``src/contractkit`` of the tree this script lives in.  A
module's lines are the lines of its file.  The optional-parameter count is the
number of parameters with a default value, positional or keyword-only, summed
over every ``def`` in every ``*.py`` file of SRC, methods and nested functions
included; a ``lambda`` is not a ``def`` and is not counted.  The field count
is the number of fields with a default value (``= value`` or
``= field(...)``) summed over every class decorated ``@dataclass``, since each
field of a config object is a knob too; a ``field(init=False)`` is no
argument of the constructor and a ``ClassVar`` no field, so neither counts.
After the table, one line per ``def`` that has optional parameters lists
them as ``module:function(name=default, ...)``, and after a blank line, one
line per dataclass with defaulted fields lists them as
``module:Class(name=default, ...)``, so a diff of two trees' output names
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


def _is_dataclass(node):
    """True for a class decorated ``@dataclass``, ``@dataclasses.dataclass``
    or either called with arguments."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if ast.unparse(target) in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


def _is_knob(stmt):
    """True for a class-body statement that declares a dataclass field with
    a default that the constructor takes."""
    if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.value is not None):
        return False
    if "ClassVar" in ast.unparse(stmt.annotation):
        return False
    value = stmt.value
    return not (isinstance(value, ast.Call) and ast.unparse(value.func).endswith("field")
                and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in value.keywords))


def _defaulted_fields(node):
    """(name, default source) of each field of a dataclass with a default."""
    return [(stmt.target.id, ast.unparse(stmt.value)) for stmt in node.body
            if _is_knob(stmt)]


def module_stats(path):
    """(lines, [(function, [(name, default)])], [(class, [(name, default)])])
    of one source file: one entry per ``def`` with optional parameters and
    one per dataclass with defaulted fields, each in source order."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    defs, classes = [], []
    for node in ast.walk(ast.parse(text, filename=path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = _optional(node.args)
            if params:
                defs.append((node.lineno, node.name, params))
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = _defaulted_fields(node)
            if fields:
                classes.append((node.lineno, node.name, fields))
    return (len(text.splitlines()), [(name, params) for _, name, params in sorted(defs)],
            [(name, fields) for _, name, fields in sorted(classes)])


def _signature(module, name, pairs):
    return f"{module}:{name}(" + ", ".join(f"{a}={d}" for a, d in pairs) + ")"


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?",
                        default=os.path.join(here, os.pardir, "src", "contractkit"))
    args = parser.parse_args(argv)
    names = sorted(n for n in os.listdir(args.src) if n.endswith(".py"))
    totals = [0, 0, 0]
    listing, field_listing = [], []
    print(f"{'module':<16}{'lines':>7}{'optional':>10}{'fields':>8}")
    for name in names:
        lines, defs, classes = module_stats(os.path.join(args.src, name))
        row = (lines, sum(len(params) for _, params in defs),
               sum(len(fields) for _, fields in classes))
        totals = [a + b for a, b in zip(totals, row)]
        listing += [_signature(name[:-3], fn, params) for fn, params in defs]
        field_listing += [_signature(name[:-3], cls, fields) for cls, fields in classes]
        print(f"{name:<16}{row[0]:>7}{row[1]:>10}{row[2]:>8}")
    print(f"{'total':<16}{totals[0]:>7}{totals[1]:>10}{totals[2]:>8}")
    print()
    print("\n".join(listing))
    print()
    print("\n".join(field_listing))


if __name__ == "__main__":
    main()
