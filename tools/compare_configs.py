#!/usr/bin/env python3
"""Run every config of two source trees at the given seeds and report what differs.

    python3 tools/compare_configs.py BASE NEW [--seeds 0 918273] [--work DIR]

BASE and NEW are checkouts of this repository (for example a ``git archive``
of the parent commit and the working tree).  Each tree runs its own
``configs/*.cfg`` in one subprocess of its own, with ``src/`` of that tree
first on ``PYTHONPATH``: the ``seed`` line of each config is replaced by each
requested seed, and ``contractkit run`` writes into a fresh directory under
``--work``.  The script then compares, per seed and config, the exit code,
the names of the files written and the bytes of each file, prints every
difference, and exits 1 if there is any, 0 otherwise.  Under each file whose
bytes differ it prints the largest numeric change, absolute and relative: per
column of a CSV, per key of ``report.json`` (a list of numbers is one key).
Each seed and config is headed by its wall seconds on both sides: one
unpaired run each, in a process that has run the configs before it, so a
rough guide, not a timing.
Without ``--work`` the runs go to a temporary directory, removed at the end.
Uses the standard library only.
"""

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time


def seeded_config(src_path, dst_path, seed):
    with open(src_path) as fh:
        text = fh.read()
    text, count = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}", text)
    if count != 1:
        raise ValueError(f"{src_path}: expected one seed line, found {count}")
    with open(dst_path, "w") as fh:
        fh.write(text)


def run_tree(tree, out, seeds):
    """Child side: run every config of ``tree`` at every seed in this process
    and write the exit codes and wall seconds to ``out/runs.json``."""
    from contractkit import cli

    src = os.path.realpath(os.path.join(tree, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the package under {src}")
    cfg_dir = os.path.join(tree, "configs")
    names = sorted(f[:-4] for f in os.listdir(cfg_dir) if f.endswith(".cfg"))
    codes, wall = {}, {}
    for seed in seeds:
        for name in names:
            cfg = os.path.join(out, "cfg", str(seed), f"{name}.cfg")
            os.makedirs(os.path.dirname(cfg), exist_ok=True)
            seeded_config(os.path.join(cfg_dir, f"{name}.cfg"), cfg, seed)
            os.environ["CONTRACTKIT_OUTPUT_DIR"] = os.path.join(out, "out", str(seed), name)
            sink = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = cli.main(["run", cfg])
            except Exception as exc:  # a crash is an outcome to compare too
                rc = f"{type(exc).__name__}: {exc}"
            wall[f"{seed}/{name}"] = time.perf_counter() - start
            codes[f"{seed}/{name}"] = rc
    with open(os.path.join(out, "runs.json"), "w") as fh:
        json.dump({"codes": codes, "wall_s": wall}, fh, indent=1, sort_keys=True)


def spawn(tree, out, seeds):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(tree), "src")
    cmd = [sys.executable, os.path.abspath(__file__), "--run-tree",
           os.path.abspath(tree), out, *map(str, seeds)]
    subprocess.run(cmd, env=env, cwd=out, check=True)
    with open(os.path.join(out, "runs.json")) as fh:
        return json.load(fh)


def files_under(root):
    found = {}
    for d, _, files in os.walk(root):
        for f in files:
            path = os.path.join(d, f)
            found[os.path.relpath(path, root)] = path
    return found


def _table(path):
    """A CSV as {column: [values]}, or ``report.json`` flattened to {key: [values]}."""
    if path.endswith(".csv"):
        with open(path) as fh:
            header, *rows = [line.split(",") for line in fh.read().splitlines()]
        return {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}
    found = {}

    def walk(obj, key):
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(v, f"{key}.{k}" if key else k)
        elif isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
            for i, v in enumerate(obj):
                walk(v, f"{key}[{i}]")
        else:
            found[key] = obj if isinstance(obj, list) else [obj]
    with open(path) as fh:
        walk(json.load(fh), "")
    return found


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def numeric_changes(base_path, new_path):
    """One line per column or key whose values differ: the largest absolute
    and relative change of its numbers, or what else changed."""
    try:
        a, b = _table(base_path), _table(new_path)
    except (ValueError, IndexError):
        return ["    not a table of numbers"]
    lines = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        if va is None or vb is None:
            lines.append(f"    {key}: only in {'NEW' if va is None else 'BASE'}")
        elif len(va) != len(vb) or not all(map(_is_number, va + vb)):
            lines.append(f"    {key}: {_short(va)} -> {_short(vb)}")
        else:
            diffs = [abs(x - y) for x, y in zip(va, vb)]
            rel = max(d / max(abs(x), abs(y)) if d else 0.0
                      for d, x, y in zip(diffs, va, vb))
            lines.append(f"    {key}: max abs {max(diffs):.3g}, rel {rel:.3g}")
    return lines


def _short(values):
    text = json.dumps(values[0] if len(values) == 1 else values)
    return text if len(text) <= 40 else text[:37] + "..."


def compare(base_out, new_out, base_codes, new_codes):
    """The differences per seed and config ("seed/name"): a line per exit
    code or file that differs, each file's numeric changes indented under
    it; and the number of files BASE wrote."""
    diffs = {key: [] for key in sorted(set(base_codes) | set(new_codes))}
    for key in diffs:
        a, b = base_codes.get(key, "not run"), new_codes.get(key, "not run")
        if a != b:
            diffs[key].append(f"{key}: exit code {a} -> {b}")
    fa = files_under(os.path.join(base_out, "out"))
    fb = files_under(os.path.join(new_out, "out"))
    for rel in sorted(set(fa) | set(fb)):
        lines = diffs.setdefault("/".join(rel.split(os.sep)[:2]), [])
        if rel not in fb:
            lines.append(f"{rel}: written by BASE only")
        elif rel not in fa:
            lines.append(f"{rel}: written by NEW only")
        else:
            with open(fa[rel], "rb") as ha, open(fb[rel], "rb") as hb:
                if ha.read() != hb.read():
                    lines.append(f"{rel}: bytes differ")
                    lines.extend(numeric_changes(fa[rel], fb[rel]))
    return diffs, len(fa)


def _seconds(wall, key):
    return f"{wall[key]:.3f} s" if key in wall else "not run"


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--run-tree"]:
        tree, out, *seeds = argv[1:]
        run_tree(tree, out, [int(s) for s in seeds])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="source tree of the reference side")
    ap.add_argument("new", help="source tree to compare with it")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 918273])
    ap.add_argument("--work", help="directory for the runs (default: a new temporary one)")
    args = ap.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="compare_configs-")
    try:
        outs = []
        for label in ("base", "new"):
            out = os.path.join(os.path.abspath(work), label)
            os.makedirs(out, exist_ok=False)
            outs.append(out)
        runs = [spawn(tree, out, args.seeds) for tree, out in zip((args.base, args.new), outs)]
        diffs, nfiles = compare(*outs, *(r["codes"] for r in runs))
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    for key, lines in diffs.items():
        print(f"{key}: wall {_seconds(runs[0]['wall_s'], key)} BASE, "
              f"{_seconds(runs[1]['wall_s'], key)} NEW (one unpaired run each)")
        for line in lines:
            print(line)
    ndiff = sum(not line.startswith("    ") for lines in diffs.values() for line in lines)
    print(f"{len(runs[0]['codes'])} runs, {nfiles} files from BASE, {ndiff} difference(s); "
          f"outputs {'in ' + work if args.work else 'removed'}")
    return 1 if ndiff else 0


if __name__ == "__main__":
    sys.exit(main())
