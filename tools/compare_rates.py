#!/usr/bin/env python3
"""Solve the benchmark's rate items with two source trees at given seeds and compare the values.

    python3 tools/compare_rates.py BASE NEW [--seeds 0 918273]

BASE and NEW are checkouts of this repository (for example a ``git archive``
of the parent commit and the working tree).  Each tree builds the
``sampled_items`` and ``eigen_items`` of its own ``perfbench/workloads.py``
from ``numpy.random.default_rng(seed)``, as ``perfbench/run.py`` does, and
solves every item once per seed, in one subprocess of its own with ``src/``
of that tree first on ``PYTHONPATH``.  The script prints, per seed and item,
both values, the change relative to max(1, |base|) and whether the bits
match, and for a sampled item the calls of the ray search's ratio
(``measures._sip_ratio``, wrapped in the child) and the rows they scored in
each tree, base -> new, a count free of timing noise.  Its summary line
names the worst fall and the largest rise of a sampled value, each with its
seed and item.  It exits 1 if a
sampled value (a lower bound on a supremum) falls by more than
1e-12 max(1, |base|), if an eigen or closed-form value changes at all, or
if an item's method, error or presence differs; 0 otherwise.  Uses
the standard library and numpy only, and writes nothing into either tree.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

SAMPLED_DROP_RTOL = 1e-12


def run_tree(tree, out, seeds):
    """Child side: solve every rate item of ``tree`` at every seed in this
    process and write {seed/id: [method, value as float.hex, error]} and
    {seed/id: [ratio calls, rows scored]} to ``out``."""
    import numpy as np

    sys.path.insert(0, os.path.join(tree, "perfbench"))
    import workloads
    from contractkit import measures

    src = os.path.realpath(os.path.join(tree, "src"))
    if not os.path.realpath(measures.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {measures.__file__}, not the package under {src}")
    tally = [0, 0]
    make = measures._sip_ratio

    def counted(*args):
        ratio = make(*args)

        def scored(V):
            tally[0] += 1
            tally[1] += len(V)
            return ratio(V)
        return scored

    measures._sip_ratio = counted
    results, counts = {}, {}
    for seed in seeds:
        for build in (workloads.sampled_items, workloads.eigen_items):
            for item in build(np.random.default_rng(seed)):
                key, tally[:] = f"{seed}/{item.id}", [0, 0]
                try:
                    est = item.run()
                    results[key] = [est.method, float(est.value).hex(), None]
                except Exception as exc:  # a failed solve is an outcome to compare too
                    results[key] = [item.method, None, f"{type(exc).__name__}: {exc}"]
                counts[key] = list(tally)
    with open(out, "w") as fh:
        json.dump({"values": results, "counts": counts}, fh, indent=1)


def spawn(tree, out, seeds):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(tree), "src")
    cmd = [sys.executable, os.path.abspath(__file__), "--run-tree",
           os.path.abspath(tree), out, *map(str, seeds)]
    subprocess.run(cmd, env=env, cwd=os.path.dirname(out), check=True)
    with open(out) as fh:
        data = json.load(fh)
    return data["values"], data["counts"]


def count_note(base_count, new_count):
    """'calls B -> N, rows B -> N' of the ray search's ratio, from the
    [calls, rows] of either tree."""
    (bc, br), (nc, nr) = base_count, new_count
    return f"calls {bc:,} -> {nc:,}, rows {br:,} -> {nr:,}"


def compare(base, new, base_counts, new_counts):
    """One printed line per item, the lines of the items that fail, and
    {key: change relative to max(1, |base|)} of the sampled items."""
    lines, bad, moves = [], [], {}
    for key in sorted(set(base) | set(new), key=lambda k: (int(k.split("/")[0]), k)):
        if key not in base or key not in new:
            line = f"{key}: solved by {'NEW' if key in new else 'BASE'} only"
            lines.append(line)
            bad.append(line)
            continue
        (bm, bv, be), (nm, nv, ne) = base[key], new[key]
        if bm != nm or be != ne or bv is None:
            line = f"{key}: {bm} {bv} {be or ''} -> {nm} {nv} {ne or ''}"
            lines.append(line)
            if (bm, bv, be) != (nm, nv, ne):
                bad.append(line)
            continue
        b, n = float.fromhex(bv), float.fromhex(nv)
        scale = max(1.0, abs(b)) if math.isfinite(b) else 1.0
        rel = (n - b) / scale if math.isfinite(b) and math.isfinite(n) else float("nan")
        same = bv == nv
        line = (f"{key:<38} {bm:<11} {b!r:>24} {n!r:>24}  rel {rel:+.2e}  "
                f"bits {'same' if same else 'differ'}")
        if bm == "sampled":
            line += "  " + count_note(base_counts[key], new_counts[key])
            moves[key] = rel
        lines.append(line)
        if bm == "sampled":
            if not n >= b - SAMPLED_DROP_RTOL * scale:
                bad.append(line + f"  (falls by more than {SAMPLED_DROP_RTOL:g} relative)")
        elif not same:
            bad.append(line + f"  ({bm} value changed)")
    return lines, bad, moves


def extreme_note(moves, label, pick, sign):
    """'<label> <rel> (<seed>/<item>)' of the sampled item ``pick`` (min or
    max) chooses among the changes of ``sign``, or '<label> none'."""
    moved = {k: r for k, r in moves.items() if r * sign > 0}
    if not moved:
        return f"{label} none"
    key = pick(moved, key=moved.get)
    return f"{label} {moved[key]:+.2e} ({key})"


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
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_rates-") as work:
        (base, base_counts), (new, new_counts) = (
            spawn(tree, os.path.join(work, f"{label}.json"), args.seeds)
            for tree, label in ((args.base, "base"), (args.new, "new")))
    lines, bad, moves = compare(base, new, base_counts, new_counts)
    for line in lines:
        print(line)
    sampled = [k for k in base if k in new and base[k][0] == "sampled"]
    totals = [[sum(tree_counts[k][i] for k in sampled) for i in (0, 1)]
              for tree_counts in (base_counts, new_counts)]
    print(f"ray-search ratio over the {len(sampled)} sampled items: {count_note(*totals)}")
    counts = {m: sum(1 for v in base.values() if v[0] == m)
              for m in ("sampled", "eigen", "closed_form")}
    same = sum(1 for k in base if k in new and base[k] == new[k])
    print(f"{len(base)} items at {len(args.seeds)} seed(s) ({counts['sampled']} sampled, "
          f"{counts['eigen']} eigen, {counts['closed_form']} closed form): "
          f"{same} bit-identical, {len(bad)} failing; "
          f"{extreme_note(moves, 'worst sampled fall', min, -1)}, "
          f"{extreme_note(moves, 'largest rise', max, 1)}")
    for line in bad:
        print("FAIL", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
