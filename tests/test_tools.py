"""Smoke tests of the comparison scripts under tools/."""

import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_compare_rates_of_a_tree_with_itself_is_bit_identical():
    out = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "compare_rates.py"), REPO, REPO,
         "--seeds", "0"],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stdout + out.stderr
    total, same, failing = map(int, re.search(
        r"^(\d+) items at 1 seed\(s\) .*: (\d+) bit-identical, (\d+) failing; "
        r"worst sampled fall none, largest rise none$",
        out.stdout, re.MULTILINE).groups())
    assert total > 0 and same == total and failing == 0


def test_compare_configs_of_a_tree_with_itself_has_no_differences(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "compare_configs.py"), REPO, REPO,
         "--seeds", "0", "--work", str(tmp_path / "work")],
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    runs, files, diffs = map(int, re.search(
        r"^(\d+) runs, (\d+) files from BASE, (\d+) difference\(s\);",
        out.stdout, re.MULTILINE).groups())
    configs = [f for f in os.listdir(os.path.join(REPO, "configs")) if f.endswith(".cfg")]
    assert runs == len(configs) and files > 0 and diffs == 0


def test_src_stats_lists_every_optional_parameter():
    out = subprocess.run([sys.executable, os.path.join(REPO, "tools", "src_stats.py")],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stdout + out.stderr
    table, listing = out.stdout.split("\n\n", 1)
    total = int(re.search(r"^total\s+\d+\s+(\d+)$", table, re.MULTILINE).group(1))
    lines = listing.splitlines()
    assert lines and all(re.fullmatch(r"\w+:\w+\(.+\)", line) for line in lines)
    # one "name=default" per optional parameter
    params = sum(len(re.findall(r"(?:^|, )\w+=", line[line.index("(") + 1:-1]))
                 for line in lines)
    assert params == total
