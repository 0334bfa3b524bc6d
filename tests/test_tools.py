"""Smoke tests of the comparison scripts under tools/."""

import importlib.util
import os
import re
import shutil
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


def _tiny_tree(root, matrix):
    """A source tree of this repository's package with one fast config."""
    os.makedirs(os.path.join(root, "configs"))
    os.symlink(os.path.join(REPO, "src"), os.path.join(root, "src"))
    shutil.copy(os.path.join(REPO, "configs", "measure.cfg"), os.path.join(root, "configs"))
    path = os.path.join(root, "configs", "measure.cfg")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(re.sub(r"(?m)^matrix\s*=.*$", f"matrix = {matrix}", text))
    return root


def test_compare_configs_removes_its_temporary_directory(tmp_path):
    base = _tiny_tree(str(tmp_path / "base"), "-2 1; 0 -3")
    new = _tiny_tree(str(tmp_path / "new"), "-2 1; 0 -3.5")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    out = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "compare_configs.py"), base, new,
         "--seeds", "0"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "TMPDIR": str(tmp)})
    assert out.returncode == 1, out.stdout + out.stderr
    assert re.search(r"^1 runs, \d+ files from BASE, [1-9]\d* difference\(s\); "
                     r"outputs removed$", out.stdout, re.MULTILINE)
    assert os.listdir(tmp) == []
    # every file whose bytes differ is followed by its largest numeric changes
    lines = out.stdout.splitlines()
    for i, line in enumerate(lines):
        if line.endswith("bytes differ"):
            assert lines[i + 1].startswith("    ")
    assert "    config.matrix[1]: max abs 0.5, rel 0.143" in lines


def _compare_configs_module():
    spec = importlib.util.spec_from_file_location(
        "compare_configs", os.path.join(REPO, "tools", "compare_configs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_numeric_changes_per_column_and_per_key(tmp_path):
    changes = _compare_configs_module().numeric_changes
    (tmp_path / "a.csv").write_text("time,x,y\n0,1,2\n1,2,-4\n")
    (tmp_path / "b.csv").write_text("time,x,y\n0,1,2\n1,2.5,-4\n")
    assert changes(str(tmp_path / "a.csv"), str(tmp_path / "b.csv")) == [
        "    x: max abs 0.5, rel 0.2"]
    (tmp_path / "a.json").write_text(
        '{"r": {"v": [1.0, 4.0], "m": "DOP853", "gone": 1, "c": [{"p": 3.0}, {"p": 1.0}]}}')
    (tmp_path / "b.json").write_text(
        '{"r": {"v": [1.0, 5.0], "m": "LSODA", "new": 2, "c": [{"p": 3.0}, {"p": 0.0}]}}')
    assert changes(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == [
        "    r.c[1].p: max abs 1, rel 1",
        "    r.gone: only in BASE",
        '    r.m: "DOP853" -> "LSODA"',
        "    r.new: only in NEW",
        "    r.v: max abs 1, rel 0.2",
    ]


def _count_pairs(lines):
    """The "name=default" pairs of ``module:name(...)`` lines, the commas
    inside a default's own brackets left out."""
    assert lines and all(re.fullmatch(r"\w+:\w+\(.+\)", line) for line in lines)
    count = 0
    for line in lines:
        inner, depth, top = line[line.index("(") + 1:-1], 0, [""]
        for ch in inner:
            depth += (ch in "([{") - (ch in ")]}")
            if ch == "," and depth == 0:
                top.append("")
            else:
                top[-1] += ch
        count += sum(bool(re.match(r"\s*\w+=", pair)) for pair in top)
    return count


def test_src_stats_lists_every_optional_parameter():
    out = subprocess.run([sys.executable, os.path.join(REPO, "tools", "src_stats.py")],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stdout + out.stderr
    table, listing, fields = out.stdout.rstrip("\n").split("\n\n")
    optional, defaulted = map(int, re.search(r"^total\s+\d+\s+(\d+)\s+(\d+)$", table,
                                             re.MULTILINE).groups())
    # one "name=default" per optional parameter, and per defaulted field
    assert _count_pairs(listing.splitlines()) == optional
    assert _count_pairs(fields.splitlines()) == defaulted
    assert "flows:VectorField(jac=None, dim=None, name='', grid=None)" in fields.splitlines()


def test_src_stats_counts_dataclass_fields_with_defaults(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "src_stats", os.path.join(REPO, "tools", "src_stats.py"))
    src_stats = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_stats)
    path = tmp_path / "mod.py"
    path.write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 1\n"
        "    z: dict = field(default_factory=dict)\n"
        "    w: float = field(init=False)\n"
        "    k: ClassVar[int] = 3\n\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class B:\n"
        "    s: str = ''\n\n"
        "class C:\n"
        "    n: int = 5\n\n"
        "def f(a, b=2, *, c=None):\n"
        "    pass\n")
    lines, defs, classes = src_stats.module_stats(str(path))
    assert lines == 21
    assert defs == [("f", [("b", "2"), ("c", "None")])]
    assert classes == [("A", [("y", "1"), ("z", "field(default_factory=dict)")]),
                       ("B", [("s", "''")])]
