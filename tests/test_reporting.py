"""The certificate rule: granted exactly when a report holds at least one
check and every check in it passed."""

import json
import math

import numpy as np
import pytest

from contractkit.reporting import Check, checks_in, verdict, write_csv, write_report


def ok(name="ok"):
    return Check.leq(name, 0.0, 1.0)


def bad(name="bad"):
    return Check.leq(name, 2.0, 1.0)


class TestVerdict:
    @pytest.mark.parametrize("report", [{}, {"rate": -1.0, "note": "no checks"},
                                        {"checks": [], "sim": {}}])
    def test_no_check_never_certifies(self, report):
        assert verdict(report)["certified"] is False
        assert report["status"] == "withheld"

    def test_all_passed_certifies(self):
        rep = verdict({"checks": [ok("a"), ok("b")], "sim": {"check": ok("c")}})
        assert rep["certified"] is True and rep["status"] == "certified"

    def test_failed_check_nested_under_sim_withholds(self):
        rep = verdict({"checks": [ok("a")], "sim": {"fits": [], "check": bad()}})
        assert rep["certified"] is False and rep["status"] == "withheld"

    def test_failed_check_deep_in_a_list_withholds(self):
        rep = verdict({"leader": {"checks": [ok(), (ok(), bad())]}})
        assert rep["certified"] is False

    def test_nan_value_fails(self):
        check = Check.leq("fit", float("nan"), 1.0)
        assert not check.passed
        assert verdict({"check": check})["certified"] is False

    def test_same_check_reached_twice_counts_once(self):
        shared = ok("shared")
        rep = {"invariance": {"check": shared}, "checks": [shared, ok("rate")]}
        assert [c.name for c in checks_in(rep)] == ["shared", "rate"]
        # an equal but distinct object is a second check
        assert len(checks_in({"a": ok(), "b": ok()})) == 2

    def test_not_certified_label_only_when_withheld(self):
        assert verdict({"checks": [ok()]}, not_certified="rate_only")["status"] == "certified"
        assert verdict({"checks": [bad()]}, not_certified="rate_only")["status"] == "rate_only"
        assert verdict({}, not_certified="rate_only")["status"] == "rate_only"

    def test_checks_in_order_of_appearance(self):
        rep = {"checks": [ok("a"), bad("b")], "sim": {"check": ok("c")}, "d": ok("d")}
        assert [c.name for c in checks_in(rep)] == ["a", "b", "c", "d"]


class TestCheckTruth:
    @pytest.mark.parametrize("check", [ok(), bad()])
    def test_truth_of_a_check_is_an_error(self, check):
        # a failed check must never read as true through `assert check` or `if check`
        with pytest.raises(TypeError, match="passed"):
            bool(check)
        with pytest.raises(TypeError):
            assert check
        assert ok().passed and not bad().passed


def _per_cell_csv(path, header, columns):
    """The per-cell writer write_csv replaced, kept as its byte reference."""
    cols = [np.asarray(c) for c in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(cols[0])):
            fh.write(",".join(f"{c[i]:.17g}" for c in cols) + "\n")


class TestWriteCSV:
    TINY = np.nextafter(0.0, 1.0)          # the smallest subnormal

    @pytest.mark.parametrize("columns", [
        [np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, TINY, -2.5e-310, 1e308]),
         np.arange(8), np.array([True, False] * 4),
         np.array([0.1, 1 / 3, 2.0**60, -1e-17, 123456789.123456789, 1.0, -1.0, 5e-324])],
        [np.array([2**53 + 1, -7, 0]), np.array([1.5, -0.0, math.nan])],
        [np.array([], dtype=float), np.array([], dtype=int)],
    ], ids=["specials", "ints", "no_rows"])
    def test_bytes_match_the_per_cell_writer(self, tmp_path, columns):
        header = [f"c{j}" for j in range(len(columns))]
        write_csv(tmp_path / "new.csv", header, columns)
        _per_cell_csv(tmp_path / "old.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_unequal_columns_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0], [1.0, 2.0]])


class TestMargin:
    """``margin``: how far a check's value lies on its passing side."""

    @pytest.mark.parametrize("make, value, threshold, margin", [
        (Check.leq, 0.25, 1.0, 0.75),
        (Check.leq, 2.0, 1.0, -1.0),
        (Check.lt, -3.0, -1e-12, 3.0 - 1e-12),
        (Check.geq, 5.0, 1.0, 4.0),
        (Check.geq, 0.5, 1.0, -0.5),
        (Check.lt, math.inf, 1.0, -math.inf),
    ])
    def test_signed_by_direction(self, make, value, threshold, margin):
        check = make("c", value, threshold)
        assert check.margin == margin
        assert (check.margin > 0) is check.passed or check.margin == 0

    def test_nan_value_has_nan_margin(self):
        for make in (Check.leq, Check.lt, Check.geq):
            assert math.isnan(make("c", float("nan"), 1.0).margin)

    def test_serialised_into_the_report(self, tmp_path):
        path = write_report(tmp_path / "report.json",
                            {"checks": [Check.leq("a", 0.25, 1.0), Check.geq("b", 0.5, 1.0),
                                        Check.lt("c", float("nan"), 1.0)]})
        checks = json.loads(path.read_text())["checks"]
        assert [c["margin"] for c in checks] == [0.75, -0.5, "nan"]
