"""The certificate rule: granted exactly when a report holds at least one
check and every check in it passed."""

import pytest

from contractkit.reporting import Check, checks_in, verdict


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
