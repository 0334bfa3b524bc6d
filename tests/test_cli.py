"""Config parsing, exit codes, report/CSV emission, and determinism."""

import glob
import inspect
import json
import os

import numpy as np
import pytest

from contractkit import cli, geometry, measures, pde, weights
from contractkit.errors import ConfigError


def write_cfg(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs")

MEASURE_CFG = """
[experiment]
name = measure
seed = 0
output_dir = {out}

[params]
matrix = -2 1; 0 -3
p = 1
"""


class TestParsing:
    def test_valid_config(self, tmp_path):
        path = write_cfg(tmp_path, MEASURE_CFG.format(out=tmp_path / "out"))
        name, seed, out, params = cli.parse_config(path)
        assert name == "measure" and seed == 0
        np.testing.assert_allclose(params["matrix"], [[-2, 1], [0, -3]])
        assert params["p"] == 1.0

    def test_unknown_param_rejected(self, tmp_path):
        cfg = MEASURE_CFG.format(out=tmp_path) + "mystery = 3\n"
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write_cfg(tmp_path, cfg))
        assert err.value.field == "mystery"

    @pytest.mark.parametrize("kind", ["spatial", "temporal"])
    def test_symmetry_takes_no_step(self, tmp_path, capsys, kind):
        # neither kind reads a step: the spatial run records at RK4's
        # stability step, the temporal one at t = m tau
        assert "dt" not in cli.EXPERIMENTS["symmetry"].params
        cfg = (f"[experiment]\nname = symmetry\noutput_dir = {tmp_path / 'out'}\n\n"
               f"[params]\nkind = {kind}\nt_end = 3\ndt = 1e-3\n")
        path = write_cfg(tmp_path, cfg)
        for command, head in (("run", "config error"), ("validate", "invalid")):
            assert cli.main([command, path]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"{head}: unknown key 'dt' in [params]")
        assert not (tmp_path / "out").exists()

    def test_unknown_section_rejected(self, tmp_path):
        cfg = MEASURE_CFG.format(out=tmp_path) + "\n[extra]\nx = 1\n"
        with pytest.raises(ConfigError):
            cli.parse_config(write_cfg(tmp_path, cfg))

    def test_unknown_experiment(self, tmp_path):
        cfg = "[experiment]\nname = wormholes\n\n[params]\n"
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write_cfg(tmp_path, cfg))
        assert err.value.field == "name"

    def test_missing_required_field(self, tmp_path):
        cfg = "[experiment]\nname = measure\n\n[params]\np = 2\n"
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write_cfg(tmp_path, cfg))
        assert err.value.field == "matrix"

    def test_negative_grid_size_named(self, tmp_path):
        cfg = "[experiment]\nname = heat\n\n[params]\nn = -4\n"
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write_cfg(tmp_path, cfg))
        assert err.value.field == "n"

    def test_bad_value_type(self, tmp_path):
        cfg = "[experiment]\nname = heat\n\n[params]\nn = sixteen\n"
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write_cfg(tmp_path, cfg))
        assert err.value.field == "n"


class TestRun:
    def test_measure_run_writes_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = cli.run(write_cfg(tmp_path, MEASURE_CFG.format(out=out)))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["experiment"] == "measure"
        assert report["report"]["rate"]["value"] == pytest.approx(-2.0)
        assert report["report"]["rate"]["method"] == "closed_form"
        assert (out / "oracle.csv").read_text().splitlines()[0].startswith("time,")

    def test_invalid_config_exit_1(self, tmp_path):
        cfg = "[experiment]\nname = heat\n\n[params]\nn = -4\n"
        assert cli.run(write_cfg(tmp_path, cfg)) == 1

    def test_missing_file_exit_1(self):
        assert cli.run("/nonexistent/path.cfg") == 1

    def test_singular_shear_exit_1(self, tmp_path, capsys):
        # the singular matrix is a contract violation, not a numpy traceback
        path = os.path.join(CONFIG_DIR, "limit_cycle.cfg")
        with open(path) as fh:
            cfg = fh.read().replace("runs/limit_cycle", str(tmp_path / "out"))
        assert cli.run(write_cfg(tmp_path, cfg + "shear = 1 1; 1 1\n")) == 1
        assert "error: conjugacy matrix is singular" in capsys.readouterr().err

    def test_turing_counterexample_exit_2(self, tmp_path):
        cfg = f"""
[experiment]
name = reaction_diffusion
seed = 0
output_dir = {tmp_path / "rd"}

[params]
n = 32
alphas = 0.001 0.1
reaction = brusselator
t_end = 20.0
amplitude = 0.05
"""
        code = cli.run(write_cfg(tmp_path, cfg))
        assert code == 2
        report = json.loads((tmp_path / "rd" / "report.json").read_text())
        failing = [c for c in report["report"]["checks"] if not c["passed"]]
        assert failing, "a named hypothesis must fail"

    @pytest.mark.parametrize("bound, code, passed", [(None, 0, None), (20.0, 0, True),
                                                      (5.0, 2, False)])
    def test_vanishing_osl_declared_rate_bound(self, tmp_path, bound, code, passed):
        out = tmp_path / "v"
        cfg = (f"[experiment]\nname = vanishing_osl\nseed = 0\noutput_dir = {out}\n\n"
               "[params]\nn = 64\nt_end = 0.2\n")
        if bound is not None:
            cfg += f"lambda_bound = {bound}\n"
        assert cli.run(write_cfg(tmp_path, cfg)) == code
        rep = json.loads((out / "report.json").read_text())["report"]
        checks = {c["name"]: c for c in rep["hypotheses"]}
        if bound is None:
            assert rep["lambda_declared"] == "not declared"
            assert "uniform_rate_bound" not in checks
            return
        check = checks["uniform_rate_bound"]
        assert rep["lambda_declared"] == bound
        assert check["value"] == rep["lambda_observed"]
        assert check["threshold"] == pytest.approx(bound)
        assert check["passed"] is passed
        assert (check["name"] in rep["hypotheses_failed"]) is not passed

    def test_failed_fit_withholds_heat(self, tmp_path, capsys):
        # too short a run for the fit: the failed check must withhold
        out = tmp_path / "h"
        cfg = (f"[experiment]\nname = heat\nseed = 0\noutput_dir = {out}\n\n"
               "[params]\nt_end = 0.002\n")
        assert cli.run(write_cfg(tmp_path, cfg)) == 2
        printed = capsys.readouterr().out
        assert "[FAIL] fitted_decay_within_2pct" in printed
        assert "certificate: withheld" in printed
        report = json.loads((out / "report.json").read_text())
        assert report["certified"] is False
        assert report["report"]["status"] == "withheld"

    def test_manifold_certified_at_seed_577215(self, tmp_path):
        # the first trajectory starts 3e-4 off the circle; its residual levels
        # off at the solver's error, which the fit must not count
        out = tmp_path / "m"
        cfg = (f"[experiment]\nname = manifold\nseed = 577215\noutput_dir = {out}\n\n"
               "[params]\nt_end = 40.0\ndt = 5e-3\n")
        assert cli.run(write_cfg(tmp_path, cfg)) == 0
        rep = json.loads((out / "report.json").read_text())["report"]
        assert rep["certified"]
        for fit in rep["sim"]["fits"]:
            assert fit["fitted"] <= rep["sim"]["threshold"]

    @pytest.mark.parametrize("name", ["growth_bound", "mle"])
    def test_variational_reports_name_their_integrator(self, tmp_path, name):
        out = tmp_path / name
        cfg = (f"[experiment]\nname = {name}\nseed = 0\noutput_dir = {out}\n\n"
               "[params]\nmatrix = -1 10; 0 -1\nt_end = 4.0\n")
        assert cli.run(write_cfg(tmp_path, cfg)) == 0
        rep = json.loads((out / "report.json").read_text())["report"]
        entry = rep["integrator"]
        assert entry["method"] == "LSODA" and entry["nfev"] > entry["steps"] > 0
        if name == "growth_bound":
            assert rep["rate_solves"] == 1
        for csv in out.glob("*.csv"):
            header = csv.read_text().splitlines()[0]
            assert "integrator" not in header and "solves" not in header

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("CONTRACTKIT_OUTPUT_DIR", str(override))
        cli.run(write_cfg(tmp_path, MEASURE_CFG.format(out=tmp_path / "ignored")))
        assert (override / "report.json").exists()
        assert not (tmp_path / "ignored").exists()


def _json_checks(obj):
    if isinstance(obj, dict):
        if {"name", "value", "threshold", "passed", "direction"} <= set(obj):
            return [obj]
        return [c for v in obj.values() for c in _json_checks(v)]
    if isinstance(obj, list):
        return [c for v in obj for c in _json_checks(v)]
    return []


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg"))),
                             ids=lambda p: os.path.basename(p)[:-4])
    def test_exit_2_exactly_when_a_check_failed(self, tmp_path, monkeypatch, path):
        monkeypatch.setenv("CONTRACTKIT_OUTPUT_DIR", str(tmp_path))
        code = cli.run(path)
        report = json.loads((tmp_path / "report.json").read_text())
        checks = _json_checks(report["report"])
        failed = [c["name"] for c in checks if not c["passed"]]
        assert code == (2 if failed else 0), failed
        # each check is written once; another key refers to it by name
        names = [c["name"] for c in checks]
        assert len(names) == len(set(names)), names
        if report["certified"] is None:
            assert not checks
        else:
            assert checks and report["certified"] is (not failed)
            assert report["report"]["certified"] is report["certified"]


class TestValuesTheSchemaAccepts:
    """Values that parse but cannot run end in the CLI's error line, exit 1."""

    _CASES = [
        ("measure", "seed = 0", "seed = -1", "config error: field 'seed'"),
        ("manifold", "radial_band = 0.8 1.2", "radial_band = 1.2",
         "config error: field 'radial_band'"),
        ("limit_cycle", "radial_band = 0.8 1.2", "radial_band = 1.2",
         "config error: field 'radial_band'"),
        ("limit_cycle", "radial_band = 0.8 1.2", "radial_band = 1.2 0.8",
         "config error: field 'radial_band'"),
        ("phase_locking", "omegas = 1.0", "omegas = 1.0 1.1",
         "config error: field 'omegas'"),
        ("reaction_diffusion", "alphas = 0.5", "alphas = 0.5 0.5",
         "config error: field 'alphas'"),
        ("mle", "renorm_interval = 0.5", "renorm_interval = 100",
         "config error: field 'renorm_interval'"),
        ("reaction_diffusion", "reaction = allen_cahn", "reaction = brusselator\na = 0",
         "config error: field 'a'"),
    ]
    _IDS = ["negative_seed", "manifold_one_band_value", "limit_cycle_one_band_value",
            "limit_cycle_band_reversed", "phase_locking_two_omegas_for_three",
            "allen_cahn_two_alphas", "mle_interval_past_t_end", "brusselator_a_zero"]

    @staticmethod
    def _edited(tmp_path, name, line, edited):
        with open(os.path.join(CONFIG_DIR, f"{name}.cfg")) as fh:
            text = fh.read()
        assert text.count(line) == 1
        return write_cfg(tmp_path, text.replace(line, edited))

    @pytest.mark.parametrize("name, line, edited, message", _CASES, ids=_IDS)
    def test_exit_1_with_the_error_line(self, tmp_path, monkeypatch, capsys, name, line,
                                        edited, message):
        monkeypatch.setenv("CONTRACTKIT_OUTPUT_DIR", str(tmp_path / "out"))
        assert cli.main(["run", self._edited(tmp_path, name, line, edited)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err
        field = message.split("'")[1]
        assert err.rstrip().endswith(f"(field: {field})")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, line, edited, message", _CASES, ids=_IDS)
    def test_validate_refuses_what_run_refuses(self, tmp_path, capsys, name, line, edited,
                                               message):
        assert cli.main(["validate", self._edited(tmp_path, name, line, edited)]) == 1
        err = capsys.readouterr().err
        field = message.split("'")[1]
        assert err.startswith(f"invalid: field '{field}'")
        assert err.rstrip().endswith(f"(field: {field})")


class TestOneHomeForDefaults:
    def test_experiment_entry_points_take_every_config_value(self):
        # their defaults live in the EXPERIMENTS Param table alone
        for fn in (pde.heat_zero_flux_experiment, pde.reaction_diffusion_experiment,
                   pde.nonlinear_poisson_experiment, pde.vanishing_osl_experiment,
                   pde.burgers_family, pde.advection_family):
            defaults = [p.name for p in inspect.signature(fn).parameters.values()
                        if p.default is not inspect.Parameter.empty]
            assert not defaults, (fn.__name__, defaults)

    def test_sampler_is_required(self):
        for fn in (measures.nonlinear_rate, pde.sobolev_rate, weights.optimize_diagonal_weight,
                   geometry.certify_subspace_contraction, geometry.certify_manifold_contraction,
                   geometry.certify_limit_cycle, geometry.certify_phase_locking):
            param = inspect.signature(fn).parameters["sampler"]
            assert param.default is inspect.Parameter.empty, fn.__name__


class TestListValidate:
    def test_list_has_all_experiments_stable_order(self, capsys):
        cli.list_experiments()
        first = capsys.readouterr().out
        cli.list_experiments()
        second = capsys.readouterr().out
        assert first == second
        names = [line.split(":")[0] for line in first.splitlines()
                 if line and not line.startswith(" ")]
        assert len(names) == 15
        assert names == list(cli.EXPERIMENTS)

    def test_descriptions_name_the_result(self):
        for exp in cli.EXPERIMENTS.values():
            assert len(exp.description) > 20

    def test_validate_ok_and_bad(self, tmp_path, capsys):
        good = write_cfg(tmp_path, MEASURE_CFG.format(out=tmp_path))
        assert cli.validate(good) == 0
        bad = write_cfg(tmp_path, "[experiment]\nname = heat\n\n[params]\nq = 1\n",
                        name="bad.cfg")
        assert cli.validate(bad) == 1

    def test_shipped_configs_validate(self, capsys):
        configs = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))
        assert len(configs) == 16
        for path in configs:
            assert cli.validate(path) == 0, path
        names = {cli.parse_config(path)[0] for path in configs}
        assert names == set(cli.EXPERIMENTS)

    def test_main_subcommands(self, tmp_path):
        path = write_cfg(tmp_path, MEASURE_CFG.format(out=tmp_path / "m"))
        assert cli.main(["validate", path]) == 0
        assert cli.main(["list"]) == 0
        assert cli.main(["run", path]) == 0


class TestDeterminism:
    def test_rerun_byte_identical_csv(self, tmp_path):
        cfg_a = f"""
[experiment]
name = heat
seed = 3
output_dir = {tmp_path / "a"}

[params]
n = 16
t_end = 0.3
"""
        cfg_b = cfg_a.replace(str(tmp_path / "a"), str(tmp_path / "b"))
        assert cli.run(write_cfg(tmp_path, cfg_a, "a.cfg")) == 0
        assert cli.run(write_cfg(tmp_path, cfg_b, "b.cfg")) == 0
        for fname in ("decay.csv",):
            a = (tmp_path / "a" / fname).read_bytes()
            b = (tmp_path / "b" / fname).read_bytes()
            assert a == b
