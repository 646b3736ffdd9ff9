"""End-to-end runner tests: exit codes, file outputs, determinism, presets."""

import json
import math
import warnings

import numpy as np
import pytest

from gexr import cli
from gexr import constants as constmod
from gexr import doublesum as dsmod
from gexr import tailprob
from gexr.cli import main
from gexr.covmodels import (
    DriftFunction,
    LimitFieldComponent,
    LimitFieldSpec,
    ThresholdedFamilySpec,
    VarianceFunction,
)
from gexr.functionals import FunctionalSpec
from gexr.mc import Estimate
from gexr.presets import PRESETS
from gexr.rng import RngStream
from gexr.simkit import CHOLESKY_POINT_BUDGET, GRID_POINT_BUDGET, GridSpec, SimulationError

SMOKE_BUDGET = "600"  # caps replication counts


def run(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# argument handling and exit codes


def test_list_presets(capsys):
    assert run(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert "pickands-alpha-1" in out
    assert "ruin-demo" in out and "qualitative" in out


def test_missing_config_is_config_error(capsys):
    assert run(["tail"]) == 2


def test_unknown_preset_is_config_error(capsys):
    assert run(["tail", "--preset", "no-such-preset"]) == 2


def test_kind_mismatch_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "tail", "seed": 1}))
    assert run(["constants", "--config", str(cfg)]) == 2


def test_missing_seed_is_config_error(tmp_path, capsys):
    cfg = dict(PRESETS["short-interval-tail"][1])
    del cfg["seed"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["tail", "--config", str(path)]) == 2


@pytest.mark.parametrize("workers", ["0", "2"])
def test_bad_workers_is_config_error(workers, capsys):
    # --workers is retired; the parser keeps it for the value 1 alone
    assert run(["tail", "--preset", "short-interval-tail", "--workers", workers]) == 2
    assert "--workers is retired" in capsys.readouterr().err


def test_workers_one_still_runs(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("GEXR_BUDGET", SMOKE_BUDGET)
    out = tmp_path / "run"
    argv = ["audit", "--preset", "uniform-audit-stationary", "--workers", "1",
            "--out", str(out)]
    assert run(argv) == 0
    assert "workers" not in json.loads((out / "results.json").read_text())


def test_invalid_budget_is_config_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("GEXR_BUDGET", "not-a-number")
    assert (
        run(["tail", "--preset", "short-interval-tail", "--out", str(tmp_path)]) == 2
    )
    monkeypatch.setenv("GEXR_BUDGET", "0")
    assert (
        run(["tail", "--preset", "short-interval-tail", "--out", str(tmp_path)]) == 2
    )


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert run(["tail", "--config", str(path)]) == 2


def test_unknown_constants_estimator_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    cfg = {"kind": "constants", "estimator": "nope", "seed": 1, "reps": 10}
    path.write_text(json.dumps(cfg))
    assert run(["constants", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "unknown constants estimator" in capsys.readouterr().err


def test_decreasing_domain_sizes_is_config_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(PRESETS["pickands-alpha-1"][1]))
    cfg["schedule"]["domainSizes"] = [16, 8, 4, 2]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["constants", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "domain sizes must be increasing" in capsys.readouterr().err


def test_budget_caps_reps_not_grid_size(monkeypatch, tmp_path, capsys):
    # the 513-point grid of the MC check is larger than the budget
    monkeypatch.setenv("GEXR_BUDGET", "300")
    out = tmp_path / "run"
    code = run(["formula", "--preset", "formula-product-1d", "--out", str(out)])
    assert code in (0, 1)
    assert (out / "formula.csv").exists()
    assert json.loads((out / "results.json").read_text())["budget"] == 300


def test_config_point_budget_still_rejects_grids(tmp_path, capsys):
    # the cap is simkit's constant; a config's pointBudget is no longer read
    cfg = json.loads(json.dumps(PRESETS["short-interval-tail"][1]))
    path = tmp_path / "cfg.json"
    cfg["grid"] = {"perAxis": [[0.0, 2.0, GRID_POINT_BUDGET + 1]]}
    path.write_text(json.dumps(cfg))
    assert run(["tail", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"exceeding budget {GRID_POINT_BUDGET}" in capsys.readouterr().err
    cfg["grid"] = {"perAxis": [[0.0, 2.0, 65]], "pointBudget": 10}
    path.write_text(json.dumps(cfg))
    assert run(["tail", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "pointBudget is not read" in capsys.readouterr().err


@pytest.mark.parametrize("weight", [-0.5, 1.5])
def test_mix_weight_outside_unit_interval_is_config_error(weight, tmp_path, capsys):
    cfg = json.loads(json.dumps(PRESETS["short-interval-tail"][1]))
    cfg["functional"] = {"mix": weight}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["tail", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "mix weight" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_linalg_error_is_numerical_failure(monkeypatch, tmp_path, capsys):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(tailprob, "conditional_tail", broken)
    code = run(["tail", "--preset", "short-interval-tail", "--out", str(tmp_path)])
    assert code == 3
    assert "model rejected" in capsys.readouterr().err


def test_non_psd_variance_model_is_numerical_failure(monkeypatch, tmp_path, capsys):
    # a variance that falls from 1 to 0.01 is no variogram: the real PSD
    # check of the Cholesky fallback rejects its covariance, no mock
    cfg = json.loads(json.dumps(PRESETS["generalized-piterbarg"][1]))
    cfg["varianceFunction"] = {"kind": "custom", "alpha0": 1.0, "alphaInf": 1.0,
                               "table": [[0.125, 1.0], [0.25, 0.01], [1e3, 0.01]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setenv("GEXR_BUDGET", "200")
    out = tmp_path / "out"
    assert run(["constants", "--config", str(path), "--out", str(out)]) == 3
    assert "covariance is not nonnegative definite" in capsys.readouterr().err
    assert not out.exists()


def test_window_draw_failure_on_the_helper_thread_is_numerical_failure(
    monkeypatch, tmp_path, capsys
):
    # of the window identity's four batches the helper thread draws 2 and 3;
    # a generator failure there must still reach the runner as
    # SimulationError, exit 3
    real = constmod.LimitFieldSampler
    draws = []

    class FailingAtBatch3(real):
        def sample(self, gen, size, out=None):
            draws.append(size)
            if gen.bit_generator.seed_seq.spawn_key[-1] == 3:
                raise SimulationError("negative circulant eigenvalue")
            return super().sample(gen, size, out=out)

    monkeypatch.setattr(constmod, "LimitFieldSampler", FailingAtBatch3)
    monkeypatch.setenv("GEXR_BUDGET", "8000")
    out = tmp_path / "out"
    assert run(["constants", "--preset", "pickands-alpha-1", "--out", str(out)]) == 3
    assert "negative circulant eigenvalue" in capsys.readouterr().err
    assert len(draws) == 4 and not out.exists()


def test_unreadable_config_is_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run(["tail", "--config", str(missing), "--out", str(tmp_path)]) == 2
    assert "cannot read --config" in capsys.readouterr().err


@pytest.mark.parametrize("out_name", ["taken", "taken/sub"])
def test_out_naming_a_file_fails_before_any_estimator(
    monkeypatch, tmp_path, capsys, out_name
):
    def unreachable(*args, **kwargs):
        raise AssertionError("the estimator ran")

    monkeypatch.setattr(tailprob, "conditional_tail", unreachable)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = tmp_path / out_name
    assert run(["tail", "--preset", "short-interval-tail", "--out", str(out)]) == 2
    assert "cannot create --out" in capsys.readouterr().err
    assert taken.read_text() == "kept"


def _short_tail_without_reps(tmp_path):
    cfg = dict(PRESETS["short-interval-tail"][1])
    del cfg["reps"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _linalg_broken(*args, **kwargs):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def test_failed_run_removes_the_out_it_created(monkeypatch, tmp_path, capsys):
    config = _short_tail_without_reps(tmp_path)
    for out in (tmp_path / "emptyout", tmp_path / "made" / "deeper"):
        assert run(["tail", "--config", config, "--out", str(out)]) == 2
    monkeypatch.setattr(tailprob, "conditional_tail", _linalg_broken)
    out = tmp_path / "numeric"
    assert run(["tail", "--preset", "short-interval-tail", "--out", str(out)]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_failed_run_keeps_an_existing_out(monkeypatch, tmp_path, capsys):
    config = _short_tail_without_reps(tmp_path)
    kept = tmp_path / "kept"
    kept.mkdir()
    assert run(["tail", "--config", config, "--out", str(kept)]) == 2
    monkeypatch.setattr(tailprob, "conditional_tail", _linalg_broken)
    assert run(["tail", "--preset", "short-interval-tail", "--out", str(kept)]) == 3
    assert kept.is_dir()


_DROP = object()  # the key is removed instead of set

# (preset, key path, value, what is wrong): each case is one missing key, one
# wrong-typed, empty or out-of-range value, or one key the dialect no longer
# reads (generalized-piterbarg's gridStep: its step is tSchedule.gridSteps;
# formula's mcCheck.coarseGrid: the check runs on one grid; a grid's
# pointBudget: the cap is fixed); audit's
# uSchedule and tolerance, formula's mcCheck entries and the constants target
# used to be read only after an estimator had run
_BAD_CONFIGS = [
    ("pickands-alpha-1", ("schedule",), _DROP, "missing"),
    ("pickands-alpha-1", ("target",), "one", "wrong-type"),
    ("short-interval-tail", ("u",), _DROP, "missing"),
    ("short-interval-tail", ("u",), [5.0], "wrong-type"),
    ("short-interval-tail", ("family",), {"kind": "stationary", "lengthScale": -1},
     "out-of-range"),
    ("uniform-audit-stationary", ("uSchedule",), _DROP, "missing"),
    ("uniform-audit-stationary", ("uSchedule",), [], "empty"),
    ("uniform-audit-stationary", ("tolerance",), "tight", "wrong-type"),
    ("doublesum-gaussian", ("separations",), _DROP, "missing"),
    ("doublesum-gaussian", ("uLevels",), [2.5, "high"], "wrong-type"),
    ("formula-product-1d", ("mcCheck", "reps"), _DROP, "missing"),
    ("formula-product-1d", ("mcCheck", "tolerance"), "loose", "wrong-type"),
    ("formula-product-1d", ("mcCheck", "family", "alpha"), 3, "out-of-range"),
    ("formula-product-1d", ("mcCheck", "coarseGrid"), {"perAxis": [[-4.0, 4.0, 129]]},
     "unread"),
    ("ruin-demo", ("uSchedule",), _DROP, "missing"),
    ("ruin-demo", ("uSchedule",), [4.0, "nine"], "wrong-type"),
    ("ruin-demo", ("uSchedule",), [], "empty"),
    ("generalized-piterbarg", ("gridStep",), 0.125, "wrong-type"),
    ("generalized-piterbarg", ("tSchedule", "domainSizes"), [1, 2, 4, 4], "repeated"),
    ("generalized-piterbarg", ("tSchedule", "domainSizes"), [-1, 1, 2, 4], "negative"),
    ("piterbarg-gamma", ("schedule", "domainSizes"), [1, 2, 2], "repeated"),
    ("pickands-alpha-1", ("schedule", "domainSizes"), [2, 4, 4, 8], "repeated"),
    ("pickands-alpha-1", ("schedule", "domainSizes"), [0, 2, 4, 8], "zero"),
    ("short-interval-tail", ("seed",), -1, "negative"),
    ("short-interval-tail", ("seed",), 1.5, "fractional"),
    ("short-interval-tail", ("reps",), 2.5, "fractional"),
    ("short-interval-tail", ("grid", "perAxis"), [[0.0, 2.0, 65.5]], "fractional"),
    ("short-interval-tail", ("u",), 0.0, "zero"),
    ("uniform-audit-stationary", ("family", "tauCount"), 2.5, "fractional"),
    ("doublesum-gaussian", ("pointsPerUnit",), 0, "zero"),
    ("formula-product-1d", ("constants", "perUnit"), [0.0], "zero"),
    ("pickands-alpha-1", ("tolerance",), -0.5, "negative"),
    ("uniform-audit-stationary", ("tolerance",), -0.5, "negative"),
    ("formula-product-1d", ("mcCheck", "tolerance"), -0.5, "negative"),
    ("uniform-audit-stationary", ("constant",), {"value": 3, "stderr": -1},
     "negative-stderr"),
    ("uniform-audit-stationary", ("constant",), {"value": -3}, "negative-value"),
    ("uniform-audit-stationary", ("constant",), {"value": 0}, "zero-value"),
    ("doublesum-gaussian", ("separations",), [-3, 0], "negative"),
    ("short-interval-tail", ("grid", "pointBudget"), 10, "unread"),
    ("piterbarg-gamma", ("drift", "exponent"), -1.0, "negative"),
    ("piterbarg-gamma", ("drift", "exponent"), 0.0, "zero"),
    ("formula-product-1d", ("mcCheck", "family", "exponent"), -1.0, "negative"),
    ("piterbarg-gamma", ("schedule", "stopRule"), -1.0, "negative"),
]


def _numeric_leaves(doc, path=()):
    """The key path of every number in a config, list indices included."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        if isinstance(value, (dict, list)):
            yield from _numeric_leaves(value, (*path, key))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield (*path, key)


# every number of every preset, one at a time, made non-finite or a boolean
_NON_FINITE = [
    (name, path, value, what)
    for name, (_, cfg) in PRESETS.items()
    for path in _numeric_leaves(cfg)
    for what, value in (("NaN", math.nan), ("Infinity", math.inf),
                        ("-Infinity", -math.inf), ("nan-string", "nan"),
                        ("true", True))
]


def _no_estimator_may_run(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("an estimator ran")

    for module, names in (
        (constmod, ["estimate_pickands", "estimate_piterbarg",
                    "estimate_generalized_piterbarg",
                    "estimate_generalized_constant", "window_sup_levels"]),
        (tailprob, ["conditional_tail", "crude_mc_tail", "uniform_ratio_audit",
                    "eval_mainm_formula"]),
        (dsmod, ["estimate_double_maxima", "fit_bound_constant"]),
    ):
        for name in names:
            monkeypatch.setattr(module, name, unreachable)


@pytest.mark.parametrize(
    "name,path,value", [case[:3] for case in _BAD_CONFIGS + _NON_FINITE],
    ids=[f"{n}-{'.'.join(map(str, p))}-{what}"
         for n, p, _, what in _BAD_CONFIGS + _NON_FINITE],
)
def test_bad_config_is_rejected_before_any_estimator(
    name, path, value, monkeypatch, tmp_path, capsys
):
    _no_estimator_may_run(monkeypatch)
    cfg = json.loads(json.dumps(PRESETS[name][1]))
    doc = cfg
    for key in path[:-1]:
        doc = doc[key]
    if value is _DROP:
        del doc[path[-1]]
    else:
        doc[path[-1]] = value
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run([cfg["kind"], "--config", str(config), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_flag_is_config_error(monkeypatch, tmp_path, capsys):
    _no_estimator_may_run(monkeypatch)
    out = tmp_path / "out"
    argv = ["tail", "--preset", "short-interval-tail", "--seed", "-1", "--out", str(out)]
    assert run(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("estimator", ["conditional", "crude"])
def test_tail_grid_over_the_cholesky_cap_is_config_error(
    estimator, monkeypatch, tmp_path, capsys
):
    def unreachable(*args, **kwargs):
        raise AssertionError("the n x n correlation matrix was formed")

    monkeypatch.setenv("GEXR_BUDGET", "10")
    monkeypatch.setattr(ThresholdedFamilySpec, "corr_matrix", unreachable)
    out = tmp_path / "out"
    grid = {"perAxis": [[0.0, 2.0, CHOLESKY_POINT_BUDGET + 1]]}
    config = _tail_config(tmp_path, estimator=estimator, grid=grid)
    assert run(["tail", "--config", config, "--out", str(out)]) == 2
    assert "exceeding the Cholesky cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("error", [TypeError, KeyError, ValueError])
def test_internal_error_propagates_and_removes_its_out(
    error, monkeypatch, tmp_path, capsys
):
    def buggy(*args, **kwargs):
        raise error("a bug inside the estimator")

    monkeypatch.setattr(tailprob, "conditional_tail", buggy)
    out = tmp_path / "made" / "out"
    with pytest.raises(error) as caught:
        run(["tail", "--preset", "short-interval-tail", "--out", str(out)])
    assert caught.type is error  # not turned into ModelError
    assert "config error" not in capsys.readouterr().err
    assert not (tmp_path / "made").exists()


# ---------------------------------------------------------------------------
# output files


def _tail_config(tmp_path, **changes):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**PRESETS["short-interval-tail"][1], **changes}))
    return str(config)


@pytest.mark.parametrize("estimator", ["conditional", "crude"])
def test_tail_outputs(estimator, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("GEXR_BUDGET", SMOKE_BUDGET)
    out = tmp_path / "run"
    config = _tail_config(tmp_path, estimator=estimator)
    code = run(["tail", "--config", config, "--out", str(out)])
    assert code in (0, 1)
    csv = (out / "tail.csv").read_text()
    lines = csv.split("\n")
    assert lines[0] == "u,tau,pHat,stderr,psi,ratio"
    assert len(lines) == 3 and lines[-1] == ""  # one data row, LF-terminated
    fields = lines[1].split(",")
    assert float(fields[0]) == 5.0
    assert "." in fields[2]  # decimal point, not comma
    record = json.loads((out / "results.json").read_text())
    assert record["experiment"] == "tail"
    assert record["seed"] == 20260806
    assert len(record["configHash"]) == 16
    assert {"pHat", "stderr", "psi", "ratio", "status"} <= set(record["summary"])
    assert (out / "tail.gp").exists()


def test_crude_tail_without_hits_is_low_confidence(monkeypatch, tmp_path, capsys):
    monkeypatch.delenv("GEXR_BUDGET", raising=False)
    out = tmp_path / "run"
    config = _tail_config(tmp_path, estimator="crude", u=8.0, reps=2000)
    assert run(["tail", "--config", config, "--out", str(out)]) == 1
    summary = json.loads((out / "results.json").read_text())["summary"]
    assert summary["status"] == "low-confidence"
    assert summary["pHat"] == 0


def test_audit_csv_cells_parse_as_numbers(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("GEXR_BUDGET", SMOKE_BUDGET)
    code = run(["audit", "--preset", "uniform-audit-stationary", "--out", str(tmp_path)])
    assert code in (0, 1)
    csvs = sorted(tmp_path.glob("*.csv"))
    assert [p.name for p in csvs] == ["audit.csv", "ratios.csv"]
    for path in csvs:
        header, *rows = path.read_text().splitlines()
        columns = header.split(",")
        assert rows
        for row in rows:
            for col, cell in zip(columns, row.split(","), strict=True):
                if col == "pass":  # the per-level verdict is a boolean column
                    assert cell in ("True", "False")
                else:
                    float(cell)


def _audit_config(path, per_axis):
    cfg = json.loads(json.dumps(PRESETS["uniform-audit-stationary"][1]))
    cfg["grid"]["perAxis"] = per_axis
    cfg["uSchedule"] = [3]
    path.write_text(json.dumps(cfg))
    return str(path)


def test_audit_window_constant_covers_the_grid_length(monkeypatch, tmp_path, capsys):
    # the constant of [-1, 1] is that of [0, 2], from the same draws
    monkeypatch.setenv("GEXR_BUDGET", SMOKE_BUDGET)
    constants = []
    for name, axis in (("shifted", [-1.0, 1.0, 65]), ("origin", [0.0, 2.0, 65])):
        cfg = _audit_config(tmp_path / f"{name}.json", [axis])
        out = tmp_path / name
        assert run(["audit", "--config", cfg, "--out", str(out)]) in (0, 1)
        constants.append(json.loads((out / "results.json").read_text())["summary"]["constant"])
    assert constants[0] == constants[1] > 3.0


def test_audit_window_constant_on_two_axes_is_config_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("GEXR_BUDGET", SMOKE_BUDGET)
    cfg = _audit_config(tmp_path / "cfg.json", [[0.0, 2.0, 65], [0.0, 1.0, 3]])
    assert run(["audit", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "one axis" in capsys.readouterr().err


def test_audit_window_constant_of_degenerate_field_is_one(monkeypatch, tmp_path, capsys):
    # the zero field: every window ratio is 1, and the paths are not paired
    levels, pairs = constmod.window_sup_levels(
        LimitFieldSpec.degenerate_field(1), [1.0, 2.0], 1 / 8, 7, RngStream(3), refine=2
    )
    assert not pairs.paired and pairs.n_reps == 7
    assert [[a.tolist() for a in level] for level in levels] == [[[1.0] * 7] * 2] * 2
    monkeypatch.setenv("GEXR_BUDGET", SMOKE_BUDGET)
    cfg = json.loads(json.dumps(PRESETS["uniform-audit-stationary"][1]))
    cfg["constant"] = {"windowConstant": {"eta": {"degenerate": 1}, "reps": 100}}
    cfg["uSchedule"] = [3]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run(["audit", "--config", str(path), "--out", str(out)]) in (0, 1)
    summary = json.loads((out / "results.json").read_text())["summary"]
    assert (summary["constant"], summary["constantStderr"]) == (1.0, 0.0)


def test_rerun_is_byte_identical(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("GEXR_BUDGET", SMOKE_BUDGET)
    a, b = tmp_path / "a", tmp_path / "b"
    run(["tail", "--preset", "short-interval-tail", "--out", str(a)])
    run(["tail", "--preset", "short-interval-tail", "--out", str(b)])
    assert (a / "tail.csv").read_bytes() == (b / "tail.csv").read_bytes()


def _serial_cell_map(fn, items):
    return [fn(x) for x in items]


def test_audit_worker_count_invariance(monkeypatch, tmp_path, capsys):
    # the audit's cells split over two threads write the serial loop's bytes
    monkeypatch.setenv("GEXR_BUDGET", SMOKE_BUDGET)
    a, b = tmp_path / "pooled", tmp_path / "serial"
    code_a = run(["audit", "--preset", "uniform-audit-stationary", "--out", str(a)])
    monkeypatch.setattr(tailprob, "cell_map", _serial_cell_map)
    code_b = run(["audit", "--preset", "uniform-audit-stationary", "--out", str(b)])
    assert code_a == code_b
    assert (a / "ratios.csv").read_bytes() == (b / "ratios.csv").read_bytes()
    assert (a / "audit.csv").read_bytes() == (b / "audit.csv").read_bytes()


def test_doublesum_worker_count_invariance(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("GEXR_BUDGET", SMOKE_BUDGET)
    a, b = tmp_path / "pooled", tmp_path / "serial"
    code_a = run(["doublesum", "--preset", "doublesum-flat", "--out", str(a)])
    monkeypatch.setattr(cli, "cell_map", _serial_cell_map)
    code_b = run(["doublesum", "--preset", "doublesum-flat", "--out", str(b)])
    assert code_a == code_b
    assert (a / "doublesum.csv").read_bytes() == (b / "doublesum.csv").read_bytes()


def test_generalized_constant_writes_one_level_row(tmp_path, capsys):
    cfg = {
        "kind": "constants",
        "estimator": "generalized",
        "seed": 5,
        "reps": 300,
        "eta": {"fbm": 1.0},
        "drift": {"kind": "power", "coeff": 1.0, "exponent": 1.0},
        "grid": {"perAxis": [[0.0, 1.0, 17]]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run(["constants", "--config", str(path), "--out", str(out)]) == 0
    header, *rows = (out / "levels.csv").read_text().splitlines()
    assert header == "level,step,value,stderr,nReps"
    assert len(rows) == 1
    level, step, value, stderr, n_reps = rows[0].split(",")
    assert level == "" and step == ""
    assert float(value) > 1.0 and float(stderr) > 0.0 and n_reps == "300"
    summary = json.loads((out / "results.json").read_text())["summary"]
    assert summary["status"] == "pass" and "overflowCount" not in summary


def test_generalized_constant_of_component_field_matches_the_estimator(
    tmp_path, capsys
):
    # a finite-mode component and a mode-inf one, both read from the config
    base = {"kind": "sumOfFbm", "weights": [1.0, 2.0], "alphas": [0.6, 1.4]}
    cfg = {
        "kind": "constants",
        "estimator": "generalized",
        "seed": 11,
        "reps": 400,
        "eta": {"dim": 2, "components": [
            {"axis": 0, "scale": 0.5, "mode": 2.0, "base": base},
            {"axis": 1, "scale": 1.5, "mode": "inf", "base": base},
        ]},
        "grid": {"perAxis": [[0.0, 1.0, 5], [-1.0, 1.0, 9]]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run(["constants", "--config", str(path), "--out", str(out)]) == 0
    _, row = (out / "levels.csv").read_text().splitlines()
    vf = VarianceFunction.sum_of_fbm([1.0, 2.0], [0.6, 1.4])
    eta = LimitFieldSpec(dim=2, components=(
        LimitFieldComponent(0, 0.5, 2.0, vf),
        LimitFieldComponent(1, 1.5, math.inf, vf),
    ))
    est = constmod.estimate_generalized_constant(
        eta, DriftFunction.zero(), FunctionalSpec.sup(),
        GridSpec(((0.0, 1.0, 5), (-1.0, 1.0, 9))), 400, RngStream(11),
    )
    assert float(row.split(",")[2]) == est.value > 1.0


@pytest.mark.parametrize("key", ["mode", "scale"])
def test_nan_component_is_config_error(key, monkeypatch, tmp_path, capsys):
    _no_estimator_may_run(monkeypatch)
    component = {"axis": 0, "scale": 1.0, "mode": 0.0, "base": {"kind": "fbm", "alpha": 1.0}}
    cfg = {
        "kind": "constants",
        "estimator": "generalized",
        "seed": 5,
        "reps": 300,
        "eta": {"dim": 1, "components": [{**component, key: "nan"}]},
        "grid": {"perAxis": [[0.0, 1.0, 5]]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run(["constants", "--config", str(path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_audit_given_constant_is_not_estimated(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("GEXR_BUDGET", SMOKE_BUDGET)
    monkeypatch.setattr(constmod, "window_sup_levels", _linalg_broken)
    cfg = json.loads(json.dumps(PRESETS["uniform-audit-stationary"][1]))
    cfg["constant"] = {"value": 3.5, "stderr": 0.25}
    cfg["uSchedule"] = [3]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run(["audit", "--config", str(path), "--out", str(out)]) in (0, 1)
    summary = json.loads((out / "results.json").read_text())["summary"]
    assert (summary["constant"], summary["constantStderr"]) == (3.5, 0.25)
    assert len(summary["maxDeviations"]) == 1


@pytest.mark.parametrize("overflow", [0, 3])
def test_overflowed_level_fails_the_run(overflow, monkeypatch, tmp_path, capsys):
    def fake_pickands(eta, schedule, n_reps, rng):
        levels = [
            Estimate(1.0 + S, 0.01, n_reps, {"domain": S})
            for S in schedule.domain_sizes
        ]
        if overflow:
            levels[1].meta["overflow_count"] = overflow
        headline = Estimate(1.0, 0.001, n_reps)
        return constmod.LevelTrace(tuple(levels), headline, "plateau")

    monkeypatch.setattr(constmod, "estimate_pickands", fake_pickands)
    code = run(["constants", "--preset", "pickands-alpha-1", "--out", str(tmp_path)])
    summary = json.loads((tmp_path / "results.json").read_text())["summary"]
    if overflow:
        assert code == 1 and summary["status"] == "fail"
        assert summary["overflowCount"] == overflow
    else:  # the same trace without the overflow meets the preset's target
        assert code == 0 and summary["status"] == "pass"
        assert "overflowCount" not in summary


def test_underflowed_window_fails_the_run(monkeypatch, tmp_path, capsys):
    # a spike far above the center empties that path's windows into NaN
    class SpikedSampler:
        rank_one = False

        def __init__(self, eta, grid):
            self.size = grid.size

        def sample(self, gen, size, out):
            out[...] = 0.0
            out[0, 0] = 1000.0
            return out

    monkeypatch.setenv("GEXR_BUDGET", SMOKE_BUDGET)
    monkeypatch.setattr(constmod, "LimitFieldSampler", SpikedSampler)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the verdict alone reports it
        code = run(["constants", "--preset", "pickands-alpha-1", "--out", str(tmp_path)])
    summary = json.loads((tmp_path / "results.json").read_text())["summary"]
    assert code == 1 and summary["status"] == "fail"
    assert summary["overflowCount"] > 0


@pytest.mark.parametrize("overflow", [0, 3])
@pytest.mark.parametrize(
    "name", ["short-interval-tail", "uniform-audit-stationary",
             "formula-product-1d", "ruin-demo"]
)
def test_overflowed_conditioned_estimate_fails_the_run(
    name, overflow, monkeypatch, tmp_path, capsys
):
    def fake_conditional_tail(sampler, gamma, n_reps, rng):
        meta = {"g": sampler.g}
        if overflow:
            meta["overflow_count"] = overflow
        return Estimate(1e-7, 1e-9, n_reps, meta)

    monkeypatch.setattr(tailprob, "conditional_tail", fake_conditional_tail)
    monkeypatch.setenv("GEXR_BUDGET", SMOKE_BUDGET)
    kind = PRESETS[name][1]["kind"]
    code = run([kind, "--preset", name, "--out", str(tmp_path)])
    summary = json.loads((tmp_path / "results.json").read_text())["summary"]
    if overflow:
        assert code == 1 and summary["status"] == "fail"
        assert summary["overflowCount"] == overflow
    else:  # the verdict is whatever the fake values give, never an overflow
        assert code in (0, 1)
        assert "overflowCount" not in summary


def test_seed_flag_overrides_config(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("GEXR_BUDGET", SMOKE_BUDGET)
    a, b = tmp_path / "a", tmp_path / "b"
    run(["tail", "--preset", "short-interval-tail", "--out", str(a)])
    run(["tail", "--preset", "short-interval-tail", "--seed", "99", "--out", str(b)])
    assert (a / "tail.csv").read_bytes() != (b / "tail.csv").read_bytes()
    assert json.loads((b / "results.json").read_text())["seed"] == 99


# ---------------------------------------------------------------------------
# presets


def test_doublesum_flat_counterexample_fails(monkeypatch, tmp_path, capsys):
    # full replication count: the flag is deterministic at the shipped seed
    monkeypatch.delenv("GEXR_BUDGET", raising=False)
    code = run(["doublesum", "--preset", "doublesum-flat", "--out", str(tmp_path)])
    assert code == 1
    record = json.loads((tmp_path / "results.json").read_text())
    assert record["budget"] is None
    assert record["summary"]["growingWithSeparation"] is True


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_smoke(name, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("GEXR_BUDGET", SMOKE_BUDGET)
    kind = PRESETS[name][1]["kind"]
    code = run([kind, "--preset", name, "--out", str(tmp_path)])
    # statistical verdicts are unreliable at smoke budgets; only the
    # pass/fail channel is allowed, never config or numerical errors
    assert code in (0, 1)
    assert (tmp_path / "results.json").exists()


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_smoke_odd_budget(name, monkeypatch, tmp_path, capsys):
    # an odd cap leaves the conditioned estimators half a pair to round up,
    # and is below the point count of the largest preset grids
    monkeypatch.setenv("GEXR_BUDGET", "301")
    kind = PRESETS[name][1]["kind"]
    code = run([kind, "--preset", name, "--out", str(tmp_path)])
    assert code in (0, 1)
    assert (tmp_path / "results.json").exists()
