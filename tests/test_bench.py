import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrfrbs
from vrfrbs import bench, cli
from vrfrbs.bench import (CSV_HEADER, ConfigError, load_config, read_runs_csv,
                          resolve_eta, run_experiment, summarize)
from vrfrbs.cli import main as cli_main
from vrfrbs.estimators import KINDS


def toy_config(**overrides):
    cfg = {
        "experiment_id": "toy",
        "problem": {"family": "affine-toy", "dim": 6, "components": 12,
                    "mu": 1.0, "slope_scale": 0.1, "offset_scale": 1.0,
                    "seed": 3},
        "algorithms": [
            {"name": "full", "estimator": "full", "params": {}, "eta": "theory"},
            {"name": "svrg", "estimator": "svrg",
             "params": {"b": 6, "p_switch": 0.4}, "eta": "1/5L"},
        ],
        "run": {"epochs": 10, "record_every_epochs": 1.0, "seeds": [0, 1]},
    }
    cfg.update(overrides)
    return cfg


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(toy_config(bogus=1))
    bad = toy_config()
    bad["problem"]["extra"] = 2
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(bad)


def test_duplicate_seeds_rejected():
    bad = toy_config()
    bad["run"]["seeds"] = [0, 0]
    with pytest.raises(ConfigError, match="distinct"):
        load_config(bad)


def test_eta_parsing():
    assert resolve_eta("1/5L", 2.0, False) == pytest.approx(0.1)
    assert resolve_eta("1/1.5L", 3.0, False) == pytest.approx(1 / 4.5)
    assert resolve_eta(0.25, 10.0, False) == 0.25
    with pytest.raises(ConfigError):
        resolve_eta("5L", 1.0, False)


@pytest.mark.parametrize("spec", [True, False, float("nan"), float("inf"),
                                  float("-inf"), "1/0L"])
def test_eta_rejects_non_finite_and_bool(spec):
    with pytest.raises(ConfigError):
        resolve_eta(spec, 1.0, False)


def test_cli_nan_eta_is_a_config_error(tmp_path):
    cfg = toy_config()
    cfg["algorithms"][1]["eta"] = float("nan")
    cfg_path = tmp_path / "nan.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("key,value", [
    ("record_every_epochs", 0), ("record_every_epochs", -1.0),
    ("record_every_epochs", float("nan")), ("record_every_epochs", float("inf")),
    ("epochs", float("nan")), ("epochs", float("inf")),
])
def test_run_block_rejects_bad_lengths(key, value):
    bad = toy_config()
    bad["run"][key] = value
    with pytest.raises(ConfigError, match=key):
        load_config(bad)


@pytest.mark.parametrize("block,key,value", [
    ("run", "seeds", [0.5]),
    ("run", "seeds", "01"),
    ("run", "seeds", [True]),
    ("params", "share_batches", "false"),
    ("config", "fix_data", "false"),
    ("params", "b", 2.9),
    ("params", "b", True),
    ("params", "mega_batch", True),
    ("run", "max_iters", 2.5),
    ("problem", "dim", 2.5),
    ("problem", "seed", 1.5),
    ("problem", "mu", "2"),
    ("params", "p_switch", "0.5"),
    ("params", "p_switch", True),
    ("params", "sigma2", "1"),
    ("run", "epochs", True),
    ("run", "epochs", "2"),
    ("run", "record_every_epochs", "1"),
])
def test_mistyped_values_rejected(block, key, value):
    bad = toy_config()
    # hsvrg reads every params key typed here, so its type check runs
    bad["algorithms"][1] = {"estimator": "hsvrg",
                            "params": {"b": 6, "p_switch": 0.4, "omega": 0.5}}
    target = {"config": bad, "run": bad["run"], "problem": bad["problem"],
              "params": bad["algorithms"][1]["params"]}[block]
    target[key] = value
    with pytest.raises(ConfigError, match=key):
        load_config(bad)


@pytest.mark.parametrize("radius", [-math.inf, 0, -1.0, math.nan, "100"])
def test_auc_radius_must_be_positive_or_unbounded(radius):
    bad = toy_config(problem={"family": "auc", "n": 50, "d": 3,
                              "radius": radius})
    with pytest.raises(ConfigError, match="radius"):
        load_config(bad)
    for good in (None, math.inf, 2.5):
        load_config(toy_config(problem={"family": "auc", "n": 50, "d": 3,
                                        "radius": good}))


def test_sgd_coeff_on_other_estimators_rejected_when_read():
    bad = toy_config()
    bad["algorithms"][1]["params"]["sgd_coeff"] = 0.02
    with pytest.raises(ConfigError, match="sgd_coeff"):
        load_config(bad)


_EVERY_KEY_READ = {
    "full": {},
    "sgd": {"sgd_coeff": 0.05},
    "saga": {"b": 3},
    "svrg": {"b": 3, "p_switch": 0.4, "mega_batch": 8},
    "sarah": {"b": 3, "p_switch": 0.4, "mega_batch": "exact"},
    "hsgd": {"b": 3, "omega": 0.5, "mega_batch": 8, "share_batches": False},
    "hsvrg": {"b": 3, "p_switch": 0.4, "omega": 0.5, "mega_batch": "exact",
              "share_batches": True},
}


@pytest.mark.parametrize("kind", KINDS)
def test_params_take_every_key_their_estimator_reads(kind):
    cfg = toy_config(algorithms=[{"estimator": kind,
                                  "params": _EVERY_KEY_READ[kind]}])
    assert load_config(cfg)["algorithms"][0]["params"] == \
        _EVERY_KEY_READ[kind]


@pytest.mark.parametrize("kind,key,value", [
    ("sgd", "b", 4), ("saga", "p_switch", 0.5), ("svrg", "omega", 0.5),
    ("sarah", "share_batches", False), ("full", "b", 2),
    ("hsgd", "p_switch", 0.5), ("svrg", "sigma2", 1.0),
])
def test_cli_params_key_the_estimator_does_not_read(tmp_path, capsys, kind,
                                                     key, value):
    params = {**_EVERY_KEY_READ[kind], key: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(toy_config(
        algorithms=[{"estimator": kind, "params": params}])))
    assert cli_main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("kind,params,key,at_bound", [
    ("svrg", {"b": 4, "p_switch": 1.5}, "params.p_switch",
     {"b": 4, "p_switch": 1.0}),
    ("hsgd", {"b": 4, "omega": 0.0}, "params.omega", {"b": 4, "omega": 1.0}),
    ("svrg", {"b": 4}, "'p_switch'", {"b": 4, "p_switch": 0.5}),
    ("saga", {"b": 41}, "params.b", {"b": 40}),
], ids=["p_switch-above-1", "omega-zero", "p_switch-missing", "b-above-n"])
def test_cli_bad_params_exit_before_any_cell(tmp_path, capsys, monkeypatch,
                                             kind, params, key, at_bound):
    """A params value the estimator would reject is exit 2 when the config
    is read, before the cell ahead of it runs."""
    cells = []
    monkeypatch.setattr(bench, "_run_cell", lambda *args: cells.append(args))
    cfg = toy_config(algorithms=[{"estimator": "full", "params": {}},
                                 {"estimator": kind, "params": params}])
    cfg["problem"]["components"] = 40
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
    assert cells == []
    assert key in capsys.readouterr().err
    cfg["algorithms"][1]["params"] = at_bound
    load_config(cfg)


@pytest.mark.parametrize("kind", ["svrg", "saga", "sarah", "hsgd", "hsvrg"])
def test_cli_default_batch_of_zero_exits_before_any_cell(tmp_path, capsys,
                                                         monkeypatch, kind):
    """default:experiment's int(0.5 n^{2/3}) and int(0.25 n^{3/4}) are 0 on
    a two-component toy; both default profiles raise b to at least 1, so
    the config is accepted.  An explicit b = 0 is exit 2 naming the
    algorithm and b when the config is read, before the cell ahead of it
    runs."""
    cells = []
    monkeypatch.setattr(bench, "_run_cell", lambda *args: cells.append(args))
    cfg = toy_config(algorithms=[{"estimator": "full", "params": {}},
                                 {"name": f"my-{kind}", "estimator": kind,
                                  "params": "default:experiment"}])
    cfg["problem"]["components"] = 2
    for profile in ("default:experiment", "default:theory"):
        cfg["algorithms"][1]["params"] = profile
        load_config(cfg)
    cfg["algorithms"][1]["params"] = dict(
        {"b": 0}, **{name: 0.5 for name in ("p_switch", "omega")
                     if name in bench._params_table(kind)})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
    assert cells == []
    err = capsys.readouterr().err
    assert f"'my-{kind}'" in err and "b = 0" in err


@pytest.mark.parametrize("field", ["experiment_id", "name"])
@pytest.mark.parametrize("char", [",", '"', "\n", "\r"])
def test_csv_separators_in_ids_rejected(field, char):
    bad = toy_config()
    if field == "experiment_id":
        bad["experiment_id"] = f"a{char}b"
    else:
        bad["algorithms"][1]["name"] = f"svrg{char}x"
    with pytest.raises(ConfigError, match="comma"):
        load_config(bad)


def test_run_experiment_outputs(tmp_path):
    rows_info = run_experiment(toy_config(), tmp_path)
    assert (tmp_path / "runs.csv").exists()
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "manifest.json").exists()
    rows = read_runs_csv(tmp_path / "runs.csv")
    header = (tmp_path / "runs.csv").read_text().splitlines()[0]
    assert header == CSV_HEADER
    assert {r["algorithm"] for r in rows} == {"full", "svrg"}
    assert {r["seed"] for r in rows} == {0, 1}
    assert len(rows_info) == 4
    # epochs nondecreasing within each (algorithm, seed)
    series = {}
    for r in rows:
        series.setdefault((r["algorithm"], r["seed"]), []).append(r["epoch"])
    for eps in series.values():
        assert eps == sorted(eps)


def test_full_batch_residual_decreasing_on_toy(tmp_path):
    run_experiment(toy_config(), tmp_path)
    rows = [r for r in read_runs_csv(tmp_path / "runs.csv")
            if r["algorithm"] == "full" and r["seed"] == 0]
    rel = [r["rel_residual"] for r in rows if r["epoch"] >= 1.0]
    assert all(b < a for a, b in zip(rel, rel[1:]))


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(toy_config(), out1)
    run_experiment(toy_config(), out2)
    for name in ("runs.csv", "summary.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_wall_timing_mode(tmp_path):
    run_experiment(toy_config(timing="wall"), tmp_path)
    rows = read_runs_csv(tmp_path / "runs.csv")
    assert any(r["wall_ms"] > 0 for r in rows)


def test_epoch_times_n_equals_call_count(tmp_path):
    run_experiment(toy_config(), tmp_path)
    n = 12
    for r in read_runs_csv(tmp_path / "runs.csv"):
        calls = r["epoch"] * n
        assert abs(calls - round(calls)) < 1e-6


def test_manifest_echoes_config(tmp_path):
    run_experiment(toy_config(), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["experiment_id"] == "toy"
    assert manifest["problem"]["family"] == "affine-toy"
    assert len(manifest["cells"]) == 4
    for cell in manifest["cells"]:
        assert cell["eta"] > 0
        assert cell["oracle_calls"] >= 10 * 12


def test_manifest_records_every_default(tmp_path):
    cfg = {"experiment_id": "defaults", "problem": {"family": "affine-toy"},
           "algorithms": [{"estimator": "svrg"}], "run": {}}
    run_experiment(cfg, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["problem"] == {"family": "affine-toy"}
    assert manifest["run"] == {"epochs": 1.0, "record_every_epochs": 1.0,
                               "max_iters": 10_000_000, "seeds": [0]}
    assert isinstance(manifest["run"]["epochs"], float)
    assert isinstance(manifest["run"]["record_every_epochs"], float)
    assert manifest["algorithms"] == [{"name": "svrg", "estimator": "svrg",
                                       "params": "default:experiment",
                                       "eta": "theory"}]
    assert (manifest["fix_data"], manifest["timing"], manifest["x0"]) \
        == (False, "off", "zeros")


def test_fix_data_shares_the_dataset(tmp_path):
    cfg = toy_config(fix_data=True)
    run_experiment(cfg, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    by_alg = {}
    for cell in manifest["cells"]:
        by_alg.setdefault(cell["algorithm"], []).append(cell["lipschitz"])
    for values in by_alg.values():
        assert values[0] == values[1]


def test_summarize_single_seed_mean_is_series(tmp_path):
    cfg = toy_config()
    cfg["run"]["seeds"] = [0]
    run_experiment(cfg, tmp_path)
    agg = summarize(tmp_path)
    rows = read_runs_csv(tmp_path / "runs.csv")
    series = {(r["algorithm"], round(r["epoch"], 9)): r["rel_residual"]
              for r in rows}
    for alg, epoch, mean_log, lo, hi in agg:
        assert lo == pytest.approx(mean_log)
        assert hi == pytest.approx(mean_log)
        key = (alg, round(epoch, 9))
        if key in series and series[key] > 0:
            assert mean_log == pytest.approx(np.log10(series[key]), abs=1e-9)


def test_summarize_log_average_arithmetic():
    # two constant series 1e-2 and 1e-4 -> mean log10 = -3
    from vrfrbs.bench import _interp_log_series
    grid = np.array([0.0, 1.0, 2.0])
    a = _interp_log_series([0.0, 2.0], [1e-2, 1e-2], grid)
    b = _interp_log_series([0.0, 2.0], [1e-4, 1e-4], grid)
    assert np.allclose((a + b) / 2, -3.0)


def test_summarize_envelope_bounds_every_series(tmp_path):
    run_experiment(toy_config(), tmp_path)
    agg = summarize(tmp_path)
    rows = read_runs_csv(tmp_path / "runs.csv")
    for alg, epoch, mean_log, lo, hi in agg:
        assert lo <= mean_log <= hi
    # envelope brackets interpolated per-seed curves by construction;
    # spot-check against raw recordings at integer epochs
    for r in rows:
        if abs(r["epoch"] - round(r["epoch"])) < 1e-9 and r["rel_residual"] > 0:
            match = [(lo, hi) for alg, ep, _m, lo, hi in agg
                     if alg == r["algorithm"] and ep == round(r["epoch"])]
            if match:
                lo, hi = match[0]
                assert lo - 1e-9 <= np.log10(r["rel_residual"]) <= hi + 1e-9


def test_summarize_malformed_csv_reports_line(tmp_path):
    run_experiment(toy_config(), tmp_path)
    path = tmp_path / "runs.csv"
    lines = path.read_text().splitlines()
    lines.insert(3, "broken,row")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=":4:"):
        summarize(tmp_path)


# --- CLI --------------------------------------------------------------------

def test_cli_run_and_summarize(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(toy_config()))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert cli_main(["summarize", "--dir", str(out)]) == 0
    assert (out / "aggregate.csv").exists()


def test_cli_summarize_header_only_runs_csv(tmp_path, capsys):
    run_experiment(toy_config(), tmp_path)
    path = tmp_path / "runs.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")
    assert cli_main(["summarize", "--dir", str(tmp_path)]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "aggregate.csv").exists()


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(toy_config(bogus=True)))
    assert cli_main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2


def test_cli_divergence_exit_code(tmp_path):
    cfg = toy_config()
    cfg["algorithms"] = [{"name": "full", "estimator": "full",
                          "params": {}, "eta": 100.0}]
    cfg_path = tmp_path / "div.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 3


def test_diverged_cell_keeps_finished_cells(tmp_path):
    cfg = toy_config()
    cfg["algorithms"][1]["eta"] = 100.0
    cfg_path = tmp_path / "div.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
    rows = read_runs_csv(out / "runs.csv")
    assert {r["seed"] for r in rows if r["algorithm"] == "full"} == {0, 1}
    assert max(r["epoch"] for r in rows if r["algorithm"] == "full") >= 10.0
    assert (out / "summary.csv").read_text().count("\n") > 1
    manifest = json.loads((out / "manifest.json").read_text())
    for cell in manifest["cells"]:
        if cell["algorithm"] == "full":
            assert "diverged" not in cell
            continue
        mark = cell["diverged"]
        assert mark["iteration"] == cell["iterations"] + 1
        kept = [r for r in rows
                if r["algorithm"] == "svrg" and r["seed"] == cell["seed"]]
        assert mark["last_finite_iteration"] == kept[-1]["iter"]
        assert mark["last_finite_rel_residual"] == kept[-1]["rel_residual"]


def test_cli_verify_smoke(capsys):
    assert cli_main(["verify", "--estimator", "saga", "--trials", "4000"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines()]
    assert len(lines) == 2
    assert all(l.endswith("pass") for l in lines)


# both report lines of `vrfrbs verify --trials 2000` for every kind and
# seeds 0 and 1: name, trial count and outcome exactly, the four numbers
# within 1e-9 relative (approx compares infinities exactly)
VERIFY_PINS = {
    ("svrg", 0): (
        "unbiased/svrg, 2000, 0.011716418472834741, "
        "0.021246725714177146, 0, 0.55144583831177396, pass",
        "variance-recursion/svrg, 2000, 0.9025325582552115, "
        "0.016423520464375677, 44.523348299510097, -2655.9966747612348, pass",
    ),
    ("svrg", 1): (
        "unbiased/svrg, 2000, 0.019489816157628841, "
        "0.026581290351523536, 0, 0.7332155775692718, pass",
        "variance-recursion/svrg, 2000, 1.4128032814411009, "
        "0.028698605749127623, 80.347295321383044, -2750.4643511241443, pass",
    ),
    ("saga", 0): (
        "unbiased/saga, 2000, 0.044737368354985492, "
        "0.025769572672307152, 0, 1.7360539471832908, pass",
        "variance-recursion/saga, 2000, 1.329479112678257, "
        "0.023192732243611323, 104.58269854313484, -4451.9644492898742, pass",
    ),
    ("saga", 1): (
        "unbiased/saga, 2000, 0.016554442844701062, "
        "0.024073681422455865, 0, 0.68765730318500939, pass",
        "variance-recursion/saga, 2000, 1.1587787819004629, "
        "0.020500920474197094, 181.86079007692896, -8814.3364841819675, pass",
    ),
    ("sgd", 0): (
        "unbiased/sgd, 2000, 0.036432787054581486, "
        "0.078682431692371768, 0, 0.46303585528500679, pass",
        "variance-recursion/sgd, 2000, 12.376986536965003, "
        "0.15360148417265779, 13.898780699797438, -9.9074183496940851, pass",
    ),
    ("sgd", 1): (
        "unbiased/sgd, 2000, 0.056635100378108559, "
        "0.046790401652826184, 0, 1.2103999619051731, pass",
        "variance-recursion/sgd, 2000, 4.3797015665736252, "
        "0.053490816875751364, 7.8844881947197294, -65.521276975205552, pass",
    ),
    ("sarah", 0): (
        "bias-recursion/sarah, 2000, 0.028726371333157936, "
        "0.017083566499151562, 0, 1.6815207371706957, pass",
        "variance-recursion/sarah, 2000, 0.58422984482751261, "
        "0.020585292827833779, 8.9330122712346913, -405.5702532984435, pass",
    ),
    ("sarah", 1): (
        "bias-recursion/sarah, 2000, 0.011113434646593688, "
        "0.018920543451039253, 0, 0.5873739660465862, pass",
        "variance-recursion/sarah, 2000, 0.71573945043049392, "
        "0.02391658446364307, 15.35722648445349, -612.18971531157945, pass",
    ),
    ("hsgd", 0): (
        "bias-recursion/hsgd, 2000, 0.92486339498636116, "
        "0.047824905792963245, 0.92063398005499364, 0.33478689819963636, pass",
        "variance-recursion/hsgd, 2000, 5.4275283059832145, "
        "0.10266721404036971, 17.262298997014433, -115.27312591123467, pass",
    ),
    ("hsgd", 1): (
        "bias-recursion/hsgd, 2000, 1.2957996215377032, "
        "0.030034726354310193, 1.3190904645431785, 0.99539558571615006, pass",
        "variance-recursion/hsgd, 2000, 3.482364148746675, "
        "0.05171356129779528, 21.494165677436875, -348.29938369489361, pass",
    ),
    ("hsvrg", 0): (
        "bias-recursion/hsvrg, 2000, 0.24503920735138979, "
        "0.027401622037866731, 0.25825443799949077, 0.92348419010585947, pass",
        "variance-recursion/hsvrg, 2000, 1.5609911448612952, "
        "0.02863549835327189, 202.32807952331382, -7011.1260471746909, pass",
    ),
    ("hsvrg", 1): (
        "bias-recursion/hsvrg, 2000, 0.75380469297758501, "
        "0.026809442722720768, 0.76211882813413723, 0.34811344758426388, pass",
        "variance-recursion/hsvrg, 2000, 2.0049952071416128, "
        "0.031603815959362111, 372.40892855830447, -11720.22814673545, pass",
    ),
    ("full", 0): (
        "unbiased/full, 2000, 0, "
        "0, 0, 0, pass",
        "variance-recursion/full, 2000, 0, "
        "0, 0, -inf, pass",
    ),
    ("full", 1): (
        "unbiased/full, 2000, 0, "
        "0, 0, 0, pass",
        "variance-recursion/full, 2000, 0, "
        "0, 0, -inf, pass",
    ),
}


def _verify_fields(line, wrap=float):
    name, trials, *numbers, outcome = line.split(", ")
    return name, int(trials), [wrap(float(v)) for v in numbers], outcome


@pytest.mark.parametrize("kind, seed", list(VERIFY_PINS))
def test_cli_verify_lines_pinned(kind, seed, capsys):
    code = cli_main(["verify", "--estimator", kind, "--trials", "2000",
                     "--seed", str(seed)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [_verify_fields(l) for l in lines] == [
        _verify_fields(l, lambda v: pytest.approx(v, rel=1e-9, abs=0))
        for l in VERIFY_PINS[kind, seed]]


@pytest.mark.parametrize("args", [["--trials", "0"], ["--trials", "-5"],
                                  ["--trials", "1"], ["--seed", "-1"]])
def test_cli_verify_rejects_empty_trials_and_negative_seed(args, capsys):
    for kind in ("svrg", "sarah"):
        assert cli_main(["verify", "--estimator", kind] + args) == 2
    assert "pass" not in capsys.readouterr().out


def test_cli_run_tiny_record_cadence_terminates(tmp_path):
    """A cadence below the float spacing of the call count records once
    per iteration instead of hanging."""
    cfg = {"experiment_id": "cadence",
           "problem": {"family": "affine-toy", "dim": 3, "components": 10},
           "algorithms": [{"estimator": "full"}],
           "run": {"epochs": 4, "record_every_epochs": 1e-300}}
    cfg_path = tmp_path / "cadence.json"
    cfg_path.write_text(json.dumps(cfg))
    env = dict(os.environ,
               PYTHONPATH=str(Path(vrfrbs.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "vrfrbs.cli", "run", "--config", str(cfg_path),
         "--out", str(tmp_path / "o")], env=env, timeout=120)
    assert proc.returncode == 0
    iters = [r["iter"] for r in read_runs_csv(tmp_path / "o" / "runs.csv")]
    assert iters == list(range(len(iters))) and len(iters) > 2


def test_cli_subcommands_are_the_documented_three():
    parser = cli.build_parser()
    sub, = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == ["run", "summarize", "verify"]
    block = cli.__doc__.split("Subcommands:\n")[1].split("\n\n")[0]
    assert sorted(line.split()[0] for line in block.splitlines()) \
        == sorted(sub.choices)
    with pytest.raises(SystemExit) as exc:
        cli_main(["gen-data", "--family", "auc", "--out", "auc.txt"])
    assert exc.value.code == 2


_IMPORT_GUARD = """
import sys
import numpy
baseline = set(sys.modules)
import vrfrbs, vrfrbs.bench, vrfrbs.cli, vrfrbs.verification
loaded = {name.partition(".")[0] for name in set(sys.modules) - baseline}
print(sorted(loaded - set(sys.stdlib_module_names) - {"vrfrbs"}))
"""


def test_package_imports_nothing_beyond_numpy_and_the_stdlib():
    """numpy is the one runtime dependency: with numpy (and whatever it
    loads) imported first, the package and its entry points load only
    standard-library modules, so an installed but undeclared package such
    as scipy cannot slip in."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(vrfrbs.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_manifest_nominal_cost_for_svrg(tmp_path):
    run_experiment(toy_config(), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    svrg_cells = [c for c in manifest["cells"] if c["estimator"] == "svrg"]
    assert svrg_cells
    for cell in svrg_cells:
        # n p + 2 (1-p) b with n=12, p=0.4, b=6
        assert cell["nominal_cost_per_iter"] == pytest.approx(
            12 * 0.4 + 2 * 0.6 * 6)


_MALFORMED = st.one_of(st.floats(-2.0, 50.0), st.booleans(),
                       st.text("01tf.", max_size=4))
_KIND_PARAMS = {"svrg": {"p_switch": 0.5}, "sarah": {"p_switch": 0.5},
                "hsgd": {"omega": 0.5},
                "hsvrg": {"p_switch": 0.5, "omega": 0.5}}


@st.composite
def small_toy_configs(draw):
    """Affine-toy configs (dim <= 6, <= 40 components, <= 3 epochs) in which
    at most one field holds a malformed scalar."""
    bad = draw(st.sampled_from([None, "b", "mega_batch", "share_batches",
                                "fix_data", "seeds", "seeds[0]", "dim",
                                "components", "seed", "mu", "p_switch",
                                "omega"]))

    def value(field, good):
        return draw(_MALFORMED if field == bad else good)

    n = draw(st.integers(1, 40))
    algorithms = []
    for i, kind in enumerate(draw(st.lists(st.sampled_from(KINDS),
                                           min_size=1, max_size=2))):
        params = dict(_KIND_PARAMS.get(kind, {}))
        for key in ("p_switch", "omega"):
            if key in params:
                params[key] = value(key, st.just(0.5))
        if kind not in ("full", "sgd") and \
                (bad == "b" or draw(st.booleans())):
            params["b"] = value("b", st.integers(1, n))
        if kind in ("svrg", "sarah", "hsgd", "hsvrg") and \
                (bad == "mega_batch" or draw(st.booleans())):
            params["mega_batch"] = value("mega_batch", st.integers(1, 2 * n))
        if kind in ("hsgd", "hsvrg"):
            params["share_batches"] = value("share_batches", st.booleans())
        algorithms.append({
            "name": f"a{i}", "estimator": kind, "params": params,
            "eta": draw(st.sampled_from(["theory", "1/2L", "1/8L", 100.0]))})
    if bad == "seeds[0]":
        seeds = [draw(_MALFORMED)]
    else:
        seeds = value("seeds", st.lists(st.integers(0, 3), min_size=1,
                                        max_size=2, unique=True))
    return {
        "experiment_id": "prop",
        "problem": {"family": "affine-toy",
                    "dim": value("dim", st.integers(1, 6)),
                    "components": value("components", st.just(n)),
                    "seed": value("seed", st.integers(0, 3)),
                    "mu": value("mu", st.floats(0.5, 2.0))},
        "algorithms": algorithms,
        "fix_data": value("fix_data", st.booleans()),
        "run": {"epochs": draw(st.floats(1.0, 3.0)),
                "record_every_epochs": draw(st.floats(0.5, 3.0)),
                "seeds": seeds},
    }


def _load_strict_json(path):
    """json.loads that refuses the non-standard tokens NaN, Infinity and
    -Infinity."""
    def refuse(token):
        raise ValueError(f"{path} holds the non-standard JSON token {token}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


@settings(max_examples=30, deadline=5000)
@given(small_toy_configs())
def test_cli_run_exit_codes_property(config):
    """Every small config runs (0), is rejected as a config error (2) or
    diverges (3); nothing else escapes, and every manifest written is
    strict JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = cli_main(["run", "--config", str(cfg_path),
                         "--out", str(Path(tmp) / "out")])
        manifest = Path(tmp) / "out" / "manifest.json"
        if manifest.exists():
            _load_strict_json(manifest)
    assert code in (0, 2, 3)


def test_manifest_writes_non_finite_floats_as_strings(tmp_path):
    """An infinite condition side (hsvrg's Theta where b p^2 underflows)
    and an echoed "radius": Infinity are written as the string "inf", so
    the manifest is strict JSON."""
    cfg = toy_config(algorithms=[
        {"name": "h", "estimator": "hsvrg",
         "params": {"b": 1, "p_switch": 8.0e-266, "omega": 0.5},
         "eta": "1/5L"}])
    cfg["problem"]["components"] = 1
    cfg["run"].update(epochs=2, seeds=[0])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "toy")]) == 0
    cell, = _load_strict_json(tmp_path / "toy" / "manifest.json")["cells"]
    assert [c["rhs"] for c in cell["conditions"]][1] == "inf"

    auc = toy_config(problem={"family": "auc", "n": 40, "d": 3,
                              "radius": math.inf, "seed": 1})
    auc["run"].update(epochs=1, seeds=[0])
    run_experiment(auc, tmp_path / "auc")
    manifest = _load_strict_json(tmp_path / "auc" / "manifest.json")
    assert manifest["problem"]["radius"] == "inf"


def test_manifest_records_numeric_env(tmp_path, monkeypatch):
    """The manifest names what its bytes depend on: the Python and numpy
    versions, the BLAS, every *_NUM_THREADS variable and the CPU count."""
    monkeypatch.setenv("VRFRBS_TEST_NUM_THREADS", "3")
    cfg = toy_config()
    cfg["run"].update(epochs=1, seeds=[0])
    run_experiment(cfg, tmp_path)
    env = _load_strict_json(tmp_path / "manifest.json")["numeric_env"]
    assert env == bench.numeric_env()
    assert env["numpy"] == np.__version__
    assert env["num_threads"]["VRFRBS_TEST_NUM_THREADS"] == "3"
    assert sorted(env["blas"]) == ["name", "version"] and env["nproc"] >= 1


def test_cli_mega_batch_above_n_exits_before_any_cell(tmp_path, capsys,
                                                      monkeypatch):
    """A mega batch larger than the finite sum is exit 2 naming the field
    when the config is read: no cell runs and no output directory is made."""
    cells = []
    monkeypatch.setattr(bench, "_run_cell", lambda *args: cells.append(args))
    cfg = toy_config()
    cfg["algorithms"][1]["params"]["mega_batch"] = 10 ** 12
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert cells == [] and not out.exists()
    assert ("config error: algorithms[1] ('svrg') params.mega_batch = "
            "1000000000000 must be <= n = 12; use 'exact'") \
        in capsys.readouterr().err


_RANGE_VIOLATIONS = {
    "b-zero": ("b", "svrg", {"b": 0, "p_switch": 0.5}, 12),
    "b-above-n": ("b", "saga", {"b": 13}, 12),
    "p_switch-zero": ("p_switch", "svrg", {"b": 2, "p_switch": 0.0}, 12),
    "p_switch-above-1": ("p_switch", "sarah", {"b": 2, "p_switch": 1.5}, 12),
    "omega-zero": ("omega", "hsgd", {"b": 2, "omega": 0.0}, 12),
    "omega-above-1": ("omega", "hsvrg",
                      {"b": 2, "p_switch": 0.5, "omega": 1.5}, 12),
    "mega_batch-zero": ("mega_batch", "svrg",
                        {"b": 2, "p_switch": 0.5, "mega_batch": 0}, 12),
    "mega_batch-above-n": ("mega_batch", "hsgd",
                           {"b": 2, "omega": 0.5, "mega_batch": 13}, 12),
}


@pytest.mark.parametrize("field,kind,params,n", _RANGE_VIOLATIONS.values(),
                         ids=list(_RANGE_VIOLATIONS))
def test_one_params_check_serves_load_config_and_make_estimator(field, kind,
                                                                params, n):
    alg = {"estimator": kind, "params": params}
    cfg = toy_config(algorithms=[alg])
    cfg["problem"]["components"] = n
    with pytest.raises(ConfigError, match=rf"params\.{field} "):
        load_config(cfg)
    problem = bench.build_problem(cfg["problem"], 0, False)
    with pytest.raises(ValueError) as raised:
        vrfrbs.make_estimator(kind, bench.resolve_params(alg, n), problem,
                              np.zeros(problem.dim), seed=0)
    assert str(raised.value).startswith(f"{field} = ")
