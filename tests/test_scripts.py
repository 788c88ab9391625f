"""The experiment scripts build their matrices from scripts/configs, and
compare_runs.py grades the difference between two runs."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from vrfrbs.bench import load_config, run_experiment

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load_script(script):
    spec = importlib.util.spec_from_file_location(script, SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_config(script):
    return _load_script(script).build_config


@pytest.mark.parametrize("script,desk,args,sizes", [
    ("auc_experiment.py", "auc_desk.json", (50_000, 250, 30, [0]),
     {"n": 50_000, "d": 250}),
    ("policy_eval_experiment.py", "policy_eval_desk.json",
     (1000, 20, 20_000, 201, 300, [0, 1]),
     {"states": 1000, "actions": 20, "transitions": 20_000, "features": 201}),
])
def test_script_matrix_is_the_desk_config(script, desk, args, sizes):
    config = build_config(script)(*args)
    desk_config = json.loads((SCRIPTS / "configs" / desk).read_text())
    load_config(config)
    assert config["algorithms"] == desk_config["algorithms"]
    assert config["problem"] == {**desk_config["problem"], **sizes}
    epochs, seeds = args[-2:]
    assert config["run"] == {"epochs": epochs,
                             "record_every_epochs": max(1.0, epochs / 200),
                             "seeds": seeds}


# --- compare_runs.py ---------------------------------------------------------

@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy-run")
    run_experiment({
        "experiment_id": "compare",
        "problem": {"family": "affine-toy", "dim": 4, "components": 30,
                    "seed": 5},
        "algorithms": [{"name": kind, "estimator": kind,
                        "params": {"b": 4, "p_switch": 0.3}, "eta": "1/8L"}
                       for kind in ("svrg", "sarah")],
        "run": {"epochs": 3, "record_every_epochs": 1.0, "seeds": [0, 1]},
    }, out)
    return out


def _edit_last_row(run_dir, column, edit):
    """Copy of a run whose last runs.csv row has `column` replaced by
    edit(old value)."""
    path = run_dir / "runs.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[-1].split(",")
    i = header.index(column)
    fields[i] = edit(fields[i])
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("edit, status", [
    (None, 0),
    (("rel_residual", lambda v: format(float(v) * (1 + 1e-12), ".17g")), 1),
    (("rel_residual", lambda v: format(float(v) * (1 + 1e-6), ".17g")), 2),
    (("iter", lambda v: str(int(v) + 1)), 2),
], ids=["same", "rounding", "beyond", "iterations"])
def test_compare_runs_exit_status(toy_run, tmp_path, edit, status, capsys):
    other = tmp_path / "other"
    shutil.copytree(toy_run, other)
    if edit is not None:
        _edit_last_row(other, *edit)
    compare = _load_script("compare_runs.py")
    assert compare.main([str(toy_run), str(other)]) == status
    report = capsys.readouterr().out
    assert report.count("identical bytes") == (3 if status == 0 else 2)



def test_compare_runs_reports_absolute_change(toy_run, tmp_path, capsys):
    other = tmp_path / "other"
    shutil.copytree(toy_run, other)
    values = []

    def edit(v):
        values.extend([float(v), float(format(float(v) * (1 + 1e-6), ".17g"))])
        return format(values[1], ".17g")

    _edit_last_row(other, "rel_residual", edit)
    compare = _load_script("compare_runs.py")
    assert compare.main([str(toy_run), str(other)]) == 2
    old, new = values
    line = (f"  rel_residual: {abs(new - old) / max(old, new):.3g} relative, "
            f"{abs(new - old):.3g} absolute")
    assert line in capsys.readouterr().out.splitlines()


def test_compare_runs_reads_non_finite_strings_as_floats(toy_run, tmp_path,
                                                        capsys):
    """A manifest float written as "inf" (bench's encoding of a non-finite
    float) is compared as a float: against a finite value it is an infinite
    relative change, not a structural difference; against "inf" it is no
    change."""
    runs = [tmp_path / "inf", tmp_path / "finite", tmp_path / "inf2"]
    for run, rhs in zip(runs, ("inf", 2.5, "inf")):
        shutil.copytree(toy_run, run)
        path = run / "manifest.json"
        doc = json.loads(path.read_text())
        doc["cells"][0]["conditions"][1]["rhs"] = rhs
        path.write_text(json.dumps(doc))
    compare = _load_script("compare_runs.py")
    assert compare.main([str(runs[0]), str(runs[1])]) == 2
    report = capsys.readouterr().out
    assert "structural" not in report
    assert "  cells[].conditions[].rhs: inf relative, inf absolute" \
        in report.splitlines()
    assert compare.compare_json(runs[0] / "manifest.json",
                                runs[2] / "manifest.json") \
        == compare.compare_json(toy_run / "manifest.json",
                                toy_run / "manifest.json")


def _edit_numeric_env(run_dir, edit):
    path = run_dir / "manifest.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("csv_edit, status", [(None, 0), (
    ("rel_residual", lambda v: format(float(v) * (1 + 1e-12), ".17g")), 1)],
    ids=["env-only", "env-and-rounding"])
def test_compare_runs_reports_numeric_env_apart(toy_run, tmp_path, capsys,
                                                csv_edit, status):
    """A numeric_env difference is reported entry by entry and never sets
    the exit status: manifests that differ only there count as identical."""
    other = tmp_path / "other"
    shutil.copytree(toy_run, other)

    def edit(doc):
        doc["numeric_env"]["num_threads"]["OPENBLAS_NUM_THREADS"] = "7"
        doc["numeric_env"]["nproc"] = -1

    _edit_numeric_env(other, edit)
    if csv_edit is not None:
        _edit_last_row(other, *csv_edit)
    compare = _load_script("compare_runs.py")
    assert compare.main([str(toy_run), str(other)]) == status
    report = capsys.readouterr().out.splitlines()
    env = json.loads((toy_run / "manifest.json").read_text())["numeric_env"]
    assert "manifest.json: numeric_env differs, nproc: " \
        f"{env['nproc']!r} != -1" in report
    assert "manifest.json: numeric_env differs, " \
        "num_threads.OPENBLAS_NUM_THREADS: " \
        f"{env['num_threads'].get('OPENBLAS_NUM_THREADS')!r} != '7'" in report
    assert "manifest.json: identical apart from numeric_env" in report


def test_compare_runs_names_a_missing_numeric_env(toy_run, tmp_path, capsys):
    """A manifest written before numeric_env was recorded compares by its
    numbers alone."""
    other = tmp_path / "other"
    shutil.copytree(toy_run, other)
    _edit_numeric_env(other, lambda doc: doc.pop("numeric_env"))
    compare = _load_script("compare_runs.py")
    assert compare.main([str(toy_run), str(other)]) == 0
    assert "manifest.json: numeric_env differs, absent in B" \
        in capsys.readouterr().out.splitlines()


# --- cell_ab.py --------------------------------------------------------------

def test_cell_ab_times_one_tree_against_itself(tmp_path, capsys):
    """Smoke test: the same tree on both sides of a tiny affine-toy config
    prints one row per cell with equal outputs, and the sum of the cells."""
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({
        "experiment_id": "ab",
        "problem": {"family": "affine-toy", "dim": 4, "components": 30,
                    "seed": 5},
        "algorithms": [{"name": kind, "estimator": kind,
                        "params": {"b": 4, "p_switch": 0.3}, "eta": "1/8L"}
                       for kind in ("svrg", "sarah")],
    }))
    tree = str(SCRIPTS.parent)
    cell_ab = _load_script("cell_ab.py")
    assert cell_ab.main([tree, tree, "--config", str(config),
                         "--epochs", "3", "--reps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["cell", "A", "ms", "B", "ms", "B/A", "same",
                                "outputs"]
    assert [line.split()[0] for line in lines[1:]] == ["svrg", "sarah", "sum"]
    for line in lines[1:3]:
        _, a_ms, b_ms, ratio, same = line.split()
        assert float(a_ms) > 0 and float(b_ms) > 0 and float(ratio) > 0
        assert same == "yes"


# --- reference_outputs.py ----------------------------------------------------

def test_reference_outputs_rerun_byte_identical(tmp_path, monkeypatch):
    reference = _load_script("reference_outputs.py")
    monkeypatch.setattr(reference, "DESK_EPOCHS",
                        {"policy_eval_desk": 3, "auc_desk": 2,
                         "affine_matrix": 2})
    monkeypatch.setattr(reference, "VERIFY_TRIALS", 2_000)
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert reference.main([str(out)]) == 0
    files = sorted(p.relative_to(runs[0]) for p in runs[0].rglob("*")
                   if p.is_file())
    # verify.txt, numeric_env.json and three files per matrix config
    assert len(files) == 11
    for rel in files:
        assert (runs[0] / rel).read_bytes() == (runs[1] / rel).read_bytes()
    lines = (runs[0] / "verify.txt").read_text().splitlines()
    # 7 kinds x 2 seeds: one line naming each run, then its two reports
    assert len([l for l in lines if l.startswith("vrfrbs verify ")]) == 14
    reports = [l for l in lines if not l.startswith("vrfrbs verify ")]
    assert len(reports) == 28
    assert all(l.split(", ")[1] == "2000" for l in reports)
    env = json.loads((runs[0] / "numeric_env.json").read_text())
    assert sorted(env) == ["blas", "nproc", "num_threads", "numpy", "python"]
    assert sorted(env["blas"]) == ["name", "version"]
    manifest = json.loads(
        (runs[0] / "policy_eval_desk" / "manifest.json").read_text())
    assert manifest["numeric_env"] == env
