"""The experiment scripts build their matrices from scripts/configs."""

import importlib.util
import json
from pathlib import Path

import pytest

from vrfrbs.bench import load_config

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def build_config(script):
    spec = importlib.util.spec_from_file_location(script, SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_config


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
