#!/usr/bin/env python3
"""Write the outputs that show whether two versions of the program give the
same numbers.

    PYTHONPATH=<checkout>/src \\
        python <checkout>/scripts/reference_outputs.py OUT

vrfrbs is imported from the import path, so PYTHONPATH chooses the program
whose outputs are written; run the same checkout's copy of this script,
which takes numeric_env from its vrfrbs.bench.  OUT then holds

    policy_eval_desk/  scripts/configs/policy_eval_desk.json at
                       DESK_EPOCHS["policy_eval_desk"] epochs
    auc_desk/          scripts/configs/auc_desk.json at DESK_EPOCHS["auc_desk"]
                       epochs
    affine_matrix/     scripts/configs/affine_matrix.json at
                       DESK_EPOCHS["affine_matrix"] epochs: every estimator
                       kind on a 4000-component affine toy, where sgd's
                       schedule and the default:theory svrg cell (b = n)
                       take RowOperator's dense path (m >= n // 4)
    verify.txt         `vrfrbs verify` for every estimator kind at each of
                       VERIFY_SEEDS and VERIFY_TRIALS trials: per run, one
                       line naming it and its exit code, then its report
                       lines
    numeric_env.json   what byte identity depends on (`bench.numeric_env`,
                       which every manifest.json also records): the Python
                       and numpy versions, the BLAS name and version from
                       numpy's build config, every *_NUM_THREADS variable
                       and the number of usable CPUs (nproc)

The three matrix runs use seeds DESK_SEEDS and "timing": "off", so a
rerun with the same numpy, BLAS and thread count writes the same bytes.
Compare two such directories A and B with

    python scripts/compare_runs.py A/policy_eval_desk B/policy_eval_desk
    python scripts/compare_runs.py A/auc_desk B/auc_desk
    python scripts/compare_runs.py A/affine_matrix B/affine_matrix
    cmp A/verify.txt B/verify.txt
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import vrfrbs
from vrfrbs.bench import numeric_env, run_experiment
from vrfrbs.cli import main as cli_main
from vrfrbs.estimators import KINDS

CONFIGS = Path(__file__).resolve().parent / "configs"
DESK_EPOCHS = {"policy_eval_desk": 300, "auc_desk": 100, "affine_matrix": 20}
DESK_SEEDS = [0, 1]
VERIFY_SEEDS = (0, 1)
VERIFY_TRIALS = 100_000


def write_desk_runs(out: Path) -> None:
    for name, epochs in DESK_EPOCHS.items():
        config = json.loads((CONFIGS / f"{name}.json").read_text())
        config["timing"] = "off"
        config["run"].update(epochs=epochs, seeds=DESK_SEEDS)
        run_experiment(config, out / name)


def write_verify_lines(path: Path) -> None:
    with open(path, "w", newline="\n") as fh:
        for kind in KINDS:
            for seed in VERIFY_SEEDS:
                args = ["verify", "--estimator", kind, "--seed", str(seed),
                        "--trials", str(VERIFY_TRIALS)]
                report = io.StringIO()
                with contextlib.redirect_stdout(report):
                    code = cli_main(args)
                fh.write(f"vrfrbs {' '.join(args)}: exit {code}\n"
                         + report.getvalue())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    print(f"vrfrbs from {Path(vrfrbs.__file__).parent}")
    write_desk_runs(out)
    write_verify_lines(out / "verify.txt")
    (out / "numeric_env.json").write_text(
        json.dumps(numeric_env(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {', '.join(DESK_EPOCHS)}, verify.txt and numeric_env.json "
          f"to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
