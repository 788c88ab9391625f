"""Checks of how a run turns its passes into end-to-end metrics.

    python3 -m pytest perfbench/tests -q
"""

import pytest

from perfbench import run, workloads


def test_end_to_end_scales_each_pass_by_its_host_speed():
    passes = []
    # the same work met three host speeds: every scaled time is 1 s
    for wall, speed in ((2.0, 0.5), (1.0, 1.0), (4.0, 0.25)):
        result = workloads.PassResult(
            wall, {kind: 10 * wall for kind in workloads.KINDS}, 100, {})
        result.speed = speed
        result.setup_s = [wall / 10, wall / 5]
        passes.append(result)
    out = run.end_to_end(passes, failed=1, attempted=4)
    assert out["run_s"] == (pytest.approx(1.0), 3)
    assert out["setup_s"][1] == 6
    assert out["setup_s"][0] == pytest.approx(0.15)
    assert out["steps_per_s"] == (pytest.approx(100.0), 3)
    assert out["ms_per_epoch.sgd"] == (pytest.approx(10.0), 3)
    assert out["ok_share"] == (0.75, 4)
