"""Smoke test of the ladder: its smallest rung, timed in a process of its own."""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import ladder  # noqa: E402


def test_smallest_rung_runs_in_under_two_seconds(capsys):
    start = time.perf_counter()
    assert ladder.main(["--rungs", "execute-8-1024", "--repeats", "3"]) == 0
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(report) == {"environment", "commits", "repeats", "rungs"}
    assert {"python", "numpy", "nproc"} <= set(report["environment"])
    rung = report["rungs"]["execute-8-1024"]["head"]
    assert rung["repeats"] == 3 and rung["median_s"] > 0 and rung["iqr_s"] >= 0
    assert rung["peak_rss_mb"] > 0
    # the split names the construction's functions; each connection of the
    # rung's three rounds is counted
    split = rung["split"]
    assert {"planner.plan", "construct._elongation", "construct._connections",
            "construct._family"} <= set(split)
    assert split["planner.plan"]["calls"] == 1 and split["construct._connections"]["calls"] == 3
    assert all(s["self_s"] >= 0 for s in split.values())
    assert elapsed < 2.0
