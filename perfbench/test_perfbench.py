"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench``.

They prove that the correctness checks can fail (a wrong reference is
reported as a failed unit), that self times are computed as documented,
and that the script refuses to run without the library source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.ir.interp import ExitKind  # noqa: E402
from repro.pipeline import Scheme  # noqa: E402

MCF_POINT = ("mcf", Scheme.NOED, 1, 0)


class OnePoint(workloads.GridCold):
    """grid-cold cut down to a single cheap point."""

    def plan(self, seed: int, rnd: int) -> list[tuple]:
        return [MCF_POINT]


def run_one_point(checks: workloads.Checks) -> list[dict]:
    return run.run_rounds(OnePoint(), 1, 1, tracing.NullRecorder(), checks, None,
                          hostspeed.HostSpeed())


def test_correct_reference_passes():
    units = run_one_point(workloads.Checks())
    assert [u["failure"] for u in units] == [None]
    assert units[0]["items"] == 1 and units[0]["seconds"] > 0


def test_wrong_reference_is_a_failed_unit():
    wrong = {"mcf": (ExitKind.OK, 99, ())}
    units = run_one_point(workloads.Checks(references=wrong))
    assert len(units) == 1
    assert "exit code" in units[0]["failure"]


def test_wrong_campaign_oracle_is_a_failed_unit(monkeypatch):
    wl = workloads.InjectCampaigns("inject-sdc", Scheme.NOED, nominal_round_s=1.0)
    spec = ("mcf", 7)
    items, campaign = wl.run(spec, None, tracing.NullRecorder().span)
    assert items == workloads.INJECT_TRIALS
    real = workloads.oracle.interp_campaign

    def off_by_one(*args):
        summary = real(*args)
        return {**summary, "faults": summary["faults"] + 1}

    checks = workloads.Checks()
    assert wl.check(spec, None, campaign, checks, deep=True)[0] is None
    monkeypatch.setattr(workloads.oracle, "interp_campaign", off_by_one)
    failure, _ = wl.check(spec, None, campaign, checks, deep=True)
    assert "interp backend" in failure


def test_diverging_sim_stats_for_one_fingerprint_fail():
    sims = workloads.oracle.SimRecords()
    assert sims.note("fp", "a", 10, 1, 5) is None
    assert sims.note("fp", "b", 10, 1, 5) is None
    assert "sim stats" in sims.note("fp", "c", 11, 1, 5)


def iv(layer: str, start: float, end: float, pid: int = 0) -> tracing.Interval:
    return tracing.Interval(layer, start, end, pid)


def test_self_times_subtract_nested_intervals_per_process():
    intervals = [
        iv("harness", 0, 10),
        iv("passes", 1, 4),
        iv("passes", 1.5, 3.5),  # a telemetry span inside the benchmark span
        iv("eval", 5, 9),
        iv("sim", 6, 8),
        iv("eval", 0, 3, pid=7),  # a worker: its own timeline
        iv("faults", 1, 2, pid=7),
    ]
    selfs = tracing.self_times(intervals)
    assert selfs == pytest.approx(
        {"harness": 3, "passes": 3, "eval": 2 + 2, "sim": 2, "faults": 1}
    )
    assert tracing.blocking_self_times(intervals) == pytest.approx(
        {"harness": 3, "passes": 3, "eval": 2, "sim": 2}
    )
    assert [i.seconds for i in tracing.outermost(intervals, "passes")] == [3]


def test_pool_wait_spans_the_worker_tasks_inside_the_client_call():
    client = [iv("eval", 0, 10)]
    workers = [iv("eval", 2, 5, pid=7), iv("eval", 3, 8, pid=8), iv("eval", 11, 12, pid=7)]
    (wait,) = tracing.pool_wait_intervals(client, workers)
    assert (wait.layer, wait.start, wait.end) == ("parallel", 2, 8)


def test_cost_table_shares_and_bases():
    rows = tracing.cost_table(
        trials={"benign": 10, "detected": 30, "timeout": 1},
        sample_n={"benign": 2, "detected": 4},
        mean_ms={"benign": 3.0, "detected": 1.0},
    )
    by = {r["outcome"]: r for r in rows}
    assert by["benign"]["time_share"] == pytest.approx(0.5)
    assert by["detected"]["time_share"] == pytest.approx(0.5)
    assert by["timeout"]["unsampled"] and not by["benign"]["unsampled"]
    assert by["detected"]["campaign_trials"] == 30 and by["detected"]["sampled_trials"] == 4


def test_host_speed_scale_is_the_median_kernel_time_against_the_reference():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_KERNEL_S
    speed.samples = [2 * ref, 2 * ref, 10 * ref]  # one contended outlier
    assert speed.scale == pytest.approx(0.5)


def test_rounds_depend_only_on_seconds():
    assert run.rounds_for(15, 5.0) == 3
    assert run.rounds_for(1, 13.5) == 1


def test_grid_plan_is_seeded_and_never_repeats_within_four_rounds():
    wl = workloads.GridCold()
    assert wl.plan(3, 0) == wl.plan(3, 0)
    assert wl.plan(3, 0) != wl.plan(4, 0)
    seen = [p for rnd in range(4) for p in wl.plan(3, rnd)]
    assert len(seen) == len(set(seen)) == 4 * 28


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
    assert "not found" in out.stderr


def test_benchmark_json_names_every_metric_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s", "items_per_s", "unit_p50_ms", "peak_rss_mb"}
    metrics, _ = tracing.layer_metrics(
        intervals=[], events=[], snapshot={}, frontend_s=0.0, client_profile_s=0.0,
        unit_wall_s=1.0, pool_jobs=1, worker_peak_rss_mb=0.0, outcome_ms={},
    )
    names = set(metrics) | {"trace.overhead_s", "trace.overhead_ratio"}
    assert names == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in metrics.items())
