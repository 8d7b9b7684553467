"""The parallel evaluation engine: sharded campaigns, concurrent sweeps.

The load-bearing property throughout is the determinism contract: for a
given seed, outcome counts / records / cache files are identical whether
the work runs serially or fanned out over a process pool.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.eval.experiment import Evaluator
import repro.faults.injector as injector_mod
from repro.faults.injector import CampaignResult, FaultInjector
from repro.machine.config import MachineConfig
from repro.obs.progress import ProgressEvent, ProgressTracker
from repro.parallel import (
    SHARD_TRIALS,
    TASKS_PER_WORKER,
    effective_cores,
    parallel_map,
    plan_shards,
    resolve_jobs,
)
from repro.pipeline import Scheme, compile_program
from repro.workloads import get_workload
from tests.conftest import build_loop_program


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1

    def test_zero_means_all_effective_cores(self):
        assert resolve_jobs(0) == effective_cores()

    def test_none_defaults_to_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs(None) == effective_cores()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestEffectiveCores:
    def test_positive_and_bounded_by_cpu_count(self):
        n = effective_cores()
        assert 1 <= n <= (os.cpu_count() or 1)

    def test_honours_scheduler_affinity(self):
        if not hasattr(os, "sched_getaffinity"):  # pragma: no cover
            pytest.skip("no scheduler affinity on this platform")
        assert effective_cores() <= len(os.sched_getaffinity(0))

    def test_resolve_jobs_zero_uses_it(self, monkeypatch):
        import repro.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod, "effective_cores", lambda: 3)
        assert parallel_mod.resolve_jobs(0) == 3

    def test_cgroup_quota_rounds_up(self, monkeypatch):
        import repro.parallel as parallel_mod

        monkeypatch.setattr(
            parallel_mod, "_cgroup_cpu_quota", lambda: None
        )
        assert parallel_mod.effective_cores() >= 1


class TestPlanShards:
    def test_exact_multiple(self):
        assert plan_shards(50, 25) == [25, 25]

    def test_remainder(self):
        assert plan_shards(60, 25) == [25, 25, 10]

    def test_small_and_empty(self):
        assert plan_shards(7, 25) == [7]
        assert plan_shards(0, 25) == []

    def test_plan_independent_of_jobs(self):
        # the whole contract: the decomposition is a function of the trial
        # count alone
        assert sum(plan_shards(313)) == 313

    def test_invalid(self):
        with pytest.raises(ValueError):
            plan_shards(-1)
        with pytest.raises(ValueError):
            plan_shards(10, 0)


def _double(x):
    return x * 2


def _fail_on_three(x):
    if x == 3:
        raise RuntimeError("boom")
    return x


class TestParallelMap:
    def test_inline_preserves_order(self):
        assert parallel_map(_double, [1, 2, 3], jobs=1) == [2, 4, 6]

    def test_pool_preserves_order(self):
        assert parallel_map(_double, list(range(8)), jobs=2) == [
            0, 2, 4, 6, 8, 10, 12, 14,
        ]

    def test_on_result_fires_per_task(self):
        seen = []
        parallel_map(_double, [1, 2, 3], jobs=2, on_result=lambda i, r: seen.append((i, r)))
        assert sorted(seen) == [(0, 2), (1, 4), (2, 6)]

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(_fail_on_three, [1, 2, 3, 4], jobs=2)


@pytest.fixture(scope="module")
def loop_injector_pair():
    """Injectors over two different binaries (for determinism + merge tests)."""
    machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
    small = compile_program(build_loop_program(8), Scheme.NOED, machine)
    sced = compile_program(build_loop_program(8), Scheme.SCED, machine)
    return (
        FaultInjector(small.program, mem_words=small.mem_words,
                      frame_words=small.frame_words),
        FaultInjector(sced.program, mem_words=sced.mem_words,
                      frame_words=sced.frame_words),
    )


class TestCampaignDeterminism:
    def test_jobs_do_not_change_outcomes_loop(self, loop_injector_pair):
        inj, _ = loop_injector_pair
        serial = inj.run_campaign(trials=60, seed=11, jobs=1)
        parallel = inj.run_campaign(trials=60, seed=11, jobs=4)
        assert serial.counts == parallel.counts
        assert serial.total_faults_injected == parallel.total_faults_injected
        assert serial.trials == parallel.trials == 60

    def test_jobs_do_not_change_outcomes_protected(self, loop_injector_pair):
        _, inj = loop_injector_pair
        serial = inj.run_campaign(trials=55, seed=3, jobs=1)
        parallel = inj.run_campaign(trials=55, seed=3, jobs=3)
        assert serial.counts == parallel.counts
        assert serial.total_faults_injected == parallel.total_faults_injected

    def test_jobs_do_not_change_outcomes_workload(self):
        machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
        cp = compile_program(get_workload("mcf").program, Scheme.CASTED, machine)
        inj = FaultInjector(
            cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words
        )
        serial = inj.run_campaign(trials=2 * SHARD_TRIALS, seed=2013, jobs=1)
        parallel = inj.run_campaign(trials=2 * SHARD_TRIALS, seed=2013, jobs=2)
        assert serial.counts == parallel.counts
        assert serial.total_faults_injected == parallel.total_faults_injected

    def test_shards_reproduce_independently(self, loop_injector_pair):
        """A shard's outcomes depend only on (seed, shard_index)."""
        inj, _ = loop_injector_pair
        a = inj.run_shard(1, 20, seed=9)
        b = inj.run_shard(1, 20, seed=9)
        c = inj.run_shard(2, 20, seed=9)
        assert a == b
        assert a != c  # different stream (vanishingly unlikely to collide)

    def test_parallel_progress_aggregates(self, loop_injector_pair):
        inj, _ = loop_injector_pair
        events: list[ProgressEvent] = []
        res = inj.run_campaign(
            trials=60, seed=5, jobs=2, progress=events.append, heartbeat=25
        )
        assert events, "no heartbeats fired"
        assert events[-1].done == res.trials == 60
        assert sum(events[-1].counts.values()) == 60


def _recording_map(calls):
    """A parallel_map that records each call's shard groups, then runs inline."""

    def fake(fn, tasks, jobs=1, on_result=None, **kwargs):
        tasks = list(tasks)
        calls.append([task[1] for task in tasks])
        return parallel_map(fn, tasks, jobs=1, on_result=on_result)

    return fake


class TestCampaignDispatch:
    """A pool campaign is one parallel_map over contiguous shard groups."""

    @pytest.mark.parametrize("trials, jobs", [(230, 2), (1000, 2), (75, 4), (1000, 3)])
    def test_one_map_of_contiguous_groups(
        self, loop_injector_pair, monkeypatch, trials, jobs
    ):
        inj, _ = loop_injector_pair
        serial = inj.run_campaign(trials=trials, seed=4)
        calls: list = []
        monkeypatch.setattr(injector_mod, "parallel_map", _recording_map(calls))
        res = inj.run_campaign(trials=trials, seed=4, jobs=jobs)
        assert len(calls) == 1
        groups = calls[0]
        assert [s for g in groups for s in g] == list(enumerate(plan_shards(trials)))
        per = -(-len(plan_shards(trials)) // (TASKS_PER_WORKER * jobs))
        assert [len(g) for g in groups[:-1]] == [per] * (len(groups) - 1)
        assert 1 <= len(groups[-1]) <= per
        assert res.counts == serial.counts
        assert res.total_faults_injected == serial.total_faults_injected

    def test_resume_dispatches_only_the_remaining_shards(
        self, loop_injector_pair, monkeypatch, tmp_path
    ):
        inj, _ = loop_injector_pair
        path = tmp_path / "c.jsonl"
        full = inj.run_campaign(trials=480, seed=6, checkpoint=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4]) + "\n")  # header + shards 0-2
        calls: list = []
        monkeypatch.setattr(injector_mod, "parallel_map", _recording_map(calls))
        res = inj.run_campaign(
            trials=480, seed=6, jobs=2, checkpoint=path, resume=True
        )
        assert len(calls) == 1
        plan = list(enumerate(plan_shards(480)))
        assert [s for g in calls[0] for s in g] == plan[3:]
        assert max(len(g) for g in calls[0]) == 3  # ceil(17 / 8)
        assert res.counts == full.counts


class TestMergedValidation:
    def test_merge_same_binary_ok(self, loop_injector_pair):
        inj, _ = loop_injector_pair
        a = inj.run_campaign(trials=20, seed=1)
        b = inj.run_campaign(trials=30, seed=2)
        m = a.merged(b)
        assert m.trials == 50
        assert m.golden_dyn == a.golden_dyn

    def test_merge_different_binaries_rejected(self, loop_injector_pair):
        inj_a, inj_b = loop_injector_pair
        a = inj_a.run_campaign(trials=10, seed=1)
        b = inj_b.run_campaign(trials=10, seed=1)
        assert a.golden_dyn != b.golden_dyn
        with pytest.raises(ValueError, match="golden_dyn"):
            a.merged(b)

    def test_merge_plain_results(self):
        a = CampaignResult(trials=5, counts={}, golden_dyn=100)
        b = CampaignResult(trials=5, counts={}, golden_dyn=200)
        with pytest.raises(ValueError):
            a.merged(b)


class TestProgressAdvance:
    def test_advance_crosses_heartbeat_boundaries(self):
        events = []
        t = ProgressTracker(100, events.append, every=25)
        t.advance(10, {})   # 10: no heartbeat
        t.advance(20, {})   # 30: crossed 25
        t.advance(40, {})   # 70: crossed 50
        t.advance(30, {})   # 100: crossed 75 + end
        assert [e.done for e in events] == [30, 70, 100]

    def test_advance_zero_is_noop(self):
        events = []
        t = ProgressTracker(10, events.append, every=1)
        t.advance(0, {})
        assert not events

    def test_advance_negative_rejected(self):
        t = ProgressTracker(10, None, every=1)
        with pytest.raises(ValueError):
            t.advance(-1, {})

    def test_step_still_fires_like_before(self):
        events = []
        t = ProgressTracker(9, events.append, every=4)
        for _ in range(9):
            t.step({})
        assert [e.done for e in events] == [4, 8, 9]


class TestEvaluatorAtomicStore:
    def test_no_temp_files_left(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        ev = Evaluator(seed=5, cache=True)
        ev.perf("mcf", Scheme.NOED, 1, 1)
        files = list(tmp_path.iterdir())
        assert files and all(p.suffix == ".json" for p in files)
        assert not list(tmp_path.glob("*.tmp"))

    def test_store_overwrites_corrupt_entry_atomically(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        ev = Evaluator(seed=5, cache=True)
        rec = ev.perf("mcf", Scheme.NOED, 1, 1)
        path = next(tmp_path.glob("*.json"))
        path.write_text('{"trunca')  # simulate an interrupted legacy writer
        ev2 = Evaluator(seed=5, cache=True)
        rec2 = ev2.perf("mcf", Scheme.NOED, 1, 1)
        assert rec2 == rec
        json.loads(path.read_text())  # healed on disk


class TestSweepDeterminism:
    POINTS = [("mcf", Scheme.CASTED, 2, 1), ("mcf", Scheme.NOED, 1, 1)]

    @staticmethod
    def _cache_contents(d: Path) -> dict[str, dict]:
        return {p.name: json.loads(p.read_text()) for p in d.glob("*.json")}

    def test_parallel_sweep_matches_serial_cache_files(
        self, tmp_path, monkeypatch
    ):
        d1, d2 = tmp_path / "serial", tmp_path / "parallel"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(d1))
        serial = Evaluator(seed=7, cache=True).sweep(
            self.POINTS, trials=SHARD_TRIALS, jobs=1
        )
        monkeypatch.setenv("REPRO_CACHE_DIR", str(d2))
        parallel = Evaluator(seed=7, cache=True).sweep(
            self.POINTS, trials=SHARD_TRIALS, jobs=2
        )
        assert serial == parallel
        c1, c2 = self._cache_contents(d1), self._cache_contents(d2)
        assert c1 and c1 == c2

    def test_sweep_returns_records_in_point_order(self):
        ev = Evaluator(seed=7, cache=False)
        results = ev.sweep(self.POINTS, jobs=1)
        assert [r["perf"].scheme for r in results] == ["casted", "noed"]
        assert all(r["coverage"] is None for r in results)

    def test_sweep_accepts_scheme_strings_and_uses_cache(self):
        ev = Evaluator(seed=7, cache=False)
        a = ev.sweep([("mcf", "noed", 2, 1)], jobs=1)[0]["perf"]
        b = ev.perf("mcf", Scheme.NOED, 2, 1)
        assert a == b

    def test_sweep_progress_counts_computed_points(self):
        ev = Evaluator(seed=7, cache=False)
        events = []
        ev.sweep(self.POINTS, jobs=1, progress=events.append)
        assert events[-1].done == events[-1].total == len(self.POINTS)
        # everything cached now: a second sweep computes nothing
        events2 = []
        ev.sweep(self.POINTS, jobs=1, progress=events2.append)
        assert not events2


class TestCliJobs:
    def test_inject_jobs(self, capsys, tmp_path):
        from repro.cli import main

        f = tmp_path / "p.mc"
        f.write_text(
            "func main() { var s = 0;"
            " for (var i = 0; i < 15; i = i + 1) { s = s + i; }"
            " out(s); return 0; }"
        )
        assert main(
            ["inject", str(f), "--scheme", "noed", "--trials", "30", "--jobs", "2"]
        ) == 0
        assert "30 faults" in capsys.readouterr().out

    def test_sweep_jobs(self, capsys):
        from repro.cli import main

        assert main(
            ["sweep", "workload:mcf", "--issues", "1", "2", "--delays", "1",
             "--jobs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "iw1 d1" in out and "iw2 d1" in out

    def test_compile_multiple_programs(self, capsys):
        from repro.cli import main

        assert main(
            ["compile", "workload:mcf", "workload:vpr", "--scheme", "noed",
             "--jobs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "workload:mcf under noed" in out
        assert "workload:vpr under noed" in out

    def test_run_multiple_programs(self, capsys):
        from repro.cli import main

        assert main(["run", "workload:mcf", "workload:vpr", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("IPC") == 2
        assert "== workload:mcf ==" in out
