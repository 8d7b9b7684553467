"""Campaign resilience: crashed workers, checkpoints, interrupted resumes.

The worker-crash contract under test (see ``parallel_map``): a task whose
worker raises — or whose worker process *dies* — is retried up to
``retries`` extra times on a fresh pool; a worker death cannot be
attributed to one task, so a pool crash charges an attempt to every
in-flight task.  After exhaustion the task reports to ``on_failure``
(slot ``None``) instead of aborting the map, and the campaign driver
turns exhausted shards into a ``partial`` result.
"""

import json
import os

import pytest

import repro.faults.injector as injector_mod
from repro.faults.checkpoint import CampaignCheckpoint, CheckpointError
from repro.faults.injector import CampaignResult, FaultInjector
from repro.parallel import parallel_map
from tests.conftest import build_loop_program


def _double(x):
    return x * 2


def _raise_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x * 2


def _exit_on_three(x):
    if x == 3:
        os._exit(1)  # simulate an OOM-kill / segfault: no exception, no cleanup
    return x * 2


def _exit_once(task):
    """Crash the worker the first time it sees the flag file missing."""
    x, flag = task
    if x == 3 and not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(1)
    return x * 2


class TestParallelMapFailures:
    def test_raising_task_propagates_by_default(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_raise_on_three, [1, 2, 3, 4], jobs=2)

    def test_raising_task_inline_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_raise_on_three, [3], jobs=1)

    def test_on_failure_degrades_instead_of_raising(self):
        failures = []
        out = parallel_map(
            _raise_on_three, [1, 2, 3, 4], jobs=2,
            on_failure=lambda i, exc: failures.append((i, str(exc))),
        )
        assert out == [2, 4, None, 8]
        assert failures == [(2, "boom")]

    def test_on_failure_inline(self):
        failures = []
        out = parallel_map(
            _raise_on_three, [3], jobs=1,
            on_failure=lambda i, exc: failures.append(i),
        )
        assert out == [None]
        assert failures == [0]

    def test_killed_worker_exhausts_then_degrades(self):
        failures = []
        out = parallel_map(
            _exit_on_three, [1, 2, 3, 4], jobs=2, retries=1,
            on_failure=lambda i, exc: failures.append(i),
        )
        assert out[2] is None
        assert 2 in failures
        # every surviving task completed despite sharing pools with the crasher
        assert [out[i] for i in (0, 1, 3)] == [2, 4, 8]

    def test_killed_worker_without_on_failure_raises(self):
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            parallel_map(_exit_on_three, [1, 2, 3, 4], jobs=2, retries=0)

    def test_transient_crash_retries_cleanly(self, tmp_path):
        flag = str(tmp_path / "crashed-once")
        tasks = [(x, flag) for x in (1, 2, 3, 4)]
        failures = []
        out = parallel_map(
            _exit_once, tasks, jobs=2, retries=2,
            on_failure=lambda i, exc: failures.append(i),
        )
        assert out == [2, 4, 6, 8]
        assert failures == []


HEADER = {
    "seed": 1, "trials": 50, "fault_model": "reg-bit",
    "golden_dyn": 123, "shard_trials": 25, "reference_dyn": None,
}


class TestCheckpointFile:
    def test_fresh_load_writes_header(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ck = CampaignCheckpoint(path, HEADER)
        assert ck.load(resume=False) == {}
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["format"] == "repro-campaign-checkpoint"

    def test_append_then_resume_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ck = CampaignCheckpoint(path, HEADER)
        ck.load(resume=False)
        rec = {"shard": 0, "trials": 25, "counts": {"benign": 25},
               "faults": 25, "latencies": []}
        ck.append(rec)
        got = CampaignCheckpoint(path, HEADER).load(resume=True)
        assert got == {0: rec}

    def test_resume_without_file_starts_fresh(self, tmp_path):
        ck = CampaignCheckpoint(tmp_path / "missing.jsonl", HEADER)
        assert ck.load(resume=True) == {}

    def test_identity_mismatch_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        CampaignCheckpoint(path, HEADER).load(resume=False)
        other = dict(HEADER, seed=2)
        with pytest.raises(CheckpointError, match="seed"):
            CampaignCheckpoint(path, other).load(resume=True)

    def test_torn_tail_dropped_and_healed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ck = CampaignCheckpoint(path, HEADER)
        ck.load(resume=False)
        rec = {"shard": 0, "trials": 25, "counts": {"benign": 25},
               "faults": 25, "latencies": []}
        ck.append(rec)
        with open(path, "a") as f:
            f.write('{"shard": 1, "trials": 2')  # crash mid-append
        got = CampaignCheckpoint(path, HEADER).load(resume=True)
        assert got == {0: rec}
        # healed: the torn line is gone, so appends stay well-formed
        assert path.read_text().endswith(json.dumps(rec) + "\n")
        # ...and preserved as evidence in the quarantine file
        bad = path.with_name(f"{path.name}.bad")
        assert bad.read_text().startswith('{"shard": 1, "trials": 2')

    def test_torn_tail_quarantine_warns_once(self, tmp_path, caplog):
        import logging

        path = tmp_path / "c.jsonl"
        ck = CampaignCheckpoint(path, HEADER)
        ck.load(resume=False)
        with open(path, "a") as f:
            f.write('{"shard": 0, "tri')
        with caplog.at_level(logging.WARNING, logger="repro.faults.checkpoint"):
            CampaignCheckpoint(path, HEADER).load(resume=True)
        warnings = [r for r in caplog.records if "torn" in r.message]
        assert len(warnings) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ck = CampaignCheckpoint(path, HEADER)
        ck.load(resume=False)
        with open(path, "a") as f:
            f.write("garbage\n")
            f.write(json.dumps({"shard": 1, "trials": 25,
                                "counts": {}, "faults": 25,
                                "latencies": []}) + "\n")
        with pytest.raises(CheckpointError, match="line 2"):
            CampaignCheckpoint(path, HEADER).load(resume=True)

    def test_unknown_outcome_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ck = CampaignCheckpoint(path, HEADER)
        ck.load(resume=False)
        ck.append({"shard": 0, "trials": 25, "counts": {"vaporized": 25},
                   "faults": 25, "latencies": []})
        with pytest.raises(ValueError):
            CampaignCheckpoint(path, HEADER).load(resume=True)


@pytest.fixture(scope="module")
def loop_injector():
    return FaultInjector(build_loop_program())


class TestCampaignCheckpointResume:
    TRIALS = 60  # 3 shards at SHARD_TRIALS=25

    def _truncate_to_shards(self, path, k):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: 1 + k]) + "\n")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_kill_and_resume_bit_identical(self, loop_injector, tmp_path, jobs):
        """Interrupted after k shards + resumed == uninterrupted, any --jobs."""
        full = loop_injector.run_campaign(trials=self.TRIALS, seed=11)
        path = tmp_path / "c.jsonl"
        loop_injector.run_campaign(trials=self.TRIALS, seed=11, checkpoint=path)
        self._truncate_to_shards(path, 1)  # "crash" with one shard recorded
        resumed = loop_injector.run_campaign(
            trials=self.TRIALS, seed=11, checkpoint=path, resume=True, jobs=jobs
        )
        assert resumed.counts == full.counts
        assert resumed.total_faults_injected == full.total_faults_injected
        assert resumed.detection_latency_sum == full.detection_latency_sum
        assert resumed.trials == full.trials == self.TRIALS
        assert not resumed.partial

    def test_resume_with_everything_done_runs_nothing(self, loop_injector, tmp_path):
        path = tmp_path / "c.jsonl"
        full = loop_injector.run_campaign(trials=self.TRIALS, seed=11, checkpoint=path)
        resumed = loop_injector.run_campaign(
            trials=self.TRIALS, seed=11, checkpoint=path, resume=True
        )
        assert resumed.counts == full.counts

    def test_without_resume_checkpoint_is_truncated(self, loop_injector, tmp_path):
        path = tmp_path / "c.jsonl"
        loop_injector.run_campaign(trials=self.TRIALS, seed=11, checkpoint=path)
        loop_injector.run_campaign(trials=25, seed=12, checkpoint=path)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["seed"] == 12
        assert len(lines) == 2  # header + the single fresh shard

    def test_resume_foreign_campaign_raises(self, loop_injector, tmp_path):
        path = tmp_path / "c.jsonl"
        loop_injector.run_campaign(trials=self.TRIALS, seed=11, checkpoint=path)
        with pytest.raises(CheckpointError):
            loop_injector.run_campaign(
                trials=self.TRIALS, seed=99, checkpoint=path, resume=True
            )


class TestCampaignDegradation:
    """Shard loss (all retries exhausted) must not lose the campaign."""

    def _lossy_parallel_map(self, lost_task_index):
        """A parallel_map that computes inline but 'loses' one task."""

        def fake(fn, tasks, jobs=1, on_result=None, retries=0,
                 retry_backoff=0.0, timeout=None, on_failure=None, **kwargs):
            results = []
            for i, task in enumerate(tasks):
                if i == lost_task_index:
                    on_failure(i, RuntimeError("worker died"))
                    results.append(None)
                    continue
                r = fn(task)
                if on_result is not None:
                    on_result(i, r)
                results.append(r)
            return results

        return fake

    def test_partial_result_merges_survivors(self, loop_injector, monkeypatch, tmp_path):
        full = loop_injector.run_campaign(trials=75, seed=5)
        monkeypatch.setattr(
            injector_mod, "parallel_map", self._lossy_parallel_map(1)
        )
        # 3 shards at jobs=2 dispatch one shard per task, so "task 1 lost"
        # means "shard 1 lost".
        path = tmp_path / "c.jsonl"
        res = loop_injector.run_campaign(
            trials=75, seed=5, jobs=2, checkpoint=path
        )
        assert res.partial
        assert res.lost_trials == 25
        assert res.trials == 50
        assert sum(res.counts.values()) == 50
        assert sum(res.fraction(o) for o in res.counts) == pytest.approx(1.0)
        # the lost shard never reached the checkpoint...
        recorded = {json.loads(ln)["shard"]
                    for ln in path.read_text().splitlines()[1:]}
        assert recorded == {0, 2}
        # ...so a later resume retries exactly it and completes the campaign
        monkeypatch.setattr(injector_mod, "parallel_map", parallel_map)
        healed = loop_injector.run_campaign(
            trials=75, seed=5, checkpoint=path, resume=True
        )
        assert not healed.partial
        assert healed.counts == full.counts

    def test_lost_multi_shard_task_loses_every_shard(
        self, loop_injector, monkeypatch, tmp_path
    ):
        full = loop_injector.run_campaign(trials=250, seed=5)
        monkeypatch.setattr(
            injector_mod, "parallel_map", self._lossy_parallel_map(1)
        )
        path = tmp_path / "c.jsonl"
        # 10 shards at jobs=2: 5 tasks of 2 shards; task 1 carries 2 and 3.
        res = loop_injector.run_campaign(
            trials=250, seed=5, jobs=2, checkpoint=path
        )
        assert res.partial
        assert res.lost_trials == 50
        assert res.trials == 200
        recorded = {json.loads(ln)["shard"]
                    for ln in path.read_text().splitlines()[1:]}
        assert recorded == set(range(10)) - {2, 3}
        monkeypatch.setattr(injector_mod, "parallel_map", parallel_map)
        healed = loop_injector.run_campaign(
            trials=250, seed=5, checkpoint=path, resume=True
        )
        assert not healed.partial
        assert healed.counts == full.counts
        assert healed.total_faults_injected == full.total_faults_injected

    def test_empty_campaign_coverage_is_zero(self, loop_injector):
        """Regression: trials=0 used to report coverage 1.0."""
        res = loop_injector.run_campaign(trials=0, seed=1)
        assert res.trials == 0
        assert res.coverage == 0.0
        assert CampaignResult(trials=0).coverage == 0.0

    def test_all_shards_lost_yields_empty_partial(self, loop_injector, monkeypatch):
        def lose_all(fn, tasks, jobs=1, on_result=None, retries=0,
                     retry_backoff=0.0, timeout=None, on_failure=None,
                     **kwargs):
            for i in range(len(tasks)):
                on_failure(i, RuntimeError("worker died"))
            return [None] * len(tasks)

        monkeypatch.setattr(injector_mod, "parallel_map", lose_all)
        res = loop_injector.run_campaign(trials=50, seed=5, jobs=2)
        assert res.partial
        assert res.trials == 0
        assert res.lost_trials == 50
        assert res.coverage == 0.0  # the empty-campaign fix, end to end


def _sleep_forever(x):
    import time as _time

    if x == 3:
        _time.sleep(3600)  # a hung worker: alive but never finishing
    return x * 2


def _sleep_once(task):
    """Hang the first time the flag file is absent, then behave."""
    import time as _time

    x, flag = task
    if x == 3 and not os.path.exists(flag):
        open(flag, "w").close()
        _time.sleep(3600)
    return x * 2


class TestHungWorkerTimeout:
    """The ``timeout=`` watchdog: hung (not just dead) workers are killed."""

    def test_hung_task_killed_and_charged(self):
        failures = []
        out = parallel_map(
            _sleep_forever, [1, 2, 3, 4], jobs=2, retries=0, timeout=1.0,
            on_failure=lambda i, exc: failures.append((i, type(exc).__name__)),
        )
        assert out[2] is None
        assert failures == [(2, "TimeoutError")]
        # bystanders sharing the killed pool are retried uncharged
        assert [out[i] for i in (0, 1, 3)] == [2, 4, 8]

    def test_hung_task_recovers_on_retry(self, tmp_path):
        flag = str(tmp_path / "hung-once")
        tasks = [(x, flag) for x in (1, 2, 3, 4)]
        failures = []
        out = parallel_map(
            _sleep_once, tasks, jobs=2, retries=1, timeout=1.0,
            on_failure=lambda i, exc: failures.append(i),
        )
        assert out == [2, 4, 6, 8]
        assert failures == []

    def test_no_timeout_means_no_watchdog(self):
        # fast tasks with timeout=None keep the historical behaviour
        assert parallel_map(_double, [1, 2, 3], jobs=2) == [2, 4, 6]

    def test_campaign_shard_timeout_plumbed(self, loop_injector):
        """shard_timeout on an all-healthy campaign changes nothing."""
        base = loop_injector.run_campaign(trials=50, seed=3)
        timed = loop_injector.run_campaign(
            trials=50, seed=3, jobs=2, shard_timeout=120.0
        )
        assert timed.counts == base.counts
        assert not timed.partial


class TestRetryJitter:
    def test_backoff_sleep_is_jittered(self, monkeypatch):
        import repro.parallel as parallel_mod

        naps = []
        monkeypatch.setattr(parallel_mod.time, "sleep", naps.append)
        out = parallel_map(
            _raise_on_three, [1, 2, 3, 4], jobs=2, retries=2,
            retry_backoff=1.0, on_failure=lambda i, exc: None,
        )
        assert out == [2, 4, None, 8]
        assert len(naps) == 2  # one nap per retry round
        for round_no, nap in enumerate(naps, start=1):
            base = 1.0 * 2 ** (round_no - 1)  # exponential backoff
            assert base <= nap <= base * 1.25


class TestChaosPoints:
    """Seeded infrastructure chaos (REPRO_CHAOS) in pool workers."""

    def test_unarmed_chaos_is_inert(self, monkeypatch):
        from repro.chaos import chaos_point

        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        chaos_point("worker.shard")  # must not raise or exit

    def test_worker_shard_kill_once_retries_bit_identical(
        self, loop_injector, tmp_path, monkeypatch
    ):
        """A worker SIGKILLed before a shard retries to exact counts."""
        full = loop_injector.run_campaign(trials=50, seed=9)
        flag = tmp_path / "chaos-fired"
        monkeypatch.setenv("REPRO_CHAOS", "worker.shard:1:once")
        monkeypatch.setenv("REPRO_CHAOS_FLAG", str(flag))
        res = loop_injector.run_campaign(trials=50, seed=9, jobs=2, retries=2)
        assert flag.exists(), "the chaos point must actually have fired"
        assert res.counts == full.counts
        assert not res.partial
