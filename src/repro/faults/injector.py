"""The Monte-Carlo fault-injection campaign driver.

Methodology (paper §IV-C):

* the binary is profiled once to count dynamic instructions and find which
  of them produce a register output;
* each trial draws faults from a pluggable **fault model** (see
  :mod:`repro.faults.models`): the default ``reg-bit`` model picks a random
  output-producing dynamic instruction, a random output register (ours have
  at most one), and a random bit to flip — the paper's model, with its RNG
  stream frozen so historical results reproduce;
* plain binaries (NOED) receive exactly one fault per trial.  Protected
  binaries are larger, so — to keep the *error rate* fixed — each of their
  trials receives ``Binomial(dyn_protected, 1 / dyn_reference)`` faults
  (resampled to be at least one), where ``dyn_reference`` is the original
  binary's dynamic instruction count;
* the run is classified against the golden run (see
  :mod:`repro.faults.classify`), each detected trial additionally records
  its **detection latency** (dynamic instructions from injection to the
  ``CHKBR`` firing), and a watchdog bounds runaway executions.

Trials execute on the sequential reference interpreter: outcome
classification depends only on architectural state, and the interpreter
sustains millions of instructions per second, which makes 300-trial
campaigns cheap.  Every trial — in a campaign shard or a lone
:meth:`FaultInjector.run_trial` — takes the same path: resume from the
nearest golden snapshot at or before its earliest fault, then (on the
compiled backend) run the post-fault suffix trace-guided and exit early
once the state re-converges with the golden run.  The interp backend runs
the plain loop and stays the differential oracle.

Campaigns are *sharded*: the trial budget is split into fixed
:data:`~repro.parallel.SHARD_TRIALS`-sized shards and every shard draws
from its own RNG stream, seeded by ``(seed, shard_index)``.  The shard
plan depends only on the trial count — never on the worker count — so a
campaign's outcome counts are bit-identical for a given seed whether it
runs serially (``jobs=1``) or fanned out over a process pool
(``jobs=N``).  See ``docs/performance.md``.

Sharding also buys **resilience** (``docs/fault_injection.md``):

* a ``checkpoint`` file records every completed shard as an appended JSONL
  line; ``resume=True`` skips the recorded shards, and because each shard's
  RNG stream is self-contained the merged result is bit-identical to an
  uninterrupted run;
* a shard whose pool worker dies is retried with backoff on a fresh
  worker; when a shard exhausts its retries the campaign degrades
  gracefully — surviving shards are merged, the lost trial count is
  logged, and the result is marked ``partial`` instead of raising.
"""

from __future__ import annotations

import hashlib
import logging
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.errors import SimError
from repro.faults.checkpoint import CampaignCheckpoint
from repro.faults.classify import (
    OUTCOME_ORDER,
    Outcome,
    classify,
    detection_latency,
)
from repro.faults.models import DEFAULT_FAULT_MODEL, get_fault_model
from repro.ir.interp import (
    ConvergenceIndex,
    FaultSpec,
    Interpreter,
    RunResult,
    Snapshot,
    TraceGuide,
)
from repro.ir.printer import canonical_program_text
from repro.ir.program import Program
from repro.isa.registers import RegClass
from repro.obs import get_telemetry
from repro.obs.progress import ProgressCallback, ProgressTracker
from repro.parallel import (
    SHARD_TRIALS,
    TASKS_PER_WORKER,
    PickledOnce,
    parallel_map,
    plan_shards,
    resolve_jobs,
    worker_cached,
)
from repro.utils.rng import make_rng

logger = logging.getLogger(__name__)

#: Per-trial completion callback: ``(outcome, n_faults, detection_latency)``.
OnTrial = Callable[[Outcome, int, int | None], None]

#: The golden-comparison exits a trial runs with: ``(converge, guide)``.
_Accelerators = tuple[ConvergenceIndex | None, TraceGuide | None]

#: Watchdog budget = factor x golden dynamic instruction count.
WATCHDOG_FACTOR = 25

#: Default number of golden-run snapshots a checkpointing injector records.
#: Each trial resumes from the nearest snapshot at or before its earliest
#: fault, so the expected skipped prefix per trial is
#: ``~(1 - 1/(2*count))`` of the fault position; 64 keeps the residual
#: prefix under 1% of the golden run while the snapshots themselves stay a
#: few MB for our workloads.
SNAPSHOT_COUNT = 64

#: Skip checkpointing entirely below this golden dynamic-instruction count —
#: tiny programs replay faster than they restore.
SNAPSHOT_MIN_DYN = 2_000

#: Default extra attempts for a shard whose pool worker died.
SHARD_RETRIES = 2

#: Default seconds of backoff between shard retry rounds (scaled by round).
SHARD_RETRY_BACKOFF = 0.5


@dataclass(frozen=True)
class ShardResult:
    """Outcome of one campaign shard (the unit of checkpointing/retry)."""

    index: int
    trials: int
    counts: dict[Outcome, int]
    faults: int
    #: Detection latency (dyn instructions, injection -> CHKBR) of every
    #: detected trial in the shard, in trial order.
    latencies: tuple[int, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "shard": self.index,
            "trials": self.trials,
            "counts": {o.value: n for o, n in self.counts.items()},
            "faults": self.faults,
            "latencies": list(self.latencies),
        }

    @classmethod
    def from_json(cls, rec: dict[str, Any]) -> "ShardResult":
        return cls(
            index=int(rec["shard"]),
            trials=int(rec["trials"]),
            counts={Outcome(k): int(v) for k, v in rec["counts"].items()},
            faults=int(rec["faults"]),
            latencies=tuple(int(v) for v in rec.get("latencies", ())),
        )


@dataclass
class CampaignResult:
    """Aggregated outcome counts of one campaign.

    ``trials`` counts the trials that actually completed.  A campaign that
    lost shards to unrecoverable worker crashes is ``partial``: its
    fractions are still well-defined (they divide by the completed count)
    but cover ``lost_trials`` fewer trials than requested.
    """

    trials: int
    counts: dict[Outcome, int] = field(default_factory=dict)
    total_faults_injected: int = 0
    golden_dyn: int = 0
    fault_model: str = DEFAULT_FAULT_MODEL
    detection_latency_sum: int = 0
    detections_timed: int = 0
    lost_trials: int = 0
    partial: bool = False

    def fraction(self, outcome: Outcome) -> float:
        return self.counts.get(outcome, 0) / self.trials if self.trials else 0.0

    @property
    def coverage(self) -> float:
        """Everything that is not silent corruption or a hang.

        An empty campaign (``trials == 0``) covers nothing — 0.0, not the
        1.0 that "no observed SDC" would naively suggest.
        """
        if not self.trials:
            return 0.0
        return 1.0 - self.fraction(Outcome.SDC) - self.fraction(Outcome.TIMEOUT)

    @property
    def caught(self) -> float:
        """Detected plus exceptions.

        The paper reports exceptions separately "for clarity" but notes
        they are usually counted as detected (a custom handler catches
        them, §IV-C) — this is that combined number.
        """
        return self.fraction(Outcome.DETECTED) + self.fraction(Outcome.EXCEPTION)

    @property
    def mean_detection_latency(self) -> float:
        """Mean dynamic instructions from injection to the check firing."""
        if not self.detections_timed:
            return 0.0
        return self.detection_latency_sum / self.detections_timed

    def as_row(self) -> dict[str, float]:
        row = {o.value: self.fraction(o) for o in OUTCOME_ORDER}
        row["coverage"] = self.coverage
        return row

    def merged(self, other: "CampaignResult") -> "CampaignResult":
        """Combine outcome counts of two campaigns over the *same* binary.

        Merging is only well-defined for shards of one campaign (or repeat
        campaigns) against the same golden run and fault model: a mismatch
        means the results came from different experiments, whose fractions
        are not comparable, so that is an error rather than a silent
        keep-mine.
        """
        if self.golden_dyn != other.golden_dyn:
            raise ValueError(
                "cannot merge campaigns over different binaries: "
                f"golden_dyn {self.golden_dyn} != {other.golden_dyn}"
            )
        if self.fault_model != other.fault_model:
            raise ValueError(
                "cannot merge campaigns under different fault models: "
                f"{self.fault_model} != {other.fault_model}"
            )
        counts = dict(self.counts)
        for k, v in other.counts.items():
            counts[k] = counts.get(k, 0) + v
        return CampaignResult(
            trials=self.trials + other.trials,
            counts=counts,
            total_faults_injected=self.total_faults_injected
            + other.total_faults_injected,
            golden_dyn=self.golden_dyn,
            fault_model=self.fault_model,
            detection_latency_sum=self.detection_latency_sum
            + other.detection_latency_sum,
            detections_timed=self.detections_timed + other.detections_timed,
            lost_trials=self.lost_trials + other.lost_trials,
            partial=self.partial or other.partial,
        )


@dataclass(frozen=True)
class WorkerProfile:
    """A parent injector's profiling results, packaged for pool workers.

    Everything :class:`FaultInjector` computes by *executing* the program —
    the golden run and the architectural snapshots — so a worker-side
    rebuild only re-decodes the program (the compiled closures don't
    pickle) and skips both golden replays.  The snapshots are plain
    tuples pickled once per injector inside the worker spec's payload
    (a few hundred KB for our workloads).
    """

    golden: RunResult
    snapshots: tuple[Snapshot, ...]


class CampaignWorkerSpec:
    """A content-addressed recipe for building a campaign injector in a worker.

    ``key`` digests everything the built injector depends on (canonical
    program text, geometry, fault model, resolved backend, snapshot
    config), so :func:`repro.parallel.worker_cached` can reuse one injector
    across every task — of every map — that shares the key.  ``payload``
    is pickled once in the parent (:class:`~repro.parallel.PickledOnce`):
    tasks ship the same immutable bytes, and a worker whose cache already
    holds ``key`` never even unpickles them.
    """

    __slots__ = ("key", "payload")

    def __init__(self, key: str, payload: PickledOnce) -> None:
        self.key = key
        self.payload = payload

    def build(self) -> "FaultInjector":
        # The init span marks worker-cache misses on each worker's trace
        # lane: with the persistent pool it appears once per (workload,
        # scheme) per worker, not once per map.
        with get_telemetry().span("worker:init", cat="worker") as sp:
            ctor_args, profile = self.payload.load()
            (
                program, mem_words, frame_words, fault_model,
                backend, snapshots, snapshot_count,
            ) = ctor_args
            injector = FaultInjector(
                program, mem_words=mem_words, frame_words=frame_words,
                fault_model=fault_model, backend=backend,
                snapshots=snapshots, snapshot_count=snapshot_count,
                profile=profile,
            )
            sp.set(fault_model=fault_model, snapshots=snapshots)
        return injector

    def __getstate__(self) -> tuple[str, PickledOnce]:
        return (self.key, self.payload)

    def __setstate__(self, state: tuple[str, PickledOnce]) -> None:
        self.key, self.payload = state


class FaultInjector:
    """Profile once, inject many times."""

    def __init__(
        self,
        program: Program,
        mem_words: int | None = None,
        frame_words: int = 0,
        fault_model: str = DEFAULT_FAULT_MODEL,
        backend: str | None = None,
        snapshots: bool = True,
        snapshot_count: int = SNAPSHOT_COUNT,
        profile: WorkerProfile | None = None,
    ) -> None:
        # Kept so campaign shards can rebuild an identical injector inside
        # pool workers (the interpreter's compiled closures don't pickle).
        self._ctor_args = (
            program, mem_words, frame_words, fault_model,
            backend, snapshots, snapshot_count,
        )
        self.program = program
        tel = get_telemetry()
        if profile is not None:
            # Worker-side rebuild from a shipped profile: decode the program
            # but adopt the parent's golden run and snapshots instead of
            # re-executing anything.
            with tel.span("worker:attach-profile", cat="worker") as sp:
                self.interp = Interpreter(
                    program, mem_words=mem_words, frame_words=frame_words,
                    backend=backend,
                )
                self.golden: RunResult = profile.golden
                if not self.golden.block_trace:
                    raise SimError("shipped golden profile carries no trace")
                self._snapshots: list[Snapshot] = list(profile.snapshots)
                self._snap_keys: list[int] = [s.dyn for s in self._snapshots]
                sp.set(
                    golden_dyn=self.golden.dyn_instructions,
                    snapshots=len(self._snapshots),
                )
        else:
            # The profile span covers program decode (the compiled backend's
            # superblock generation happens in the interpreter constructor)
            # plus the golden run — in a pool worker this is the per-worker
            # cost the worker cache exists to amortize away.
            with tel.span(
                "injector:profile", cat="campaign", timer="campaign.profile.seconds"
            ) as sp:
                self.interp = Interpreter(
                    program, mem_words=mem_words, frame_words=frame_words,
                    backend=backend,
                )
                self.golden = self.interp.run(record_trace=True)
                if not self.golden.block_trace:
                    raise SimError("profiling run produced no trace")
                sp.set(golden_dyn=self.golden.dyn_instructions)

            # Checkpointed injection: replay the golden run once more,
            # recording architectural snapshots at ~snapshot_count evenly
            # spaced points.  Each trial then restores the nearest snapshot
            # at or before its earliest fault and executes only the suffix —
            # bit-identical to a replay from zero, because the pre-fault
            # prefix of every trial *is* the golden execution.
            self._snapshots = []
            self._snap_keys = []
            golden_dyn = self.golden.dyn_instructions
            if snapshots and snapshot_count > 0 and golden_dyn >= SNAPSHOT_MIN_DYN:
                with tel.span(
                    "injector:snapshots", cat="campaign",
                    timer="campaign.snapshot_record.seconds",
                ) as sp:
                    interval = max(1, golden_dyn // snapshot_count)
                    self.interp.run(
                        snapshot_every=interval, snapshot_sink=self._snapshots
                    )
                    self._snap_keys = [s.dyn for s in self._snapshots]
                    sp.set(snapshots=len(self._snapshots))

        # Per-block static tables.
        func = program.main
        self._block_len: dict[str, int] = {}
        self._block_dest_positions: dict[str, npt.NDArray[np.int64]] = {}
        self._block_dest_is_pr: dict[str, npt.NDArray[np.bool_]] = {}
        for block in func.blocks():
            positions: list[int] = []
            is_pr: list[bool] = []
            for i, insn in enumerate(block.instructions):
                if insn.dests:
                    positions.append(i)
                    is_pr.append(insn.dests[0].rclass is RegClass.PR)
            self._block_len[block.label] = len(block.instructions)
            self._block_dest_positions[block.label] = np.array(positions, dtype=np.int64)
            self._block_dest_is_pr[block.label] = np.array(is_pr, dtype=bool)

        # Per-visit cumulative tables over the golden trace.
        trace = self.golden.block_trace
        lens = np.array([self._block_len[lb] for lb in trace], dtype=np.int64)
        dests = np.array(
            [len(self._block_dest_positions[lb]) for lb in trace], dtype=np.int64
        )
        self._visit_dyn_start: npt.NDArray[np.int64] = np.concatenate(
            ([0], np.cumsum(lens)[:-1])
        )
        self._visit_dest_cum: npt.NDArray[np.int64] = np.cumsum(dests)
        self.n_dest_sites = int(self._visit_dest_cum[-1]) if len(trace) else 0
        self._trace: list[str] = trace
        self.max_steps: int = (
            self.golden.dyn_instructions * WATCHDOG_FACTOR + 10_000
        )

        self.fault_model = fault_model
        self.model = get_fault_model(fault_model)
        self.model.prepare(self)
        self._accel: _Accelerators | None = None
        self._worker_spec: CampaignWorkerSpec | None = None

    # -- golden-comparison exits -------------------------------------------------
    def _accelerators(self) -> _Accelerators:
        """The ``(converge, guide)`` pair every trial hands to ``interp.run``.

        Built once per injector, on first use.  On the compiled backend the
        :class:`~repro.ir.interp.ConvergenceIndex` (when there are
        snapshots) ends a trial as soon as its state re-joins the golden
        run at a snapshot boundary, and the
        :class:`~repro.ir.interp.TraceGuide` runs post-fault suffixes along
        the recorded golden block trace.  Both are exact: they change how
        fast a trial finishes, never its :class:`RunResult`.  On the interp
        backend both are ``None`` so the differential oracle stays the
        plain loop.
        """
        if self._accel is None:
            compiled = self.interp.backend == "compiled"
            self._accel = (
                ConvergenceIndex(self._snapshots, self.golden)
                if compiled and self._snapshots
                else None,
                TraceGuide(
                    self.interp, self.golden, self._visit_dyn_start,
                    self._snap_keys,
                )
                if compiled
                else None,
            )
        return self._accel

    def worker_spec(self) -> CampaignWorkerSpec:
        """The content-addressed build recipe pool workers cache this injector by.

        Memoized: the constructor payload — snapshots included — is pickled
        exactly once per injector, no matter how many campaigns, tasks or
        retry rounds ship it.  The key hashes the *resolved* backend (not
        the ``None`` the caller may have passed) so a worker rebuild can
        never resolve differently from the parent.
        """
        if self._worker_spec is None:
            (
                program, mem_words, frame_words, fault_model,
                _backend, snapshots, snapshot_count,
            ) = self._ctor_args
            digest = hashlib.sha256()
            digest.update(canonical_program_text(program).encode())
            digest.update(
                repr((
                    mem_words, frame_words, fault_model, self.interp.backend,
                    snapshots, snapshot_count, len(self._snapshots),
                )).encode()
            )
            profile = WorkerProfile(
                golden=self.golden, snapshots=tuple(self._snapshots)
            )
            ctor_args = (
                program, mem_words, frame_words, fault_model,
                self.interp.backend, snapshots, snapshot_count,
            )
            self._worker_spec = CampaignWorkerSpec(
                digest.hexdigest(), PickledOnce((ctor_args, profile))
            )
        return self._worker_spec

    # -- fault-site enumeration ----------------------------------------------
    def site_of(self, dyn_index: int) -> tuple[str, int]:
        """Map a dynamic fault position back to its static fault site.

        Returns ``(block label, instruction index within the block)`` of
        the golden instruction committing at ``dyn_index`` — the inverse
        of :meth:`sample_fault`'s site -> ``dyn_index`` mapping.  This is
        how the static coverage prover (:mod:`repro.analysis.coverage`)
        attributes a measured trial outcome to the per-site verdict it
        cross-validates against.
        """
        if dyn_index < 0 or dyn_index >= self.golden.dyn_instructions:
            raise SimError(
                f"dyn_index {dyn_index} outside the golden run "
                f"(0..{self.golden.dyn_instructions - 1})"
            )
        visit = (
            int(np.searchsorted(self._visit_dyn_start, dyn_index, side="right"))
            - 1
        )
        label = self._trace[visit]
        return label, dyn_index - int(self._visit_dyn_start[visit])

    def visit_counts(self) -> dict[str, int]:
        """Golden execution count of every block (static-site weights)."""
        counts: dict[str, int] = {}
        for label in self._trace:
            counts[label] = counts.get(label, 0) + 1
        return counts

    # -- sampling ------------------------------------------------------------
    def sample_fault(self, rng: np.random.Generator) -> FaultSpec:
        """Uniformly pick an output-producing dynamic instruction + bit.

        This is the frozen ``reg-bit`` sampling path: its RNG draw sequence
        must never change, or default campaigns stop reproducing historical
        results (treat any change like a cache-version bump).
        """
        if self.n_dest_sites == 0:
            raise SimError("program has no output-producing instructions")
        site = int(rng.integers(self.n_dest_sites))
        visit = int(np.searchsorted(self._visit_dest_cum, site, side="right"))
        label = self._trace[visit]
        prior = int(self._visit_dest_cum[visit - 1]) if visit else 0
        within = site - prior
        pos = int(self._block_dest_positions[label][within])
        dyn_index = int(self._visit_dyn_start[visit]) + pos
        if self._block_dest_is_pr[label][within]:
            bit = 0  # predicate registers invert regardless of bit
        else:
            bit = int(rng.integers(64))
        return FaultSpec(dyn_index=dyn_index, bit=bit)

    def faults_for_trial(
        self, rng: np.random.Generator, reference_dyn: int | None
    ) -> tuple[FaultSpec, ...]:
        """One fault, or rate-matched faults when ``reference_dyn`` is given."""
        sample = self.model.sample
        if reference_dyn is None or reference_dyn >= self.golden.dyn_instructions:
            return (sample(self, rng),)
        p = 1.0 / reference_dyn
        n = 0
        while n == 0:
            n = int(rng.binomial(self.golden.dyn_instructions, p))
        return tuple(sample(self, rng) for _ in range(n))

    # -- the campaign -----------------------------------------------------------
    def _snapshot_for(self, faults: tuple[FaultSpec, ...]) -> Snapshot | None:
        """Nearest golden snapshot at or before the earliest fault, if any.

        A fault at ``dyn_index`` fires once ``dyn_index + 1`` instructions
        have committed, so any snapshot with ``dyn <= dyn_index`` is safe.
        """
        if not self._snap_keys:
            return None
        first = min(f.dyn_index for f in faults)
        i = bisect_right(self._snap_keys, first) - 1
        return self._snapshots[i] if i >= 0 else None

    def _execute(
        self, faults: tuple[FaultSpec, ...], snap: Snapshot | None
    ) -> RunResult:
        """Run one trial: the single executor behind every campaign path."""
        converge, guide = self._accelerators()
        return self.interp.run(
            faults=faults,
            max_steps=self.max_steps,
            resume_from=snap,
            converge=converge,
            guide=guide,
        )

    def run_trial(self, faults: tuple[FaultSpec, ...]) -> Outcome:
        """Classify one trial, executed exactly as a campaign shard would."""
        snap = self._snapshot_for(faults) if faults else None
        return classify(self.golden, self._execute(faults, snap))

    def run_shard(
        self,
        shard_index: int,
        shard_trials: int,
        seed: int,
        reference_dyn: int | None = None,
        on_trial: OnTrial | None = None,
    ) -> ShardResult:
        """Run one campaign shard.

        The shard's RNG stream is fully determined by ``(seed,
        shard_index)``, so shards can execute in any order, in any process,
        and still reproduce the same outcomes — the property checkpoint
        resume and crash retry both lean on.  ``on_trial(outcome, n_faults,
        latency)`` fires after every trial (serial mode uses it for
        per-trial telemetry and progress heartbeats; ``latency`` is ``None``
        for non-detected trials).
        """
        tel = get_telemetry()
        rng = make_rng(seed, "fault-campaign", shard_index)
        converge, guide = self._accelerators()
        hits0 = converge.hits if converge is not None else 0
        visits0 = guide.visits if guide is not None else 0
        counts: dict[Outcome, int] = {}
        total_faults = 0
        restores = 0
        skipped = 0
        latencies: list[int] = []
        # One span and one batch of counter updates per *shard*: telemetry
        # must never flush per trial (the batching contract worker capture
        # relies on — see docs/observability.md).
        with tel.span(
            "shard", cat="campaign", timer="campaign.shard.seconds",
            shard=shard_index, trials=shard_trials,
        ) as sp:
            for _ in range(shard_trials):
                faults = self.faults_for_trial(rng, reference_dyn)
                total_faults += len(faults)
                snap = self._snapshot_for(faults)
                if snap is not None:
                    restores += 1
                    skipped += snap.dyn
                result = self._execute(faults, snap)
                outcome = classify(self.golden, result)
                counts[outcome] = counts.get(outcome, 0) + 1
                latency = detection_latency(result, faults)
                if latency is not None:
                    latencies.append(latency)
                if on_trial is not None:
                    on_trial(outcome, len(faults), latency)
            converged = converge.hits - hits0 if converge is not None else 0
            guided = guide.visits - visits0 if guide is not None else 0
            if restores:
                tel.count("campaign.snapshot_restores", restores)
                tel.count("campaign.cycles_skipped", skipped)
            # The counter names predate the single execution path; readers
            # (bench scripts, dashboards) key on them, so they stay.
            tel.count("campaign.batch_converged", converged)
            tel.count("campaign.batch_guided_visits", guided)
            sp.set(
                faults=total_faults, restores=restores, skipped_dyn=skipped,
                converged=converged, guided=guided,
            )
        return ShardResult(
            index=shard_index,
            trials=shard_trials,
            counts=counts,
            faults=total_faults,
            latencies=tuple(latencies),
        )

    def run_campaign(
        self,
        trials: int,
        seed: int,
        reference_dyn: int | None = None,
        progress: ProgressCallback | None = None,
        heartbeat: int = 25,
        jobs: int | None = 1,
        checkpoint: str | Path | None = None,
        resume: bool = False,
        retries: int = SHARD_RETRIES,
        retry_backoff: float = SHARD_RETRY_BACKOFF,
        shard_timeout: float | None = None,
    ) -> CampaignResult:
        """Run ``trials`` Monte-Carlo trials and aggregate the outcomes.

        The campaign is split into fixed-size shards (see
        :data:`repro.parallel.SHARD_TRIALS`); ``jobs`` controls how many
        run concurrently (1 = in-process serial, 0 = all cores).  Outcome
        counts are identical for a given seed regardless of ``jobs``.

        ``checkpoint`` names a JSONL file that records every completed
        shard as it lands; ``resume=True`` loads it first and skips the
        recorded shards, yielding counts bit-identical to an uninterrupted
        run (``docs/fault_injection.md`` documents the format).  With
        ``jobs > 1``, a shard whose worker dies is retried up to
        ``retries`` times with backoff on a fresh worker; a shard that
        exhausts its retries is *dropped* — the campaign merges the
        surviving shards, logs the loss, and returns a ``partial`` result
        (the lost shards stay absent from the checkpoint, so a later
        ``resume`` retries exactly those).  ``shard_timeout`` (seconds,
        pool mode only) additionally arms the hung-worker watchdog: a pool
        task running past it is killed and retried on the same budget (see
        :func:`repro.parallel.parallel_map`).

        ``progress`` (if given) receives a
        :class:`~repro.obs.progress.ProgressEvent` — completed trials,
        throughput, ETA, outcome counts so far — every ``heartbeat`` trials
        and once at the end; with ``jobs > 1`` heartbeats aggregate across
        workers at shard granularity.  With telemetry enabled the whole
        campaign is a ``campaign`` span, detection latencies feed the
        ``campaign.detection_latency`` histogram, and in serial mode every
        trial additionally emits one instant event carrying its outcome
        and fault count.
        """
        tel = get_telemetry()
        jobs = resolve_jobs(jobs)
        shard_plan = plan_shards(trials, SHARD_TRIALS)
        counts: dict[Outcome, int] = {}
        state = {"faults": 0, "latency_sum": 0, "latency_n": 0}
        tracker = ProgressTracker(trials, progress, every=heartbeat)

        ckpt: CampaignCheckpoint | None = None
        done: dict[int, ShardResult] = {}
        if checkpoint is not None:
            ckpt = CampaignCheckpoint(
                checkpoint,
                header={
                    "seed": seed,
                    "trials": trials,
                    "fault_model": self.fault_model,
                    "golden_dyn": self.golden.dyn_instructions,
                    "shard_trials": SHARD_TRIALS,
                    "reference_dyn": reference_dyn,
                },
            )
            done = {
                index: ShardResult.from_json(rec)
                for index, rec in ckpt.load(resume).items()
                if index < len(shard_plan)
            }

        emit_trials = tel.enabled and tel.tracer is not None
        trial_index = 0
        # Outcomes of the serial shard in flight, reported trial by trial
        # (``trial`` instants, mid-shard heartbeats) before ``absorb``
        # merges the finished shard.
        live: dict[Outcome, int] = {}

        def on_trial(outcome: Outcome, n_faults: int, latency: int | None) -> None:
            nonlocal trial_index
            if emit_trials:
                tel.instant(
                    "trial", cat="campaign", index=trial_index,
                    outcome=outcome.value, faults=n_faults,
                )
            trial_index += 1
            live[outcome] = live.get(outcome, 0) + 1
            if progress is not None:
                so_far = dict(counts)
                for o, n in live.items():
                    so_far[o] = so_far.get(o, 0) + n
                tracker.step({o.value: n for o, n in so_far.items()})

        def absorb(sr: ShardResult, fresh: bool) -> None:
            """Merge one finished shard; persist it when freshly computed."""
            for o, n in sr.counts.items():
                counts[o] = counts.get(o, 0) + n
            state["faults"] += sr.faults
            state["latency_sum"] += sum(sr.latencies)
            state["latency_n"] += len(sr.latencies)
            for v in sr.latencies:
                tel.observe("campaign.detection_latency", v)
            if fresh and ckpt is not None:
                ckpt.append(sr.to_json())
            tel.event(
                "shard-done", shard=sr.index, trials=sr.trials,
                faults=sr.faults, fresh=fresh,
                outcomes={o.value: n for o, n in sr.counts.items()},
            )
            if progress is not None:
                # A serial shard already stepped the tracker per trial.
                tracker.advance(
                    sr.trials - sum(live.values()),
                    {o.value: n for o, n in counts.items()},
                )
            live.clear()

        lost_shards: list[int] = []
        tel.event(
            "campaign-start", trials=trials, seed=seed, jobs=jobs,
            shards=len(shard_plan), fault_model=self.fault_model,
            resumed_shards=len(done),
        )
        with tel.span(
            "campaign", cat="campaign", timer="campaign.seconds",
            trials=trials, seed=seed, jobs=jobs, shards=len(shard_plan),
            fault_model=self.fault_model, resumed_shards=len(done),
            golden_dyn=self.golden.dyn_instructions,
        ) as sp:
            for index in sorted(done):
                absorb(done[index], fresh=False)
            remaining = [
                (index, n) for index, n in enumerate(shard_plan) if index not in done
            ]
            if jobs <= 1 or len(remaining) <= 1:
                for index, n in remaining:
                    sr = self.run_shard(
                        index, n, seed, reference_dyn, on_trial=on_trial
                    )
                    absorb(sr, fresh=True)
            else:
                self._run_shards_pool(
                    remaining, seed, reference_dyn, jobs, absorb, lost_shards,
                    retries=retries, retry_backoff=retry_backoff,
                    shard_timeout=shard_timeout,
                )
            lost_trials = sum(shard_plan[index] for index in lost_shards)
            completed = sum(counts.values())
            if lost_trials:
                logger.warning(
                    "campaign lost %d trial(s) across %d shard(s) to "
                    "unrecoverable worker crashes; returning partial result "
                    "(%d/%d trials)",
                    lost_trials, len(lost_shards), completed, trials,
                )
                tel.count("campaign.lost_trials", lost_trials)
            tel.count("campaign.trials", completed)
            tel.count("campaign.faults_injected", state["faults"])
            for o, n in counts.items():
                tel.count(f"campaign.outcome.{o.value}", n)
            sp.set(
                faults=state["faults"], lost_trials=lost_trials,
                **{f"outcome_{o.value}": n for o, n in counts.items()},
            )
        tel.event(
            "campaign-end", trials=completed, faults=state["faults"],
            lost_trials=lost_trials,
            outcomes={o.value: n for o, n in counts.items()},
        )
        return CampaignResult(
            trials=completed,
            counts=counts,
            total_faults_injected=state["faults"],
            golden_dyn=self.golden.dyn_instructions,
            fault_model=self.fault_model,
            detection_latency_sum=state["latency_sum"],
            detections_timed=state["latency_n"],
            lost_trials=lost_trials,
            partial=lost_trials > 0,
        )

    def _run_shards_pool(
        self,
        remaining: list[tuple[int, int]],
        seed: int,
        reference_dyn: int | None,
        jobs: int,
        absorb: Callable[[ShardResult, bool], None],
        lost_shards: list[int],
        retries: int,
        retry_backoff: float,
        shard_timeout: float | None = None,
    ) -> None:
        """Fan shards out over a process pool; merge as they complete.

        One :func:`~repro.parallel.parallel_map` call dispatches the
        remaining shards as contiguous groups of
        ``ceil(len(remaining) / (TASKS_PER_WORKER * jobs))`` shards (see
        :data:`~repro.parallel.TASKS_PER_WORKER`).  It runs on the ambient
        :class:`~repro.parallel.WorkerPool` when the caller installed one
        (CLI, serve, bench) and on an ephemeral pool otherwise.

        Grouping only decides *dispatch*; the shard remains the RNG /
        checkpoint / retry-accounting unit — a lost task reports every
        shard it carried, and results are bit-identical for any grouping.
        Workers build (or fetch from their content-addressed cache) the
        injector from :meth:`worker_spec`, so profiling happens at most
        once per worker per (program, scheme) — not per task.
        """
        per_task = -(-len(remaining) // (TASKS_PER_WORKER * jobs))
        groups = [
            remaining[i:i + per_task] for i in range(0, len(remaining), per_task)
        ]
        spec = self.worker_spec()

        def on_result(index: int, srs: list[ShardResult]) -> None:
            for sr in srs:
                absorb(sr, fresh=True)

        def on_failure(index: int, exc: BaseException) -> None:
            for shard_index, _ in groups[index]:
                logger.warning("shard %d lost: %s", shard_index, exc)
                get_telemetry().event(
                    "shard-lost", shard=shard_index, error=str(exc)
                )
                lost_shards.append(shard_index)

        parallel_map(
            _campaign_task_worker,
            [(spec, group, seed, reference_dyn) for group in groups],
            jobs=jobs,
            on_result=on_result,
            retries=retries,
            retry_backoff=retry_backoff,
            timeout=shard_timeout,
            on_failure=on_failure,
        )


def _campaign_task_worker(
    task: tuple[CampaignWorkerSpec, list[tuple[int, int]], int, int | None],
) -> list[ShardResult]:
    """Run one contiguous group of shards in one pool dispatch.

    The injector comes from the worker-resident content-addressed cache:
    the first task per (program, scheme) on a worker builds it from the
    spec's shipped profile (decode only — no golden replays), every later
    task reuses it.
    """
    from repro.chaos import chaos_point

    spec, shards, seed, reference_dyn = task
    injector: FaultInjector = worker_cached(spec.key, spec.build)
    out: list[ShardResult] = []
    for shard_index, shard_trials in shards:
        chaos_point("worker.shard")
        out.append(
            injector.run_shard(shard_index, shard_trials, seed, reference_dyn)
        )
    return out

def run_campaign(
    program: Program,
    trials: int,
    seed: int,
    mem_words: int | None = None,
    frame_words: int = 0,
    reference_dyn: int | None = None,
    progress: ProgressCallback | None = None,
    heartbeat: int = 25,
    jobs: int | None = 1,
    fault_model: str = DEFAULT_FAULT_MODEL,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    backend: str | None = None,
    snapshots: bool = True,
    shard_timeout: float | None = None,
) -> CampaignResult:
    """Convenience wrapper: profile + campaign in one call."""
    injector = FaultInjector(
        program, mem_words=mem_words, frame_words=frame_words,
        fault_model=fault_model, backend=backend, snapshots=snapshots,
    )
    return injector.run_campaign(
        trials, seed, reference_dyn=reference_dyn,
        progress=progress, heartbeat=heartbeat, jobs=jobs,
        checkpoint=checkpoint, resume=resume,
        shard_timeout=shard_timeout,
    )
