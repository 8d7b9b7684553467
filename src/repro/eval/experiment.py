"""Sweep driver with result caching.

``Evaluator`` is the single entry point the figure producers and benchmark
harnesses use.  Every (workload, scheme, issue-width, delay) point is

* compiled through the full pipeline,
* run once on the cycle-level executor for timing, and
* optionally subjected to a fault-injection campaign;

results are memoized in memory and, unless disabled, persisted as JSON under
``.repro_cache/`` so re-running a different benchmark that shares points is
cheap.  Everything is deterministic given the seed.

Grids of points can be evaluated concurrently with :meth:`Evaluator.sweep`:
workers compute records in their own processes (memoizing in memory only)
and ship them back to the parent, which is the **only** writer of the disk
cache — every file lands via an atomic temp-file + ``os.replace`` so
concurrent sweeps and interrupted runs can never leave a truncated entry.
Sweep results (and the cache files they produce) are identical to a serial
run: per-point campaign seeds derive from the point's coordinates, never
from execution order.  See ``docs/performance.md``.

Set ``REPRO_CACHE=0`` to disable the disk cache, ``REPRO_CACHE_DIR`` to move
it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.faults.classify import Outcome
from repro.ir.interp import ExitKind
from repro.faults.injector import CampaignResult, FaultInjector
from repro.ir.printer import canonical_program_text
from repro.machine.config import MachineConfig
from repro.obs import get_telemetry
from repro.obs.progress import ProgressCallback, ProgressTracker
from repro.parallel import parallel_map, resolve_jobs
from repro.pipeline import (
    CompiledProgram,
    OptimizedProgram,
    Scheme,
    compile_program,
    optimize_program,
)
from repro.sim.executor import VLIWExecutor
from repro.utils.rng import derive_seed
from repro.workloads import get_workload

#: Bump when a change invalidates previously cached results.  v6: campaigns
#: draw from per-shard RNG streams (repro.parallel.SHARD_TRIALS), which
#: changes coverage numbers relative to the old single-stream campaigns.
#: v7: LICM hoists in block layout order, so compiled code no longer
#: depends on PYTHONHASHSEED (entries written before were seed-dependent).
CACHE_VERSION = 7

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PerfRecord:
    """Timing + static stats of one compiled run."""

    workload: str
    scheme: str
    issue_width: int
    delay: int
    cycles: int
    stall_cycles: int
    dyn_instructions: int
    static_cycles: int
    code_growth: float
    n_spilled: int
    frame_words: int
    exit_code: int

    @property
    def compute_cycles(self) -> int:
        return self.cycles - self.stall_cycles


@dataclass(frozen=True)
class CoverageRecord:
    """Fault-campaign outcome fractions of one configuration."""

    workload: str
    scheme: str
    issue_width: int
    delay: int
    trials: int
    fractions: dict[str, float]  # outcome value -> fraction
    total_faults: int
    # Defaults keep records loadable from cache entries written before the
    # fault-model / detection-latency fields existed.
    fault_model: str = "reg-bit"
    mean_detection_latency: float = 0.0

    def fraction(self, outcome: Outcome) -> float:
        return self.fractions.get(outcome.value, 0.0)

    @property
    def coverage(self) -> float:
        return 1.0 - self.fraction(Outcome.SDC) - self.fraction(Outcome.TIMEOUT)


def _scheme_delay(scheme: Scheme, delay: int) -> int:
    """Single-cluster schemes never pay the inter-cluster delay.

    Normalising the delay axis to 0 for them collapses equivalent cache
    keys; the fact itself (``uses_delay``) comes from the scheme registry.
    """
    return delay if scheme.info.uses_delay else 0


#: Process-wide golden-run dedupe for fault campaigns (LRU, content-keyed).
#:
#: A :class:`FaultInjector` profiles its golden run (trace + snapshots) in
#: ``__init__``, which is pure fixed overhead a sweep re-pays for every grid
#: point that compiles to the same program — e.g. delay-only variations of a
#: (workload, scheme) pair.  Keying by a hash of the *printed post-regalloc
#: program* (plus the memory/frame geometry and fault model) makes the reuse
#: exact-by-construction: identical key means identical golden execution, so
#: a cached injector's campaigns are bit-identical to a fresh one's.  The
#: cache is module-level so sweep pool workers, which persist across tasks,
#: amortize goldens across the points they are handed.
_INJECTOR_CACHE: OrderedDict[tuple, FaultInjector] = OrderedDict()
_INJECTOR_CACHE_MAX = 8

#: Content-exact program identity (``!of<uid>`` tags renumbered); lives in
#: :mod:`repro.ir.printer` now that the worker pool's content-addressed
#: cache shares it.  Kept under the old private name for callers/tests.
_canonical_program_text = canonical_program_text


def _cached_injector(cp: CompiledProgram, fault_model: str) -> FaultInjector:
    tel = get_telemetry()
    key = (
        hashlib.sha256(_canonical_program_text(cp.program).encode()).hexdigest(),
        cp.mem_words,
        cp.frame_words,
        fault_model,
    )
    injector = _INJECTOR_CACHE.get(key)
    if injector is not None:
        _INJECTOR_CACHE.move_to_end(key)
        tel.count("eval.golden_cache.hits")
        return injector
    tel.count("eval.golden_cache.misses")
    injector = FaultInjector(
        cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words,
        fault_model=fault_model,
    )
    _INJECTOR_CACHE[key] = injector
    while len(_INJECTOR_CACHE) > _INJECTOR_CACHE_MAX:
        _INJECTOR_CACHE.popitem(last=False)
    return injector


class Evaluator:
    def __init__(self, seed: int = 2013, cache: bool | None = None) -> None:
        self.seed = seed
        if cache is None:
            cache = os.environ.get("REPRO_CACHE", "1") != "0"
        self._disk = cache
        self._cache_dir = Path(
            os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
        )
        self._mem: dict[str, dict] = {}
        self._compiled: dict[tuple, CompiledProgram] = {}
        #: Each workload's ``-O1`` prefix, run once and compiled from at
        #: every grid point (it depends on neither scheme nor machine).
        self._optimized: dict[str, OptimizedProgram] = {}

    # -- caching ---------------------------------------------------------------
    def _load(self, key: str) -> dict | None:
        tel = get_telemetry()
        if key in self._mem:
            tel.count("eval.cache.mem_hits")
            return self._mem[key]
        if self._disk:
            path = self._cache_dir / f"{key}.json"
            if path.exists():
                # A corrupt or unreadable cache entry is never fatal: warn
                # once, count it, quarantine the file (renamed `.bad` so the
                # evidence survives but later runs don't re-parse and
                # re-warn), and fall through to recompute — the caller will
                # publish a fresh entry via _store.
                try:
                    data = json.loads(path.read_text())
                except (OSError, ValueError) as exc:
                    logger.warning(
                        "corrupt result cache %s: %s — quarantining and "
                        "recomputing", path, exc,
                    )
                    tel.count("eval.cache.corrupt")
                    tel.instant(
                        "cache-corrupt", cat="eval", key=key, error=str(exc)
                    )
                    self._quarantine(path)
                    return None
                if not isinstance(data, dict):
                    logger.warning(
                        "corrupt result cache %s: expected object, got %s — "
                        "quarantining and recomputing",
                        path, type(data).__name__,
                    )
                    tel.count("eval.cache.corrupt")
                    tel.instant(
                        "cache-corrupt", cat="eval", key=key,
                        error=f"expected object, got {type(data).__name__}",
                    )
                    self._quarantine(path)
                    return None
                self._mem[key] = data
                tel.count("eval.cache.disk_hits")
                return data
        tel.count("eval.cache.misses")
        return None

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a corrupt cache entry aside as ``<name>.bad`` (best-effort).

        ``os.replace`` keeps this atomic and idempotent — a second corrupt
        copy of the same key overwrites the first quarantined one.  Failure
        to rename (e.g. a read-only cache dir) is non-fatal: the entry is
        simply recomputed again next run, which is the old behaviour.
        """
        try:
            os.replace(path, path.with_name(f"{path.name}.bad"))
        except OSError as exc:  # pragma: no cover - depends on fs perms
            logger.warning("could not quarantine %s: %s", path, exc)

    def _store(self, key: str, data: dict) -> None:
        self._mem[key] = data
        if self._disk:
            self._cache_dir.mkdir(parents=True, exist_ok=True)
            path = self._cache_dir / f"{key}.json"
            # Atomic publish: write the whole entry to a per-process temp
            # file, then os.replace it into place.  An interrupted writer
            # leaves at worst a stale .tmp (never a truncated .json), and
            # concurrent writers of the same deterministic key are benign —
            # last replace wins with identical content.
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            try:
                tmp.write_text(json.dumps(data))
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)

    # -- compilation --------------------------------------------------------------
    def compiled(
        self, workload: str, scheme: Scheme, issue_width: int, delay: int
    ) -> CompiledProgram:
        delay = _scheme_delay(scheme, delay)
        key = (workload, scheme, issue_width, delay)
        if key not in self._compiled:
            stage = self._optimized.get(workload)
            if stage is None:
                stage = optimize_program(get_workload(workload).program)
                self._optimized[workload] = stage
            machine = MachineConfig(issue_width=issue_width, inter_cluster_delay=delay)
            self._compiled[key] = compile_program(stage, scheme, machine)
        return self._compiled[key]

    # -- cache keys ---------------------------------------------------------------
    def _perf_key(
        self, workload: str, scheme: Scheme, issue_width: int, delay: int
    ) -> str:
        return f"v{CACHE_VERSION}_perf_{workload}_{scheme.value}_iw{issue_width}_d{delay}"

    def _cov_key(
        self,
        workload: str,
        scheme: Scheme,
        issue_width: int,
        delay: int,
        trials: int,
        fault_model: str = "reg-bit",
    ) -> str:
        # The default model keeps the historical key shape so existing cache
        # entries (and their recorded figures) stay valid.
        suffix = "" if fault_model == "reg-bit" else f"_fm-{fault_model}"
        return (
            f"v{CACHE_VERSION}_cov_{workload}_{scheme.value}_iw{issue_width}_d{delay}"
            f"_t{trials}_s{self.seed}{suffix}"
        )

    # -- performance ---------------------------------------------------------------
    def perf(
        self, workload: str, scheme: Scheme, issue_width: int, delay: int
    ) -> PerfRecord:
        delay = _scheme_delay(scheme, delay)
        key = self._perf_key(workload, scheme, issue_width, delay)
        data = self._load(key)
        if data is None:
            cp = self.compiled(workload, scheme, issue_width, delay)
            result = VLIWExecutor(cp).run()
            if result.kind is not ExitKind.OK:
                raise RuntimeError(
                    f"{workload}/{scheme.value} failed: {result.kind} {result}"
                )
            data = asdict(
                PerfRecord(
                    workload=workload,
                    scheme=scheme.value,
                    issue_width=issue_width,
                    delay=delay,
                    cycles=result.cycles,
                    stall_cycles=result.stall_cycles,
                    dyn_instructions=result.dyn_instructions,
                    static_cycles=cp.stats.static_cycles,
                    code_growth=cp.stats.code_growth,
                    n_spilled=cp.stats.n_spilled,
                    frame_words=cp.frame_words,
                    exit_code=result.exit_code,
                )
            )
            self._store(key, data)
        return PerfRecord(**data)

    # -- fault coverage ---------------------------------------------------------------
    def coverage(
        self,
        workload: str,
        scheme: Scheme,
        issue_width: int,
        delay: int,
        trials: int,
        fault_model: str = "reg-bit",
    ) -> CoverageRecord:
        delay = _scheme_delay(scheme, delay)
        key = self._cov_key(workload, scheme, issue_width, delay, trials, fault_model)
        data = self._load(key)
        if data is None:
            reference_dyn = None
            if scheme is not Scheme.NOED:
                noed = self.perf(workload, Scheme.NOED, issue_width, delay)
                reference_dyn = noed.dyn_instructions
            cp = self.compiled(workload, scheme, issue_width, delay)
            injector = _cached_injector(cp, fault_model)
            campaign: CampaignResult = injector.run_campaign(
                trials=trials,
                seed=derive_seed(self.seed, workload, scheme.value, issue_width, delay),
                reference_dyn=reference_dyn,
            )
            data = {
                "workload": workload,
                "scheme": scheme.value,
                "issue_width": issue_width,
                "delay": delay,
                "trials": trials,
                "fractions": {o.value: f for o, f in (
                    (o, campaign.fraction(o)) for o in Outcome
                )},
                "total_faults": campaign.total_faults_injected,
                "fault_model": fault_model,
                "mean_detection_latency": campaign.mean_detection_latency,
            }
            self._store(key, data)
        return CoverageRecord(**data)

    # -- parallel grids ---------------------------------------------------------------
    def sweep(
        self,
        points: list[tuple],
        trials: int | None = None,
        jobs: int | None = 1,
        progress: ProgressCallback | None = None,
    ) -> list[dict]:
        """Evaluate ``(workload, scheme, issue_width, delay)`` grid points.

        Returns one ``{"perf": PerfRecord, "coverage": CoverageRecord |
        None}`` dict per point, in point order; ``coverage`` is computed
        only when ``trials`` is given.  ``scheme`` may be a
        :class:`~repro.pipeline.Scheme` or its string value.

        With ``jobs > 1`` the points missing from the cache are computed in
        worker processes (each worker memoizes in memory only) and every
        record a worker produced — including the NOED reference points
        coverage needs for rate matching — is merged back here, the sole
        cache writer.  Point seeds derive from the point's coordinates, so
        records and cache files are identical to a serial run.

        ``progress`` receives one heartbeat per computed point.
        """
        norm: list[tuple[str, Scheme, int, int]] = []
        for workload, scheme, issue_width, delay in points:
            scheme = Scheme(scheme)
            norm.append(
                (workload, scheme, issue_width, _scheme_delay(scheme, delay))
            )

        def is_cached(point: tuple[str, Scheme, int, int]) -> bool:
            workload, scheme, issue_width, delay = point
            if self._load(self._perf_key(workload, scheme, issue_width, delay)) is None:
                return False
            if trials is None:
                return True
            return (
                self._load(
                    self._cov_key(workload, scheme, issue_width, delay, trials)
                )
                is not None
            )

        missing = [p for p in dict.fromkeys(norm) if not is_cached(p)]
        tracker = ProgressTracker(len(missing), progress, every=1)
        jobs = resolve_jobs(jobs)
        tel = get_telemetry()
        tel.event(
            "sweep-start", points=len(norm), missing=len(missing), jobs=jobs,
            trials=trials,
        )
        if missing and (jobs <= 1 or len(missing) <= 1):
            for workload, scheme, issue_width, delay in missing:
                self.perf(workload, scheme, issue_width, delay)
                if trials is not None:
                    self.coverage(workload, scheme, issue_width, delay, trials)
                tracker.advance(1, {})
        elif missing:
            if trials is not None:
                # Rate-matched campaigns need the NOED reference perf of
                # every protected point.  Compute those here (cheap: one
                # compile + timed run, no campaign) so workers don't each
                # redo them, then ship all known perf records along.
                for workload, scheme, issue_width, delay in missing:
                    if scheme is not Scheme.NOED:
                        self.perf(workload, Scheme.NOED, issue_width, delay)
            known = {
                key: data
                for key, data in self._mem.items()
                if key.startswith(f"v{CACHE_VERSION}_perf_")
            }
            tasks = [
                (self.seed, workload, scheme.value, issue_width, delay, trials, known)
                for workload, scheme, issue_width, delay in missing
            ]

            def on_result(index: int, records: dict[str, dict]) -> None:
                for key, data in records.items():
                    self._store(key, data)
                tracker.advance(1, {})

            parallel_map(
                _sweep_point_worker, tasks, jobs=jobs, on_result=on_result
            )
        tel.event("sweep-end", points=len(norm), computed=len(missing))
        return [
            {
                "perf": self.perf(workload, scheme, issue_width, delay),
                "coverage": (
                    self.coverage(workload, scheme, issue_width, delay, trials)
                    if trials is not None
                    else None
                ),
            }
            for workload, scheme, issue_width, delay in norm
        ]


def _sweep_point_worker(task) -> dict[str, dict]:
    """Compute one grid point in a worker process.

    The worker evaluator never touches the disk cache — it preloads the
    records the parent already has (``known``) and returns only the *new*
    in-memory records (cache key -> JSON-ready dict) for the parent to
    persist, which keeps a single writer per cache directory.
    """
    seed, workload, scheme_value, issue_width, delay, trials, known = task
    with get_telemetry().span(
        "sweep:point", cat="eval", workload=workload, scheme=scheme_value,
        issue_width=issue_width, delay=delay,
    ):
        ev = Evaluator(seed=seed, cache=False)
        ev._mem.update(known)
        scheme = Scheme(scheme_value)
        ev.perf(workload, scheme, issue_width, delay)
        if trials is not None:
            ev.coverage(workload, scheme, issue_width, delay, trials)
        return {key: data for key, data in ev._mem.items() if key not in known}
