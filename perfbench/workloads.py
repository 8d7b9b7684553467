"""The benchmark's four workloads.

Load is a closed loop: one client process calls the library's public API
and waits for each result.  A run is a whole number of *rounds*; a round
is a fixed list of *units* drawn from the run's seed, and a unit is the
thing timed:

* ``grid-cold`` — one fig 6/7 grid point through ``Evaluator.perf`` on an
  evaluator with no disk cache (one per round, so every point compiles);
* ``inject-sdc`` / ``inject-detect`` — one ``repro inject``-shaped campaign
  from source: ``compile_program`` (plus the NOED reference compile and
  cycle-level run that rate-match a protected scheme), ``FaultInjector``,
  ``run_campaign(jobs=1)``;
* ``fig9-pool`` — the whole fig 9 coverage set through
  ``Evaluator.sweep(..., jobs=2)`` inside one ``WorkerPool(2)``.

Each workload also says how to check a unit (``check``, untimed) and, for
the campaign workloads, how to draw the seeded per-outcome trial sample the
traced run times (``sample``).  See README.md for why each one exists.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.eval.experiment import Evaluator
from repro.faults.classify import Outcome
from repro.faults.injector import CampaignResult, FaultInjector
from repro.frontend import compile_source
from repro.machine.config import MachineConfig
from repro.parallel import WorkerPool
from repro.pipeline import CompiledProgram, Scheme, compile_program
from repro.sim.executor import VLIWExecutor
from repro.utils.rng import derive_seed, make_rng
from repro.workloads import get_workload, workload_names

import oracle

#: Worker processes of the one pooled workload.
POOL_JOBS = 2

#: The fig 6/7 axes.
ISSUE_WIDTHS = (1, 2, 3, 4)
DELAYS = (1, 2, 3, 4)

#: The fig 9 / ``repro inject`` machine: issue width 2, inter-cluster delay 2.
IW2_D2 = MachineConfig(issue_width=2, inter_cluster_delay=2)

#: Trials per ``repro inject`` campaign (the CLI default).
INJECT_TRIALS = 200

#: Trials per fig 9 campaign (the paper's 300 single-bit flips).
FIG9_TRIALS = 300

#: Trials drawn per campaign for the traced run's per-outcome cost sample.
OUTCOME_SAMPLE = 16


class Checks:
    """References for one run, plus the simulated statistics it has seen.

    ``references`` maps a workload name to the architectural state its
    front-end program reaches on the IR interpreter; missing entries are
    computed on first use.  Tests pass a wrong one to prove a bad unit is
    reported as failed.
    """

    def __init__(self, references: dict[str, tuple] | None = None) -> None:
        self._references = dict(references or {})
        self.sims = oracle.SimRecords()

    def reference(self, workload: str) -> tuple:
        if workload not in self._references:
            self._references[workload] = oracle.reference_state(
                get_workload(workload).program
            )
        return self._references[workload]


class OutcomeSample:
    """Host time of single trials, by outcome (traced run only)."""

    def __init__(self) -> None:
        self.n: dict[str, int] = {o.value: 0 for o in Outcome}
        self.seconds: dict[str, float] = {o.value: 0.0 for o in Outcome}
        #: Trials per outcome over every measured campaign (the weights).
        self.campaign_trials: dict[str, int] = {o.value: 0 for o in Outcome}

    def add(self, outcome: Outcome, seconds: float) -> None:
        self.n[outcome.value] += 1
        self.seconds[outcome.value] += seconds

    def mean_ms(self, outcome: str) -> float:
        n = self.n[outcome]
        return 1000.0 * self.seconds[outcome] / n if n else 0.0


def first_failure(*messages: str | None) -> str | None:
    return next((m for m in messages if m), None)


def frontend_setup(use_registry: bool) -> None:
    """Front-end compile of every workload source (the set-up work).

    ``use_registry`` goes through ``get_workload(..).program``, which caches
    the program for the run; otherwise the same compile runs uncached so
    that set-up can be repeated and timed.
    """
    for name in workload_names():
        workload = get_workload(name)
        if use_registry:
            workload.program
        else:
            compile_source(workload.source, name=workload.name)


def warm_pool(pool: WorkerPool) -> None:
    """Spawn the pool's workers with one trivial task each."""
    pool.map(abs, [0] * pool.jobs)


# -- grid-cold -------------------------------------------------------------------


class GridCold:
    """Fig 6/7 grid points through ``Evaluator.perf``, serially, no disk cache."""

    name = "grid-cold"
    item = "point"
    pooled = False
    #: Host seconds of one round on the reference host (see README.md).
    nominal_round_s = 5.0
    #: Every ``deep_every``-th unit also checks its full architectural state.
    deep_every = 4

    @staticmethod
    def strata() -> list[tuple[str, Scheme, list[tuple[int, int]]]]:
        """(workload, scheme, distinct (issue width, delay) points).

        Single-cluster schemes never pay the inter-cluster delay, so their
        points differ by issue width only (the evaluator's own rule).
        """
        out = []
        for name in workload_names():
            for scheme in Scheme:
                delays = DELAYS if scheme.info.uses_delay else (0,)
                out.append(
                    (name, scheme, [(iw, d) for iw in ISSUE_WIDTHS for d in delays])
                )
        return out

    def plan(self, seed: int, rnd: int) -> list[tuple]:
        """One point per (workload, scheme) stratum, in seeded order.

        Each stratum walks its own seeded permutation of its points, so a
        run of up to four rounds never repeats a point.
        """
        points = []
        for name, scheme, grid in self.strata():
            order = make_rng(seed, "grid", name, scheme.value).permutation(len(grid))
            iw, d = grid[int(order[rnd % len(grid)])]
            points.append((name, scheme, iw, d))
        order = make_rng(seed, "grid-order", rnd).permutation(len(points))
        return [points[int(i)] for i in order]

    @contextmanager
    def round(self, seed: int, rnd: int, span: Callable) -> Iterator[Evaluator]:
        yield Evaluator(seed=seed, cache=False)

    @staticmethod
    def label(spec: tuple) -> str:
        name, scheme, iw, d = spec
        return f"{name}/{scheme.value}/iw{iw}/d{d}"

    def run(self, spec: tuple, ev: Evaluator, span: Callable) -> tuple[int, Any]:
        name, scheme, iw, d = spec
        # Evaluator.perf compiles through Evaluator.compiled; calling that
        # first is the same work and lets the trace split compile from run.
        with span("passes"):
            cp = ev.compiled(name, scheme, iw, d)
        with span("eval"):
            perf = ev.perf(name, scheme, iw, d)
        return 1, (cp, perf)

    def check(
        self, spec: tuple, ev: Evaluator, artifact: Any, checks: Checks, deep: bool
    ) -> tuple[str | None, dict]:
        cp, perf = artifact
        name = spec[0]
        fp = oracle.fingerprint(cp)
        detail = {
            "fingerprint": fp, "cycles": perf.cycles,
            "stall_cycles": perf.stall_cycles, "dyn_instructions": perf.dyn_instructions,
        }
        reference = checks.reference(name)
        failure = first_failure(
            oracle.diff("exit code", perf.exit_code, reference[1]),
            checks.sims.note(
                fp, self.label(spec), perf.cycles, perf.stall_cycles, perf.dyn_instructions
            ),
        )
        if failure is None and deep:
            state = VLIWExecutor(cp).run().architectural_state
            failure = oracle.diff("architectural state", state, reference)
        return failure, detail

    def sample(self, spec, artifact, outcomes: OutcomeSample) -> None:
        return None


# -- inject-sdc / inject-detect ---------------------------------------------------


@dataclass
class Campaign:
    compiled: CompiledProgram
    injector: FaultInjector
    result: CampaignResult
    reference_dyn: int | None
    seed: int


class InjectCampaigns:
    """``repro inject``-shaped campaigns from source, serially, one per program."""

    item = "trial"
    pooled = False
    #: One deep (interp-oracle) check per round.
    deep_every = 7

    def __init__(self, name: str, scheme: Scheme, nominal_round_s: float) -> None:
        self.name = name
        self.scheme = scheme
        self.nominal_round_s = nominal_round_s

    def plan(self, seed: int, rnd: int) -> list[tuple]:
        """Every program once, in seeded order; round ``r`` uses seed + r."""
        names = workload_names()
        order = make_rng(seed, "inject-order", rnd).permutation(len(names))
        return [(names[int(i)], seed + rnd) for i in order]

    def round(self, seed: int, rnd: int, span: Callable):
        return nullcontext(None)

    def label(self, spec: tuple) -> str:
        return f"{spec[0]}/{self.scheme.value}/seed{spec[1]}"

    def run(self, spec: tuple, state: None, span: Callable) -> tuple[int, Campaign]:
        name, seed = spec
        program = get_workload(name).program
        with span("passes"):
            cp = compile_program(program, self.scheme, IW2_D2)
        reference_dyn = None
        if self.scheme is not Scheme.NOED:
            # Rate matching, exactly as `repro inject` does it.
            with span("passes"):
                noed = compile_program(program, Scheme.NOED, IW2_D2)
            with span("sim"):
                reference_dyn = VLIWExecutor(noed).run().dyn_instructions
        with span("faults.profile"):
            injector = FaultInjector(
                cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words
            )
        with span("faults.campaign"):
            result = injector.run_campaign(
                INJECT_TRIALS, seed, reference_dyn=reference_dyn, jobs=1
            )
        return result.trials, Campaign(cp, injector, result, reference_dyn, seed)

    def check(
        self, spec: tuple, state: None, c: Campaign, checks: Checks, deep: bool
    ) -> tuple[str | None, dict]:
        sim = VLIWExecutor(c.compiled).run()
        fp = oracle.fingerprint(c.compiled)
        summary = oracle.campaign_summary(c.result)
        detail = {
            "fingerprint": fp, "cycles": sim.cycles, "stall_cycles": sim.stall_cycles,
            "dyn_instructions": sim.dyn_instructions, "campaign": summary,
        }
        failure = first_failure(
            oracle.diff("completed trials", c.result.trials, INJECT_TRIALS),
            oracle.diff("golden dyn vs cycle-level run", c.result.golden_dyn,
                        sim.dyn_instructions),
            checks.sims.note(
                fp, self.label(spec), sim.cycles, sim.stall_cycles, sim.dyn_instructions
            ),
        )
        if failure is None and deep:
            failure = oracle.diff(
                "campaign vs interp backend", summary,
                oracle.interp_campaign(c.compiled, INJECT_TRIALS, c.seed, c.reference_dyn),
            )
        return failure, detail

    def sample(self, spec: tuple, c: Campaign, outcomes: OutcomeSample) -> None:
        """Time single trials of a seeded sample, drawn as the campaign draws."""
        for outcome, n in c.result.counts.items():
            outcomes.campaign_trials[outcome.value] += n
        rng = make_rng(c.seed, "perfbench-outcome-sample", spec[0])
        for _ in range(OUTCOME_SAMPLE):
            faults = c.injector.faults_for_trial(rng, c.reference_dyn)
            t0 = time.perf_counter()
            outcome = c.injector.run_trial(faults)
            outcomes.add(outcome, time.perf_counter() - t0)


# -- fig9-pool -----------------------------------------------------------------------


@dataclass
class Sweep:
    evaluator: Evaluator
    points: list[tuple]
    rows: list[dict]


class Fig9Pool:
    """The fig 9 coverage set through ``Evaluator.sweep`` on a 2-worker pool."""

    name = "fig9-pool"
    item = "trial"
    pooled = True
    nominal_round_s = 13.5
    deep_every = 1

    def plan(self, seed: int, rnd: int) -> list[tuple]:
        return [("fig9", seed + rnd)]

    @contextmanager
    def round(self, seed: int, rnd: int, span: Callable) -> Iterator[WorkerPool]:
        """A fresh pool per round, so every round starts with cold workers."""
        with WorkerPool(POOL_JOBS) as pool:
            with span("parallel.spawn"):
                warm_pool(pool)
            yield pool

    @staticmethod
    def label(spec: tuple) -> str:
        return f"fig9/seed{spec[1]}"

    def run(self, spec: tuple, pool: WorkerPool, span: Callable) -> tuple[int, Sweep]:
        ev = Evaluator(seed=spec[1], cache=False)
        points = [(name, scheme, 2, 2) for name in workload_names() for scheme in Scheme]
        with span("eval"):
            rows = ev.sweep(points, trials=FIG9_TRIALS, jobs=POOL_JOBS)
        return sum(row["coverage"].trials for row in rows), Sweep(ev, points, rows)

    def check(
        self, spec: tuple, pool: WorkerPool, s: Sweep, checks: Checks, deep: bool
    ) -> tuple[str | None, dict]:
        ev = s.evaluator
        failures = []
        for (name, scheme, iw, d), row in zip(s.points, s.rows):
            label = f"{name}/{scheme.value}"
            failures.append(oracle.diff(f"{label} trials", row["coverage"].trials, FIG9_TRIALS))
            failures.append(oracle.diff(
                f"{label} exit code", row["perf"].exit_code, checks.reference(name)[1]
            ))
        # The parent compiled every NOED point itself (rate-matching
        # references); record their fingerprints and simulated statistics.
        programs = {}
        for name in workload_names():
            cp = ev.compiled(name, Scheme.NOED, 2, 2)
            perf = ev.perf(name, Scheme.NOED, 2, 2)
            fp = oracle.fingerprint(cp)
            programs[f"{name}/noed"] = {"fingerprint": fp, "cycles": perf.cycles}
            failures.append(checks.sims.note(
                fp, f"{name}/noed/iw2/d2", perf.cycles, perf.stall_cycles,
                perf.dyn_instructions,
            ))
        failure = first_failure(*failures)
        if failure is None and deep:
            i = derive_seed(spec[1], "fig9-check") % len(s.points)
            failure = self.check_point(ev, s.points[i], s.rows[i]["coverage"])
        return failure, {"programs": programs}

    @staticmethod
    def check_point(ev: Evaluator, point: tuple, record) -> str | None:
        """Replay one pooled campaign on the interp backend in this process."""
        name, scheme, iw, d = point
        reference_dyn = (
            None if scheme is Scheme.NOED
            else ev.perf(name, Scheme.NOED, iw, d).dyn_instructions
        )
        # The evaluator derives campaign seeds from the normalized delay.
        seed = derive_seed(ev.seed, name, scheme.value, iw, d if scheme.info.uses_delay else 0)
        want = oracle.interp_campaign(ev.compiled(name, scheme, iw, d), FIG9_TRIALS,
                                      seed, reference_dyn)
        n = want["trials"]
        got = {
            "fractions": record.fractions,
            "faults": record.total_faults,
            "mean_latency": record.mean_detection_latency,
        }
        ref = {
            "fractions": {o.value: want["counts"].get(o.value, 0) / n for o in Outcome},
            "faults": want["faults"],
            "mean_latency": (
                want["latency_sum"] / want["detections"] if want["detections"] else 0.0
            ),
        }
        return oracle.diff(f"{name}/{scheme.value} pooled campaign vs interp backend", got, ref)

    def sample(self, spec, artifact, outcomes: OutcomeSample) -> None:
        return None


WORKLOADS = {
    w.name: w
    for w in (
        GridCold(),
        InjectCampaigns("inject-sdc", Scheme.NOED, nominal_round_s=6.8),
        InjectCampaigns("inject-detect", Scheme.CASTED, nominal_round_s=5.3),
        Fig9Pool(),
    )
}
