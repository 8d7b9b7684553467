"""Spans, self times and per-layer metrics for the traced run.

The benchmark records its own spans around each call into a layer
(``Recorder``).  In the traced run the library's existing telemetry is also
switched on, and its spans and counters are read back: they reach inside
``Evaluator.perf``/``Evaluator.sweep`` and into pool workers, where the
benchmark cannot put spans of its own.  Both kinds become *intervals*
(layer, start, end, process); a layer's self time is its intervals' time
minus the part covered by nested intervals of the same process.

Spans are kept in memory and written to the run's record file at the end.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator

#: Layer of each benchmark span.  ``unit`` is the root span of one timed
#: unit; its self time is the harness's own glue.
SPAN_LAYER = {
    "unit": "harness",
    "passes": "passes",
    "sim": "sim",
    "eval": "eval",
    "faults.profile": "faults",
    "faults.campaign": "faults",
    "parallel.spawn": "parallel",
}

#: Layer of each existing telemetry span the benchmark reads.  Telemetry
#: spans not named here are left out, so their time counts as self time of
#: the enclosing interval.
TELEMETRY_LAYER = {
    "pipeline": "passes",
    "sim.run": "sim",
    "injector:profile": "faults",
    "injector:snapshots": "faults",
    "campaign": "faults",
    "sweep:point": "eval",
    "worker:init": "parallel",
    "worker:attach-profile": "parallel",
}

#: Pass names as the pass manager's timers spell them; ``assign`` sums every
#: ``assign-*`` pass and ``verify`` is the IR verifier run between passes.
PASSES = (
    "constfold", "copyprop", "local-cse", "licm", "simplify-cfg", "dce",
    "error-detection", "assign", "regalloc", "schedule", "verify",
)

OUTCOMES = ("benign", "detected", "exception", "data-corrupt", "timeout")

CLIENT = 0


class Recorder:
    """In-memory spans: name, start, end, parent, and the unit they belong to."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.unit: int | None = None

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "unit": self.unit,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


class NullRecorder:
    """The untimed stand-in: spans cost one ``nullcontext``."""

    unit: int | None = None

    def span(self, name: str):
        return nullcontext()


@dataclass
class Interval:
    layer: str
    start: float
    end: float
    pid: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


def span_intervals(recorder: Recorder) -> list[Interval]:
    """Intervals of the benchmark's own unit spans (set-up spans left out)."""
    return [
        Interval(SPAN_LAYER[s["name"]], s["start"], s["end"], CLIENT)
        for s in recorder.spans
        if s["unit"] is not None and s["end"] is not None
    ]


def telemetry_intervals(events: list[dict], epoch: float) -> list[Interval]:
    """Intervals of the existing telemetry's complete spans, on one clock.

    Event timestamps are relative to the tracer's ``epoch``, an absolute
    ``perf_counter`` reading (worker events are rebased onto it on merge).
    """
    out = []
    for ev in events:
        layer = TELEMETRY_LAYER.get(ev.get("name", ""))
        if ev.get("ev") != "X" or layer is None:
            continue
        start = epoch + float(ev["ts"])
        out.append(Interval(layer, start, start + float(ev["dur"]), int(ev.get("pid", CLIENT))))
    return out


def pool_wait_intervals(spans: list[Interval], workers: list[Interval]) -> list[Interval]:
    """The client's wait on the pool inside each of its ``eval`` spans.

    ``parallel_map`` has no span of its own, so the wait is taken as the
    window from the first worker task start to the last worker task end
    that falls inside the client's ``eval`` span.
    """
    out = []
    for s in spans:
        if s.layer != "eval":
            continue
        inside = [w for w in workers if s.start <= w.start and w.end <= s.end]
        if inside:
            out.append(Interval("parallel", min(w.start for w in inside),
                                max(w.end for w in inside), CLIENT))
    return out


def forest(intervals: list[Interval]) -> list[tuple[Interval, Interval | None]]:
    """(interval, parent) pairs by containment, per process."""
    pairs = []
    by_pid: dict[int, list[Interval]] = {}
    for iv in intervals:
        by_pid.setdefault(iv.pid, []).append(iv)
    for ivs in by_pid.values():
        stack: list[Interval] = []
        for iv in sorted(ivs, key=lambda i: (i.start, -i.end)):
            while stack and stack[-1].end <= iv.start:
                stack.pop()
            pairs.append((iv, stack[-1] if stack else None))
            stack.append(iv)
    return pairs


def self_times(intervals: list[Interval]) -> dict[str, float]:
    """Self seconds per layer: time not covered by a nested interval."""
    out: dict[str, float] = {}
    for iv, parent in forest(intervals):
        out[iv.layer] = out.get(iv.layer, 0.0) + iv.seconds
        if parent is not None:
            out[parent.layer] = out.get(parent.layer, 0.0) - iv.seconds
    return out


def outermost(intervals: list[Interval], layer: str) -> list[Interval]:
    """Intervals of ``layer`` not nested in another interval of ``layer``.

    One per call into the layer: a benchmark span and the telemetry span
    inside it describe the same call.
    """
    parent_of = {id(iv): parent for iv, parent in forest(intervals)}

    def nested(iv: Interval) -> bool:
        p = parent_of[id(iv)]
        while p is not None:
            if p.layer == layer:
                return True
            p = parent_of[id(p)]
        return False

    return [iv for iv in intervals if iv.layer == layer and not nested(iv)]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    *,
    intervals: list[Interval],
    events: list[dict],
    snapshot: dict,
    frontend_s: float,
    client_profile_s: float,
    unit_wall_s: float,
    pool_jobs: int,
    worker_peak_rss_mb: float,
    outcome_ms: dict[str, float],
) -> tuple[dict[str, tuple[float, str]], dict[str, dict[str, float]]]:
    """Every per-layer metric as ``name -> (value, unit)``, plus ratio bases.

    Layer times (``<layer>.s``) are self times summed over every process:
    the client and, in the pooled workload, the pool workers.  The second
    dict gives each ratio's numerator and denominator.
    """
    counters = snapshot.get("counters", {})
    hists = snapshot.get("histograms", {})

    def count(name: str) -> float:
        return float(counters.get(name, 0))

    def timer_s(name: str) -> float:
        return float(hists.get(name, {}).get("total", 0.0))

    selfs = self_times(intervals)
    compiles = [iv.seconds for iv in outermost(intervals, "passes")]
    sims = outermost(intervals, "sim")
    sim_s = sum(iv.seconds for iv in sims)
    out_insns = sum(
        int(ev.get("args", {}).get("instructions_after", 0))
        for ev in events
        if ev.get("ev") == "X" and ev.get("name") == "pass:schedule"
    )
    trial_dyn = sum(
        int(ev["args"].get("trials", 0)) * int(ev["args"].get("golden_dyn", 0))
        for ev in events
        if ev.get("ev") == "X" and ev.get("name") == "campaign"
    )
    worker_busy = sum(
        iv.seconds for iv, parent in forest(intervals)
        if iv.pid != CLIENT and parent is None
    )
    m: dict[str, tuple[float, str]] = {
        "frontend.s": (frontend_s, "s"),
        "passes.s": (selfs.get("passes", 0.0), "s"),
        "passes.calls": (float(len(compiles)), "count"),
        "passes.p50_ms": (1000.0 * statistics.median(compiles) if compiles else 0.0, "ms"),
        "passes.out_insns": (float(out_insns), "count"),
    }
    for name in PASSES:
        if name == "assign":
            value = sum(
                h.get("total", 0.0) for k, h in hists.items()
                if k.startswith("compile.pass.assign-") and k.endswith(".seconds")
            )
        elif name == "verify":
            value = timer_s("compile.verify.seconds")
        else:
            value = timer_s(f"compile.pass.{name}.seconds")
        m[f"passes.self.{name}_s"] = (float(value), "s")
    m.update({
        "sim.s": (selfs.get("sim", 0.0), "s"),
        "sim.runs": (count("sim.runs"), "count"),
        "sim.insn_per_s": (ratio(count("sim.dyn_instructions"), sim_s), "insn/s"),
        "sim.dyn_insns": (count("sim.dyn_instructions"), "count"),
        "sim.cycles": (count("sim.cycles"), "cycles"),
        "sim.stall_cycles": (count("sim.stall_cycles"), "cycles"),
        "faults.profile_s": (client_profile_s, "s"),
        "faults.golden_s": (timer_s("campaign.profile.seconds"), "s"),
        "faults.snapshot_s": (timer_s("campaign.snapshot_record.seconds"), "s"),
        "faults.campaign_s": (timer_s("campaign.seconds"), "s"),
    })
    for o in OUTCOMES:
        m[f"faults.trials.{o}"] = (count(f"campaign.outcome.{o}"), "count")
    for o in OUTCOMES:
        m[f"faults.trial_ms.{o}"] = (outcome_ms.get(o, 0.0), "ms")
    hits, misses = count("pool.worker_cache.hits"), count("pool.worker_cache.misses")
    g_hits, g_misses = count("eval.golden_cache.hits"), count("eval.golden_cache.misses")
    m.update({
        "faults.converged_ratio": (
            ratio(count("campaign.batch_converged"), count("campaign.trials")), "ratio"),
        "faults.skipped_prefix_ratio": (
            ratio(count("campaign.cycles_skipped"), trial_dyn), "ratio"),
        "parallel.spawn_s": (timer_s("pool.spawn_s"), "s"),
        "parallel.spawns": (count("pool.spawns"), "count"),
        "parallel.respawns": (count("pool.respawns"), "count"),
        "parallel.worker_cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "parallel.busy_ratio": (
            ratio(worker_busy, pool_jobs * unit_wall_s) if pool_jobs > 1 else 0.0, "ratio"),
        "parallel.lost_trials": (count("campaign.lost_trials"), "count"),
        "parallel.worker_peak_rss_mb": (worker_peak_rss_mb, "MB"),
        "eval.s": (selfs.get("eval", 0.0), "s"),
        "eval.golden_cache_hit_ratio": (ratio(g_hits, g_hits + g_misses), "ratio"),
        "eval.cache_misses": (count("eval.cache.misses"), "count"),
    })
    bases = {
        "sim.insn_per_s": {"dyn_insns": count("sim.dyn_instructions"), "sim_s": sim_s},
        "faults.converged_ratio": {
            "converged": count("campaign.batch_converged"), "trials": count("campaign.trials")},
        "faults.skipped_prefix_ratio": {
            "skipped_dyn": count("campaign.cycles_skipped"), "trials_x_golden_dyn": trial_dyn},
        "parallel.worker_cache_hit_ratio": {"hits": hits, "lookups": hits + misses},
        "parallel.busy_ratio": {
            "worker_busy_s": worker_busy, "jobs": pool_jobs, "unit_wall_s": unit_wall_s},
        "eval.golden_cache_hit_ratio": {"hits": g_hits, "lookups": g_hits + g_misses},
    }
    return m, bases


def blocking_self_times(intervals: list[Interval]) -> dict[str, float]:
    """Self seconds per layer on the client's path (what the result waits on)."""
    return self_times([iv for iv in intervals if iv.pid == CLIENT])


def worker_self_times(intervals: list[Interval]) -> dict[str, float]:
    return self_times([iv for iv in intervals if iv.pid != CLIENT])


def cost_table(trials: dict[str, int], sample_n: dict[str, int],
               mean_ms: dict[str, float]) -> list[dict]:
    """Share of trial time by outcome: campaign trials x sampled mean time.

    Each row carries its bases: the campaign trial count and the number of
    sampled trials behind the mean.  An outcome seen in campaigns but never
    in the sample has no time estimate and is marked so.
    """
    est = {o: trials.get(o, 0) * mean_ms.get(o, 0.0) for o in OUTCOMES}
    total = sum(est.values())
    return [
        {
            "outcome": o,
            "campaign_trials": trials.get(o, 0),
            "sampled_trials": sample_n.get(o, 0),
            "mean_ms": mean_ms.get(o, 0.0),
            "est_s": est[o] / 1000.0,
            "time_share": ratio(est[o], total),
            "unsampled": trials.get(o, 0) > 0 and sample_n.get(o, 0) == 0,
        }
        for o in OUTCOMES
    ]
