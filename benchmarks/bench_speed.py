"""Wall-clock benchmark for the evaluation engine's speed layers.

Measures the per-layer and end-to-end gains and writes them to
``BENCH_speed.json`` (the repo's performance trajectory artifact — CI
uploads it from every run):

* **executor** — raw cycle-level simulation throughput (instructions/s)
  under both execution backends: the per-instruction closure interpreter
  (``interp``) and the fused-superblock code generator (``compiled``,
  the default); a deliberately loose timing assertion guards the hot loop
  against catastrophic regression;
* **campaign** — one Monte-Carlo fault campaign measured four ways so each
  speedup layer is attributed separately (each layer timed as the median
  of three runs, so sub-second campaigns don't flap the trend gate):

  1. ``interp`` backend, snapshots off — the PR-2 baseline configuration,
  2. ``compiled`` backend, snapshots off — layer 1 alone (fused blocks and
     trace-guided post-fault suffixes),
  3. ``compiled`` + golden-run snapshots, serial — the default campaign
     path: every trial resumes from a snapshot and exits early once it
     re-converges with the golden run (layers 1+2),
  4. layer 3 sharded over ``--jobs`` workers.

  All four must produce bit-identical outcome counts, fault totals and
  detection latencies (the determinism contract, asserted);
* **sweep** — a multi-point (workload, scheme, issue-width, delay) grid
  through :meth:`Evaluator.sweep`, serial vs parallel, each from a cold
  cache in its own temp dir, asserting the resulting cache files are
  identical;
* **compile** — a cold ``compile_program`` of every workload under every
  scheme (CASTED only with ``--quick``) at iw2/d2: total seconds, points/s
  and each pass's self seconds from the ``compile.pass.*.seconds`` and
  ``compile.verify.seconds`` telemetry timers.

Run directly::

    python benchmarks/bench_speed.py --jobs 4            # paper-sized
    python benchmarks/bench_speed.py --quick --jobs 2    # CI smoke
    python benchmarks/bench_speed.py --quick --assert-speedup 3

Pool speedups scale with available cores (``effective_cores`` reports the
scheduler-affinity/cgroup-aware count actually available, not the raw
``os.cpu_count``); the compiled-backend and checkpointing speedups do not
need cores at all.  Not a pytest file on purpose — wall-clock A/B needs a
cold cache and a controlled process layout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro.eval.experiment import Evaluator
from repro.faults.injector import FaultInjector
from repro.machine.config import MachineConfig, paper_machine
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry, set_telemetry
from repro.parallel import (
    SHARD_TRIALS,
    WorkerPool,
    effective_cores,
    resolve_jobs,
)
from repro.pipeline import Scheme, compile_program
from repro.sim.executor import VLIWExecutor
from repro.workloads import get_workload, workload_names

#: Throughput floor for the (compiled) executor hot loop — observed ~4M
#: insn/s on a 2026 container core; generous headroom keeps this assertion
#: quick, not flaky.
MIN_EXECUTOR_INSN_PER_S = 250_000


def host_fingerprint() -> str:
    """Short hash of the host facts that make absolute timings comparable.

    Built from the same inputs, in the same order, as the
    ``host_fingerprint`` in ``perfbench/run.py``'s provenance, so a bench
    report and a perfbench record from one host carry the same value.
    """
    uname = os.uname()
    phys_bytes = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    host = [uname.sysname, uname.release, uname.machine, os.cpu_count(),
            effective_cores(), phys_bytes, platform.python_version()]
    return hashlib.sha256(json.dumps(host).encode()).hexdigest()[:16]


def _time(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _median3(fn, reps: int = 3):
    """Run ``fn`` ``reps`` times, return (first result, median elapsed).

    Campaign layers finish in well under a second, so a single-shot timing
    is at the mercy of scheduler noise — enough to flap the bench_trend
    gate.  The median of three is stable without being as flattering as a
    best-of.  Campaigns are deterministic, so every rep returns the same
    result and keeping the first is safe.
    """
    result, first = _time(fn)
    times = sorted([first] + [_time(fn)[1] for _ in range(reps - 1)])
    return result, times[len(times) // 2]


def _parser_casted():
    return compile_program(
        get_workload("parser").program,
        Scheme.CASTED,
        MachineConfig(issue_width=2, inter_cluster_delay=1),
    )


def bench_executor(seconds: float = 1.0) -> dict:
    """Cycle-level simulation throughput, per execution backend."""
    cp = _parser_casted()

    def throughput(backend: str) -> float:
        ex = VLIWExecutor(cp, backend=backend)
        ex.run()  # warm up block fusion / code extraction
        t0 = time.perf_counter()
        insns = 0
        while time.perf_counter() - t0 < seconds:
            insns += ex.run().dyn_instructions
        return insns / (time.perf_counter() - t0)

    interp = throughput("interp")
    compiled = throughput("compiled")
    speedup = compiled / interp if interp > 0 else 0.0
    print(
        f"executor: interp {interp:,.0f} insn/s  "
        f"compiled {compiled:,.0f} insn/s  speedup {speedup:.2f}x"
    )
    assert compiled >= MIN_EXECUTOR_INSN_PER_S, (
        f"executor hot loop regressed: {compiled:,.0f} insn/s is below the "
        f"{MIN_EXECUTOR_INSN_PER_S:,} floor"
    )
    return {
        "insn_per_s": round(compiled),
        "insn_per_s_interp": round(interp),
        "speedup_compiled": round(speedup, 2),
    }


def bench_campaign(trials: int, jobs: int, seed: int = 2013) -> dict:
    """One campaign, measured per speed layer (see module docstring)."""
    cp = _parser_casted()

    def injector(backend: str, snapshots: bool) -> FaultInjector:
        return FaultInjector(
            cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words,
            backend=backend, snapshots=snapshots,
        )

    baseline_inj = injector("interp", snapshots=False)
    compiled_inj = injector("compiled", snapshots=False)
    full_inj = injector("compiled", snapshots=True)

    baseline, baseline_s = _median3(
        lambda: baseline_inj.run_campaign(trials, seed, jobs=1)
    )
    compiled, compiled_s = _median3(
        lambda: compiled_inj.run_campaign(trials, seed, jobs=1)
    )
    serial, serial_s = _median3(
        lambda: full_inj.run_campaign(trials, seed, jobs=1)
    )
    parallel, parallel_s = _median3(
        lambda: full_inj.run_campaign(trials, seed, jobs=jobs)
    )

    def signature(res):
        return (
            res.counts,
            res.total_faults_injected,
            res.detection_latency_sum,
            res.detections_timed,
        )

    for name, res in (
        ("compiled backend", compiled),
        ("compiled+snapshots", serial),
        (f"compiled+snapshots jobs={jobs}", parallel),
    ):
        assert signature(res) == signature(baseline), (
            f"determinism contract violated: {name} differs from the "
            f"interp/replay baseline: {signature(res)} vs {signature(baseline)}"
        )

    speedup_compiled = baseline_s / compiled_s if compiled_s > 0 else 0.0
    speedup_checkpoint = compiled_s / serial_s if serial_s > 0 else 0.0
    speedup_vs_baseline = baseline_s / serial_s if serial_s > 0 else 0.0
    speedup_pool = serial_s / parallel_s if parallel_s > 0 else 0.0
    print(
        f"campaign: {trials} trials (median of 3 per layer)\n"
        f"  interp, replay-from-zero   {baseline_s:6.2f}s "
        f"({trials / baseline_s:7.1f}/s)  [PR-2 baseline config]\n"
        f"  compiled, replay-from-zero {compiled_s:6.2f}s "
        f"({trials / compiled_s:7.1f}/s)  {speedup_compiled:.2f}x\n"
        f"  compiled + snapshots       {serial_s:6.2f}s "
        f"({trials / serial_s:7.1f}/s)  {speedup_checkpoint:.2f}x more, "
        f"{speedup_vs_baseline:.2f}x total\n"
        f"  + jobs={jobs}                  {parallel_s:6.2f}s "
        f"({trials / parallel_s:7.1f}/s)  {speedup_pool:.2f}x over serial"
    )

    # Pool-warm scale cohort: the parallel layer measured the way real
    # campaigns now run — one persistent WorkerPool reused across reps, at
    # a trial count large enough (>= 4 full task waves per worker) that the
    # fixed shard groups have something to amortize.  Comparing against
    # the serial default path at the same scale isolates what the pool
    # itself buys; ``pool_efficiency`` normalizes by the worker count the
    # scheduler can actually run side by side.
    pool_report: dict = {}
    if jobs >= 2:
        scale_trials = max(trials, jobs * 4 * SHARD_TRIALS)
        scale_serial, scale_serial_s = _median3(
            lambda: full_inj.run_campaign(scale_trials, seed, jobs=1)
        )
        with WorkerPool(jobs) as pool:
            warm = full_inj.run_campaign(scale_trials, seed, jobs=jobs)
            scale_parallel, scale_parallel_s = _median3(
                lambda: full_inj.run_campaign(scale_trials, seed, jobs=jobs)
            )
            spawns, reuses = pool.spawns, pool.reuses
        assert signature(warm) == signature(scale_parallel) == signature(
            scale_serial
        ), (
            "determinism contract violated: pool-warm campaign differs from "
            "the serial campaign at the same scale"
        )
        assert spawns == 1, (
            f"persistent pool regressed: {spawns} worker-pool spawns across "
            f"4 campaign runs (expected exactly 1)"
        )
        speedup_warm = (
            scale_serial_s / scale_parallel_s if scale_parallel_s > 0 else 0.0
        )
        workers = min(jobs, effective_cores())
        pool_efficiency = speedup_warm / workers
        print(
            f"  pool-warm, {scale_trials} trials  "
            f"serial {scale_serial_s:6.2f}s  jobs={jobs} "
            f"{scale_parallel_s:6.2f}s  {speedup_warm:.2f}x "
            f"({pool_efficiency:.0%} of {workers} workers; "
            f"spawns={spawns} reuses={reuses})"
        )
        pool_report = {
            "scale_trials": scale_trials,
            "scale_serial_s": round(scale_serial_s, 3),
            "scale_parallel_s": round(scale_parallel_s, 3),
            "speedup_warm": round(speedup_warm, 2),
            "pool_efficiency": round(pool_efficiency, 2),
            "pool_spawns": spawns,
            "pool_reuses": reuses,
        }

    return {
        "workload": "parser",
        "scheme": "casted",
        "trials": trials,
        "shard_trials": SHARD_TRIALS,
        "timing": "median-of-3",
        "interp_serial_s": round(baseline_s, 3),
        "compiled_serial_s": round(compiled_s, 3),
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "trials_per_s_serial": round(trials / serial_s, 1),
        "trials_per_s_parallel": round(trials / parallel_s, 1),
        "speedup_compiled": round(speedup_compiled, 2),
        "speedup_checkpoint": round(speedup_checkpoint, 2),
        "speedup_vs_baseline": round(speedup_vs_baseline, 2),
        "speedup": round(speedup_pool, 2),
        "deterministic": True,
        **pool_report,
    }


def bench_sweep(points: list[tuple], trials: int, jobs: int, seed: int = 2013) -> dict:
    """A multi-point grid through Evaluator.sweep, cold cache each way."""

    def run(n_jobs: int, cache_dir: str) -> tuple[float, dict]:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        ev = Evaluator(seed=seed, cache=True)
        _, elapsed = _time(lambda: ev.sweep(points, trials=trials, jobs=n_jobs))
        files = {p.name: p.read_text() for p in ev._cache_dir.glob("*.json")}
        return elapsed, files

    saved = os.environ.get("REPRO_CACHE_DIR")
    try:
        with tempfile.TemporaryDirectory() as d1, tempfile.TemporaryDirectory() as d2:
            serial_s, serial_files = run(1, d1)
            parallel_s, parallel_files = run(jobs, d2)
    finally:
        if saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved
    assert serial_files == parallel_files, (
        "determinism contract violated: serial and parallel sweeps produced "
        "different cache files"
    )
    speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
    print(
        f"sweep: {len(points)} points x {trials} trials  "
        f"serial {serial_s:.2f}s  jobs={jobs} {parallel_s:.2f}s  "
        f"speedup {speedup:.2f}x"
    )
    return {
        "points": len(points),
        "trials": trials,
        "cache_files": len(serial_files),
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(speedup, 2),
        "deterministic": True,
    }


def bench_compile(schemes: list[Scheme]) -> dict:
    """Cold compiles of every workload under ``schemes`` at iw2/d2, per pass."""
    programs = [get_workload(w).program for w in workload_names()]
    machine = paper_machine(issue_width=2, delay=2)
    registry = MetricsRegistry()
    previous = set_telemetry(Telemetry(metrics=registry))
    try:
        t0 = time.perf_counter()
        for program in programs:
            for scheme in schemes:
                compile_program(program, scheme, machine)
        seconds = time.perf_counter() - t0
    finally:
        set_telemetry(previous)
    # Pass timers never nest, so each total is that pass's self time.
    prefix, suffix = "compile.pass.", ".seconds"
    pass_seconds = {
        name[len(prefix):-len(suffix)]: round(hist.total, 3)
        for name, hist in sorted(registry.histograms.items())
        if name.startswith(prefix) and name.endswith(suffix)
    }
    pass_seconds["verify"] = round(
        registry.histograms["compile.verify.seconds"].total, 3
    )
    points = len(programs) * len(schemes)
    top = sorted(pass_seconds.items(), key=lambda kv: -kv[1])[:5]
    print(
        f"compile: {points} points at iw2/d2  {seconds:.2f}s  "
        f"({points / seconds:.1f} points/s)  top passes: "
        + ", ".join(f"{name} {secs:.2f}s" for name, secs in top)
    )
    return {
        "points": points,
        "schemes": [s.value for s in schemes],
        "machine": "iw2/d2",
        "seconds": round(seconds, 3),
        "points_per_s": round(points / seconds, 2),
        "pass_seconds": pass_seconds,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="parallel worker count (default 0 = all cores)",
    )
    parser.add_argument(
        "--trials", type=int, default=300,
        help="campaign trials (default 300, the paper's count)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: tiny trial count, a 2-point grid and CASTED-only "
        "compiles",
    )
    parser.add_argument(
        "--assert-speedup", type=float, default=None, metavar="X",
        help="fail unless the default campaign configuration (compiled + "
        "snapshots, serial) is at least X times faster than the interp/"
        "replay baseline",
    )
    parser.add_argument(
        "--assert-pool-efficiency", type=float, default=None, metavar="F",
        help="fail unless the pool-warm campaign reaches at least F x "
        "min(jobs, cores) speedup over the serial campaign; only "
        "enforced when the parallel timings are meaningful (>= 4 effective "
        "cores, >= 4 jobs, no oversubscription) — skipped with a note "
        "otherwise",
    )
    parser.add_argument(
        "--out", default="BENCH_speed.json", help="output JSON path"
    )
    args = parser.parse_args(argv)

    jobs = resolve_jobs(args.jobs)
    cores = effective_cores()
    # Pool speedup is only a meaningful measurement when the scheduler can
    # actually run workers side by side.  With fewer effective cores than
    # workers the "parallel" numbers measure oversubscription overhead, not
    # parallelism — record them, but say so loudly and mark the report so
    # downstream gates (benchmarks/bench_trend.py) skip the speedup floor.
    parallel_meaningful = jobs >= 2 and cores >= jobs
    if jobs >= 2 and cores < jobs:
        print(
            "=" * 72
            + f"\nWARNING: --jobs {jobs} but only {cores} effective core(s)"
            " (affinity/cgroup-aware).\n"
            "Parallel timings below measure pool overhead under"
            " oversubscription,\nNOT parallel speedup.  They are recorded"
            " with parallel_meaningful=false\nand excluded from"
            " parallel-speedup regression gating.\n"
            + "=" * 72,
            file=sys.stderr,
        )
    trials = 2 * SHARD_TRIALS if args.quick else args.trials
    if args.quick:
        points = [("mcf", Scheme.CASTED, 2, 1), ("mcf", Scheme.SCED, 2, 1)]
        sweep_trials = SHARD_TRIALS
    else:
        points = [
            (w, s, iw, 1)
            for w in ("parser", "mcf")
            for s in (Scheme.NOED, Scheme.SCED, Scheme.CASTED)
            for iw in (1, 2)
        ]
        sweep_trials = trials

    report = {
        "bench": "speed",
        "quick": args.quick,
        "jobs": jobs,
        "effective_cores": cores,
        "parallel_meaningful": parallel_meaningful,
        "python": sys.version.split()[0],
        "host_fingerprint": host_fingerprint(),
        "executor": bench_executor(),
        "campaign": bench_campaign(trials, jobs),
        "sweep": bench_sweep(points, sweep_trials, jobs),
        "compile": bench_compile(
            [Scheme.CASTED] if args.quick else list(Scheme)
        ),
    }
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")

    if args.assert_speedup is not None:
        got = report["campaign"]["speedup_vs_baseline"]
        assert got >= args.assert_speedup, (
            f"campaign speedup regressed: compiled+snapshots is only {got}x "
            f"the interp/replay baseline (required >= {args.assert_speedup}x)"
        )
        print(f"speedup gate passed: {got}x >= {args.assert_speedup}x")

    if args.assert_pool_efficiency is not None:
        if parallel_meaningful and cores >= 4 and jobs >= 4:
            got = report["campaign"]["pool_efficiency"]
            assert got >= args.assert_pool_efficiency, (
                f"parallel efficiency regressed: the pool-warm campaign "
                f"reaches only {got:.0%} of {min(jobs, cores)} workers "
                f"(required >= {args.assert_pool_efficiency:.0%})"
            )
            print(
                f"pool efficiency gate passed: {got:.0%} >= "
                f"{args.assert_pool_efficiency:.0%}"
            )
        else:
            print(
                "note: pool-efficiency gate skipped "
                f"(jobs={jobs}, effective_cores={cores}; needs >= 4 of "
                "each without oversubscription)",
                file=sys.stderr,
            )

    if not parallel_meaningful:
        print(
            "note: parallel-speedup checks skipped "
            f"(jobs={jobs}, effective_cores={cores})",
            file=sys.stderr,
        )
    elif cores >= 4 and jobs >= 4 and not args.quick:
        for section in ("campaign", "sweep"):
            if report[section]["speedup"] < 2.0:
                print(
                    f"warning: {section} speedup "
                    f"{report[section]['speedup']}x < 2x on a "
                    f"{cores}-core machine",
                    file=sys.stderr,
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
