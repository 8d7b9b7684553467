"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it records spans, switches the
library's existing telemetry on, and prints the per-layer metrics, the
self time of each layer along the client's blocking path, the per-outcome
trial cost table and the tracing overhead (it reruns the same units
untraced in a child process for that).  Human-readable tables go first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record of the run
(provenance, every unit, program fingerprints, spans) is written under
``.perfbench/`` in the checkout.

The library is imported from ``src/`` of the checkout this file sits in;
without it the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import time

#: Process start, before the library is imported: imports count as set-up.
_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("grid-cold", "inject-sdc", "inject-detect", "fig9-pool")

#: Set-up is repeated this many times per run; its median is reported.
SETUP_REPS = 5

#: Limit on the untraced rerun that measures tracing overhead.
CHILD_TIMEOUT_S = 150


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="target run length; sets the number of whole rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", type=Path, default=None,
                   help="record file (default: .perfbench/<workload>-...json)")
    return p.parse_args(argv)


def rounds_for(seconds: float, nominal_round_s: float) -> int:
    """Whole rounds in a run: the same for every commit at one ``--seconds``."""
    return max(1, round(seconds / nominal_round_s))


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    """sha256 over the library sources: the code identity without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args: argparse.Namespace, jobs: int, rounds: int) -> dict:
    from repro.parallel import effective_cores

    uname = os.uname()
    phys_bytes = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    host = [uname.sysname, uname.release, uname.machine, os.cpu_count(),
            effective_cores(), phys_bytes, platform.python_version()]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "trace": args.trace,
        "jobs": jobs,
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "effective_cores": effective_cores(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "host_fingerprint": hashlib.sha256(json.dumps(host).encode()).hexdigest()[:16],
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


@contextmanager
def telemetry_paused():
    """Run checks and samples with telemetry off, so they never count."""
    from repro.obs import NULL_TELEMETRY, set_telemetry

    previous = set_telemetry(NULL_TELEMETRY)
    try:
        yield
    finally:
        set_telemetry(previous)


def measure_setup(wl, reps: int) -> tuple[float, float]:
    """Median (set-up, front-end) seconds over ``reps`` repetitions.

    Set-up is the front-end compile of every workload source plus, for the
    pooled workload, spawning and warming a pool.  The last repetition
    leaves the compiled sources cached for the run.
    """
    from repro.parallel import WorkerPool
    from workloads import POOL_JOBS, frontend_setup, warm_pool

    totals, fronts = [], []
    for i in range(reps):
        t0 = time.perf_counter()
        frontend_setup(use_registry=i == reps - 1)
        t1 = time.perf_counter()
        t2 = t1
        if wl.pooled:
            pool = WorkerPool(POOL_JOBS)
            try:
                warm_pool(pool)
                t2 = time.perf_counter()
            finally:
                pool.shutdown()
        totals.append(t2 - t0)
        fronts.append(t1 - t0)
    return statistics.median(totals), statistics.median(fronts)


def run_rounds(wl, seed: int, rounds: int, recorder, checks, outcomes, speed) -> list[dict]:
    """Run every unit of every round; time each, then check it untimed.

    ``speed`` takes its host-speed samples between units, never inside one.
    """
    from repro.utils.rng import derive_seed

    units: list[dict] = []
    for rnd in range(rounds):
        with wl.round(seed, rnd, recorder.span) as state:
            plan = wl.plan(seed, rnd)
            deep_at = derive_seed(seed, "deep-check", rnd) % wl.deep_every
            for i, spec in enumerate(plan):
                unit = {"label": wl.label(spec), "round": rnd, "items": 0,
                        "seconds": None, "failure": None}
                units.append(unit)
                speed.maybe_sample()
                recorder.unit = len(units) - 1
                t0 = time.perf_counter()
                try:
                    with recorder.span("unit"):
                        items, artifact = wl.run(spec, state, recorder.span)
                except Exception as exc:  # a failing unit is counted, not fatal
                    unit["failure"] = f"raised {type(exc).__name__}: {exc}"
                    continue
                finally:
                    recorder.unit = None
                unit["seconds"] = time.perf_counter() - t0
                unit["items"] = items
                with telemetry_paused():
                    try:
                        failure, detail = wl.check(
                            spec, state, artifact, checks, deep=i % wl.deep_every == deep_at
                        )
                    except Exception as exc:
                        failure, detail = f"check raised {type(exc).__name__}: {exc}", {}
                    unit["failure"] = failure
                    unit.update(detail)
                    if outcomes is not None:
                        wl.sample(spec, artifact, outcomes)
    return units


def untraced_unit_seconds(args: argparse.Namespace, record: Path) -> float | None:
    """Total unit reference seconds of the same units run untraced, in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--record", str(record)]
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
                       check=True)
        data = json.loads(record.read_text())
    except (OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"warning: untraced rerun failed ({exc}); no overhead figure",
              file=sys.stderr)
        return None
    finally:
        record.unlink(missing_ok=True)
    return data["unit_seconds_total"] * data["host_speed"]["scale"]


def table(headers: list[str], rows: list[list]) -> str:
    from repro.utils.tables import format_table

    return format_table(headers, rows)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def traced_report(args, recorder, telemetry, outcomes, frontend_s: float,
                  unit_total: float, n_units: int, jobs: int,
                  worker_rss: float, scale: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run; prints the layer and cost tables.

    Layer times are host seconds; the tracing overhead compares reference
    seconds, because the untraced side runs later in another process.
    Returns the metrics and the extra fields for the record file.
    """
    from tracing import (
        blocking_self_times, cost_table, layer_metrics, pool_wait_intervals,
        span_intervals, telemetry_intervals, worker_self_times,
    )

    intervals = span_intervals(recorder)
    events = telemetry.tracer.events
    tel_ivs = telemetry_intervals(events, telemetry.tracer.epoch)
    workers = [iv for iv in tel_ivs if iv.pid != 0]
    intervals += tel_ivs + pool_wait_intervals(intervals, workers)
    client_profile_s = sum(
        s["end"] - s["start"] for s in recorder.spans
        if s["name"] == "faults.profile" and s["end"] is not None
    )
    mean_ms = {o: outcomes.mean_ms(o) for o in outcomes.n}
    metrics, bases = layer_metrics(
        intervals=intervals, events=events, snapshot=telemetry.metrics.snapshot(),
        frontend_s=frontend_s, client_profile_s=client_profile_s,
        unit_wall_s=unit_total, pool_jobs=jobs, worker_peak_rss_mb=worker_rss,
        outcome_ms=mean_ms,
    )
    blocking = blocking_self_times(intervals)
    worker_selfs = worker_self_times(intervals)
    costs = cost_table(outcomes.campaign_trials, outcomes.n, mean_ms)
    child = untraced_unit_seconds(args, ROOT / ".perfbench" / f"untraced-{os.getpid()}.json")
    traced_ref = unit_total * scale
    overhead_s = traced_ref - child if child is not None else 0.0
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["trace.overhead_ratio"] = (overhead_s / child if child else 0.0, "ratio")

    print(table(["layer", "self s (client)", "share of unit time"], [
        [layer, fmt(s), f"{100 * s / unit_total:.1f}%" if unit_total else "-"]
        for layer, s in sorted(blocking.items(), key=lambda kv: -kv[1])
    ]))
    print(f"(base: {n_units} units, {fmt(unit_total)} s of unit time)")
    if worker_selfs:
        busy = sum(worker_selfs.values())
        print(table(["layer", "self s (pool workers)", "share of worker time"], [
            [layer, fmt(s), f"{100 * s / busy:.1f}%"]
            for layer, s in sorted(worker_selfs.items(), key=lambda kv: -kv[1])
        ]))
    if any(outcomes.campaign_trials.values()):
        print(table(
            ["outcome", "campaign trials", "sampled", "mean ms", "est s", "time share"],
            [[c["outcome"], c["campaign_trials"], c["sampled_trials"],
              fmt(c["mean_ms"]), fmt(c["est_s"]),
              "unsampled" if c["unsampled"] else f"{100 * c['time_share']:.1f}%"]
             for c in costs],
        ))
        print(f"(base: {sum(outcomes.campaign_trials.values())} campaign trials, "
              f"{sum(outcomes.n.values())} sampled single trials, "
              "scalar run_trial timing)")
    print(f"tracing overhead: traced {fmt(traced_ref)} s - untraced "
          f"{fmt(child) if child is not None else '?'} s = {fmt(overhead_s)} s "
          "(reference seconds)")
    return metrics, {
        "blocking_self_s": blocking, "worker_self_s": worker_selfs,
        "cost_table": costs, "ratio_bases": bases, "spans": recorder.spans,
        "untraced_unit_seconds_total": child,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: library source {SRC / 'repro'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from repro import obs
    from hostspeed import REFERENCE_KERNEL_S, HostSpeed
    from tracing import NullRecorder, Recorder
    from workloads import POOL_JOBS, WORKLOADS, Checks, OutcomeSample

    import_s = time.perf_counter() - _T_START
    wl = WORKLOADS[args.workload]
    rounds = rounds_for(args.seconds, wl.nominal_round_s)
    jobs = POOL_JOBS if wl.pooled else 1
    prov = provenance(args, jobs, rounds)
    setup_median_s, frontend_s = measure_setup(wl, SETUP_REPS)
    setup_s = import_s + setup_median_s

    traced = args.trace == 1
    telemetry = obs.configure(metrics=True, keep_events=True) if traced else None
    recorder = Recorder() if traced else NullRecorder()
    outcomes = OutcomeSample() if traced else None
    checks = Checks()
    speed = HostSpeed()
    speed.sample()
    units = run_rounds(wl, args.seed, rounds, recorder, checks, outcomes, speed)
    speed.sample()
    if traced:
        obs.reset()

    times = [u["seconds"] for u in units if u["seconds"] is not None]
    failed = sum(1 for u in units if u["failure"])
    items = sum(u["items"] for u in units)
    unit_total = sum(times)
    client_rss = peak_rss_mb(resource.RUSAGE_SELF)
    worker_rss = peak_rss_mb(resource.RUSAGE_CHILDREN) if wl.pooled else 0.0
    raw = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (items / unit_total if unit_total else 0.0, "1/s"),
        "unit_p50_ms": (1000.0 * statistics.median(times) if times else 0.0, "ms"),
    }
    # Times in reference seconds (see hostspeed.py); memory as measured.
    scale = speed.scale
    e2e = {
        "setup_s": (raw["setup_s"][0] * scale, "s"),
        "items_per_s": (raw["items_per_s"][0] / scale, "1/s"),
        "unit_p50_ms": (raw["unit_p50_ms"][0] * scale, "ms"),
        "peak_rss_mb": (client_rss, "MB"),
    }

    record: dict = {"provenance": prov, "setup": {
        "import_s": import_s, "setup_median_s": setup_median_s, "reps": SETUP_REPS}}
    print(f"perfbench {args.workload}: seed {args.seed}, {rounds} round(s), "
          f"{len(units)} unit(s), {items} {wl.item}(s), jobs {jobs}, "
          f"trace {args.trace}")
    print("provenance: " + ", ".join(
        f"{k}={prov[k]}" for k in ("git_rev", "python", "nproc", "effective_cores",
                                   "pythonhashseed", "host_fingerprint")
    ) + f", src_sha256={prov['src_sha256'][:16]}")
    print(f"host speed: kernel median {fmt(1000 * statistics.median(speed.samples))} ms over "
          f"{len(speed.samples)} runs, reference {fmt(1000 * REFERENCE_KERNEL_S)} ms, "
          f"scale {fmt(scale)}; raw host-time values: " + ", ".join(
              f"{k}={fmt(v)} {unit}" for k, (v, unit) in raw.items()))

    if traced:
        metrics, extra = traced_report(args, recorder, telemetry, outcomes, frontend_s,
                                       unit_total, len(times), jobs, worker_rss, scale)
        record.update(extra)
    else:
        metrics = e2e

    print(table(["metric", "value", "unit"],
                [[name, fmt(v), unit] for name, (v, unit) in metrics.items()]))
    attempted = len(units)
    print(f"error_rate: {failed}/{attempted} = {fmt(failed / attempted)}")
    if len(times) >= 100:
        p90 = statistics.quantiles(times, n=10)[-1]
        print(f"unit_p90_ms: {fmt(1000 * p90)} (n={len(times)})")
    else:
        print(f"unit_p90_ms: not reported (n={len(times)}; needs >= 100 units so that "
              "10 lie beyond it)")
    for u in units:
        if u["failure"]:
            print(f"FAILED {u['label']}: {u['failure']}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    record.update({
        "e2e": {k: v for k, (v, _) in e2e.items()},
        "e2e_host_time": {k: v for k, (v, _) in raw.items()},
        "host_speed": {"samples_s": speed.samples, "scale": scale,
                       "reference_kernel_s": REFERENCE_KERNEL_S},
        "metrics": result["metrics"],
        "unit_seconds_total": unit_total,
        "attempted": attempted, "failed": failed,
        "units": units, "sim_records": checks.sims.by_fingerprint,
        "worker_peak_rss_mb": worker_rss,
    })
    path = args.record or ROOT / ".perfbench" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, default=str))
    print(f"record: {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
