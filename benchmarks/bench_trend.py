"""Performance-trend ledger and regression gate over ``BENCH_speed.json``.

``bench_speed.py`` measures one snapshot; this tool gives the numbers a
memory.  ``--append`` distills a ``BENCH_speed.json`` report into one
compact JSON line in ``benchmarks/BENCH_history.jsonl`` (committed, so the
trajectory travels with the repo); ``--check`` gates a candidate report
against that history and exits non-zero on a regression.

Wall-clock numbers are only comparable on comparable hardware, so every
entry is tagged with a *cohort* key — ``<system>-<machine>-<cores>c-<host>``
plus the ``--quick`` flag — and absolute throughput checks (trials/s,
executor insn/s) compare the candidate only against entries from the same
cohort.  ``<host>`` is the report's ``host_fingerprint`` (bench_speed.py
hashes the same host facts as perfbench's provenance: kernel, CPU counts,
memory, Python version); entries recorded before reports carried one form
the ``legacy`` cohort and are never compared with fingerprinted ones.  Ratio checks are hardware-independent and always apply:

* ``speedup_vs_baseline`` (the default campaign path — compiled +
  snapshots — over the interp/replay baseline) must stay >=
  ``MIN_BASELINE_SPEEDUP``;
* the pool speedup floor applies only when the report says the parallel
  measurement was meaningful (``parallel_meaningful``: enough effective
  cores for the worker count — see bench_speed.py) on a >= 4-core box;
* under the same conditions, the pool-warm cohort's parallel efficiency
  (``pool_efficiency``: speedup over the serial campaign normalized by
  min(jobs, cores)) must stay >= ``MIN_POOL_EFFICIENCY``;
* within the cohort, serial campaign trials/s, executor insn/s and cold
  compile points/s must not drop more than ``MAX_DROP_FRAC`` below the
  cohort median.

History rows written while campaigns had a separate batched engine carry
``*_batched`` fields; for those rows the batched serial throughput is the
default path's, so it is what the serial trials/s check compares against.

Usage::

    python benchmarks/bench_trend.py --append                # after a bench run
    python benchmarks/bench_trend.py --check                 # gate BENCH_speed.json
    python benchmarks/bench_trend.py --check --candidate other.json
    python benchmarks/bench_trend.py --list                  # show the history
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path
from statistics import median

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.ledger import git_revision  # noqa: E402
from repro.parallel import effective_cores  # noqa: E402

DEFAULT_HISTORY = Path(__file__).resolve().parent / "BENCH_history.jsonl"
DEFAULT_REPORT = REPO_ROOT / "BENCH_speed.json"

#: The default campaign path (compiled + snapshots) must stay at least this
#: many times faster than the interp/replay-from-zero baseline
#: (hardware-independent ratio).
MIN_BASELINE_SPEEDUP = 3.0
#: Pool speedup floor, applied only to meaningful parallel measurements on
#: a >= 4-core machine.
MIN_POOL_SPEEDUP = 1.5
#: Parallel-efficiency floor for the pool-warm cohort (speedup over the
#: serial campaign, normalized by min(jobs, cores)); applied under
#: the same meaningful-parallel conditions as the pool speedup floor.
MIN_POOL_EFFICIENCY = 0.7
#: Maximum tolerated drop of an absolute throughput below its same-cohort
#: historical median.
MAX_DROP_FRAC = 0.15


def cohort_tag(entry: dict) -> str:
    """Hardware-comparability key: same tag => absolute numbers comparable."""
    host = entry.get("host_fingerprint") or "legacy"
    return (
        f"{entry.get('system', '?')}-{entry.get('machine', '?')}-"
        f"{entry.get('effective_cores', '?')}c-{host}"
    )


def entry_from_report(report: dict) -> dict:
    """Distill a full BENCH_speed.json report into one history entry."""
    campaign = report.get("campaign", {})
    executor = report.get("executor", {})
    sweep = report.get("sweep", {})
    compile_ = report.get("compile", {})
    return {
        "recorded_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_rev": git_revision(),
        "system": platform.system().lower(),
        "machine": platform.machine(),
        "python": report.get("python"),
        "quick": bool(report.get("quick", False)),
        "jobs": report.get("jobs"),
        "effective_cores": report.get("effective_cores", effective_cores()),
        # Absent in reports predating host fingerprints (legacy cohort).
        "host_fingerprint": report.get("host_fingerprint"),
        # Reports predating the flag never verified core availability.
        "parallel_meaningful": bool(report.get("parallel_meaningful", False)),
        "insn_per_s": executor.get("insn_per_s"),
        "trials": campaign.get("trials"),
        "trials_per_s_serial": campaign.get("trials_per_s_serial"),
        "trials_per_s_parallel": campaign.get("trials_per_s_parallel"),
        "speedup_vs_baseline": campaign.get("speedup_vs_baseline"),
        "speedup_pool": campaign.get("speedup"),
        # Pool-warm cohort (absent in pre-pool reports and jobs<2 runs).
        "speedup_warm": campaign.get("speedup_warm"),
        "pool_efficiency": campaign.get("pool_efficiency"),
        "speedup_sweep": sweep.get("speedup"),
        # Absent in reports predating the compile section.
        "compile_points_per_s": compile_.get("points_per_s"),
    }


def load_history(path: Path) -> list[dict]:
    if not path.exists():
        return []
    entries = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            print(
                f"warning: {path}:{lineno}: unparsable history line skipped",
                file=sys.stderr,
            )
    return entries


def _history_value(entry: dict, key: str) -> object:
    """``entry[key]``, reading a batched-era row's default-path throughput."""
    if key == "trials_per_s_serial":
        batched = entry.get("trials_per_s_serial_batched")
        if isinstance(batched, (int, float)):
            return batched
    return entry.get(key)


def check(candidate: dict, history: list[dict]) -> list[str]:
    """All regression findings for ``candidate`` against ``history``."""
    failures: list[str] = []

    # -- hardware-independent ratio floors ---------------------------------
    svb = candidate.get("speedup_vs_baseline")
    if svb is not None and svb < MIN_BASELINE_SPEEDUP:
        failures.append(
            f"speedup_vs_baseline {svb}x is below the {MIN_BASELINE_SPEEDUP}x "
            "floor (compiled+snapshots vs interp/replay baseline)"
        )
    pool = candidate.get("speedup_pool")
    if (
        candidate.get("parallel_meaningful")
        and (candidate.get("effective_cores") or 0) >= 4
        and (candidate.get("jobs") or 0) >= 4
        and pool is not None
        and pool < MIN_POOL_SPEEDUP
    ):
        failures.append(
            f"pool speedup {pool}x is below the {MIN_POOL_SPEEDUP}x floor "
            f"on a {candidate['effective_cores']}-core machine "
            f"(jobs={candidate['jobs']})"
        )
    eff = candidate.get("pool_efficiency")
    if (
        candidate.get("parallel_meaningful")
        and (candidate.get("effective_cores") or 0) >= 4
        and (candidate.get("jobs") or 0) >= 4
        and eff is not None
        and eff < MIN_POOL_EFFICIENCY
    ):
        failures.append(
            f"parallel efficiency {eff:.0%} is below the "
            f"{MIN_POOL_EFFICIENCY:.0%} floor (pool-warm campaign vs serial "
            f"campaign on a {candidate['effective_cores']}-core "
            f"machine, jobs={candidate['jobs']})"
        )

    # -- same-cohort absolute throughput -----------------------------------
    tag = cohort_tag(candidate)
    cohort = [
        e
        for e in history
        if cohort_tag(e) == tag and bool(e.get("quick")) == bool(candidate.get("quick"))
    ]
    if not cohort:
        print(
            f"note: no history for cohort {tag} "
            f"(quick={bool(candidate.get('quick'))}); "
            "absolute-throughput checks skipped",
            file=sys.stderr,
        )
        return failures
    for key, label in (
        ("trials_per_s_serial", "serial campaign trials/s"),
        ("insn_per_s", "executor insn/s"),
        ("compile_points_per_s", "compile points/s"),
    ):
        got = candidate.get(key)
        refs = [
            v for v in (_history_value(e, key) for e in cohort)
            if isinstance(v, (int, float))
        ]
        if got is None or not refs:
            continue
        ref = median(refs)
        if ref > 0 and got < (1.0 - MAX_DROP_FRAC) * ref:
            drop = 100.0 * (1.0 - got / ref)
            failures.append(
                f"{label} regressed {drop:.1f}% vs cohort median "
                f"({got:g} vs {ref:g}, {len(refs)} samples, cohort {tag}) — "
                f"allowed drop is {MAX_DROP_FRAC:.0%}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--append", action="store_true",
        help="distill the report into one history line and append it",
    )
    mode.add_argument(
        "--check", action="store_true",
        help="gate the candidate report against the history (exit 1 on regression)",
    )
    mode.add_argument(
        "--list", action="store_true", help="print the history, one line per entry"
    )
    parser.add_argument(
        "--candidate", default=None, metavar="FILE",
        help=f"BENCH_speed.json to append/check (default {DEFAULT_REPORT})",
    )
    parser.add_argument(
        "--history", default=str(DEFAULT_HISTORY), metavar="FILE",
        help="history JSONL path",
    )
    args = parser.parse_args(argv)
    history_path = Path(args.history)
    history = load_history(history_path)

    if args.list:
        for e in history:
            print(
                f"{e.get('recorded_at', '?'):20s}  {e.get('git_rev', '?'):8s}  "
                f"{cohort_tag(e):20s}  quick={str(bool(e.get('quick'))).lower():5s}  "
                f"serial {_history_value(e, 'trials_per_s_serial') or '?'}/s  "
                f"pool {e.get('speedup_pool', '?')}x  "
                f"warm-eff {e.get('pool_efficiency', '?')}  "
                f"vs-baseline {e.get('speedup_vs_baseline', '?')}x  "
                f"compile {e.get('compile_points_per_s') or '?'}/s"
            )
        print(f"{len(history)} entries in {history_path}")
        return 0

    report_path = Path(args.candidate) if args.candidate else DEFAULT_REPORT
    if not report_path.exists():
        print(f"error: report {report_path} does not exist", file=sys.stderr)
        return 2
    try:
        report = json.loads(report_path.read_text())
    except json.JSONDecodeError as exc:
        print(f"error: {report_path} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    candidate = entry_from_report(report)

    if args.append:
        with history_path.open("a") as fh:
            fh.write(json.dumps(candidate, sort_keys=True) + "\n")
        print(
            f"appended {cohort_tag(candidate)} entry "
            f"({candidate['git_rev']}) to {history_path}"
        )
        return 0

    failures = check(candidate, history)
    if failures:
        print(f"trend gate FAILED for {report_path}:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(
        f"trend gate passed for {report_path} "
        f"(cohort {cohort_tag(candidate)}, {len(history)} history entries)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
