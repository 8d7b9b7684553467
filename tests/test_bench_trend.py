"""The bench_trend same-cohort gate covers cold-compile throughput."""

from benchmarks.bench_trend import MAX_DROP_FRAC, check, cohort_tag, entry_from_report


def _entry(points_per_s):
    report = {
        "quick": True,
        "effective_cores": 2,
        "compile": {"points_per_s": points_per_s},
    }
    return entry_from_report(report)


def test_compile_points_per_s_recorded():
    assert _entry(12.5)["compile_points_per_s"] == 12.5
    assert entry_from_report({})["compile_points_per_s"] is None


def test_compile_drop_fails_same_cohort_gate():
    history = [_entry(10.0), _entry(10.0)]
    assert cohort_tag(history[0]) == cohort_tag(_entry(1.0))
    assert check(_entry(10.0 * (1.0 - MAX_DROP_FRAC) + 0.01), history) == []
    failures = check(_entry(5.0), history)
    assert len(failures) == 1 and "compile points/s" in failures[0]


def test_history_without_compile_is_skipped():
    old = _entry(10.0)
    del old["compile_points_per_s"]
    assert check(_entry(1.0), [old]) == []


def _keyed(points_per_s, host):
    report = {
        "quick": True,
        "effective_cores": 2,
        "host_fingerprint": host,
        "compile": {"points_per_s": points_per_s},
    }
    return entry_from_report(report)


def test_host_fingerprint_keys_the_cohort():
    assert _keyed(10.0, "aaaa")["host_fingerprint"] == "aaaa"
    assert entry_from_report({})["host_fingerprint"] is None
    tags = {cohort_tag(_keyed(1.0, "aaaa")), cohort_tag(_keyed(1.0, "bbbb")),
            cohort_tag(_entry(1.0))}
    assert len(tags) == 3
    assert cohort_tag(_entry(1.0)).endswith("-legacy")


def test_same_host_drop_fails_other_host_skipped():
    history = [_keyed(10.0, "aaaa"), _keyed(10.0, "aaaa")]
    failures = check(_keyed(5.0, "aaaa"), history)
    assert len(failures) == 1 and "compile points/s" in failures[0]
    assert check(_keyed(5.0, "bbbb"), history) == []


def test_legacy_and_keyed_entries_never_compared():
    assert check(_keyed(1.0, "aaaa"), [_entry(10.0), _entry(10.0)]) == []
    assert check(_entry(1.0), [_keyed(10.0, "aaaa")]) == []
    # Legacy entries still gate one another.
    assert len(check(_entry(1.0), [_entry(10.0)])) == 1


def test_bench_speed_fingerprint_matches_perfbench_provenance():
    import argparse
    import importlib.util
    from pathlib import Path

    from benchmarks.bench_speed import host_fingerprint

    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    args = argparse.Namespace(workload="grid-cold", seed=1, seconds=1.0, trace=0)
    assert run.provenance(args, 1, 1)["host_fingerprint"] == host_fingerprint()
