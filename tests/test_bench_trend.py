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
