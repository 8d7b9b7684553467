"""Campaign parity: the compiled trial path against the interp oracle.

Every campaign trial runs one path: resume from the nearest golden
snapshot, then — on the compiled backend — a trace-guided post-fault
suffix with a golden re-convergence early exit.  Those exits promise
bit-identical :class:`CampaignResult`s, and the interp backend (which runs
the plain loop) is the reference they are held to across the full
workload x scheme matrix and every fault model.  The remaining tests pin
the pieces the promise rests on: checkpoint/resume mid-campaign, the
trace guide as a pure speed change, ``run_trial`` sharing the campaign
executor, and the convergence / guidance counters.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.faults.injector import FaultInjector
from repro.faults.models import fault_model_names
from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_program
from repro.utils.rng import make_rng
from repro.workloads import get_workload, workload_names

MACHINE = MachineConfig(issue_width=2, inter_cluster_delay=1)
SEED = 2013
TRIALS = 25  # one shard

_COMPILED: dict[tuple[str, Scheme], object] = {}


def _compiled(workload: str, scheme: Scheme):
    key = (workload, scheme)
    if key not in _COMPILED:
        _COMPILED[key] = compile_program(
            get_workload(workload).program, scheme, MACHINE
        )
    return _COMPILED[key]


def _injector(cp, **kwargs) -> FaultInjector:
    return FaultInjector(
        cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words,
        **kwargs,
    )


def _signature(res) -> tuple:
    return (
        res.counts,
        res.trials,
        res.total_faults_injected,
        res.detection_latency_sum,
        res.detections_timed,
    )


@pytest.mark.parametrize("workload", workload_names())
@pytest.mark.parametrize(
    "scheme", [Scheme.NOED, Scheme.SCED, Scheme.DCED, Scheme.CASTED]
)
class TestParityMatrix:
    """Compiled == interp on every workload x scheme cell."""

    def test_compiled_matches_interp(self, workload, scheme):
        cp = _compiled(workload, scheme)
        interp = _injector(cp, backend="interp").run_campaign(
            TRIALS, SEED, jobs=1
        )
        compiled = _injector(cp, backend="compiled").run_campaign(
            TRIALS, SEED, jobs=1
        )
        assert _signature(compiled) == _signature(interp)


@pytest.mark.parametrize("model", fault_model_names())
def test_compiled_matches_interp_per_fault_model(model):
    cp = _compiled("parser", Scheme.CASTED)
    interp, compiled = (
        _injector(cp, backend=backend, fault_model=model).run_campaign(
            30, SEED, jobs=1
        )
        for backend in ("interp", "compiled")
    )
    assert _signature(compiled) == _signature(interp)


class TestCheckpointResume:
    def test_resume_mid_campaign_is_bit_identical(self, tmp_path):
        cp = _compiled("parser", Scheme.CASTED)
        full = _injector(cp, backend="compiled").run_campaign(75, SEED, jobs=1)

        ckpt = tmp_path / "campaign.ckpt"
        _injector(cp, backend="compiled").run_campaign(
            75, SEED, jobs=1, checkpoint=str(ckpt)
        )
        # Simulate an interruption after the first completed shard: keep
        # the header line and one shard record.
        lines = ckpt.read_text().splitlines()
        ckpt.write_text("\n".join(lines[:2]) + "\n")

        resumed = _injector(cp, backend="compiled").run_campaign(
            75, SEED, jobs=1, checkpoint=str(ckpt), resume=True
        )
        assert _signature(resumed) == _signature(full)


class TestSinglePath:
    def test_trace_guide_is_result_invariant(self):
        cp = _compiled("parser", Scheme.CASTED)
        guided = _injector(cp, backend="compiled")
        unguided = _injector(cp, backend="compiled")
        converge, guide = unguided._accelerators()
        assert guide is not None
        unguided._accel = (converge, None)
        r1 = guided.run_campaign(50, SEED, jobs=1)
        r2 = unguided.run_campaign(50, SEED, jobs=1)
        assert _signature(r1) == _signature(r2)
        assert guided._accelerators()[1].visits > 0

    def test_interp_runs_the_plain_loop(self):
        cp = _compiled("parser", Scheme.CASTED)
        assert _injector(cp, backend="interp")._accelerators() == (None, None)

    def test_pool_campaign_matches_serial(self):
        cp = _compiled("parser", Scheme.CASTED)
        serial = _injector(cp, backend="compiled").run_campaign(75, SEED, jobs=1)
        pooled = _injector(cp, backend="compiled").run_campaign(75, SEED, jobs=2)
        assert _signature(pooled) == _signature(serial)

    def test_run_trial_matches_shard_outcomes(self):
        """``run_trial`` on a shard's pre-drawn faults == its ``on_trial``."""
        cp = _compiled("parser", Scheme.CASTED)
        noed = _compiled("parser", Scheme.NOED)
        reference = _injector(noed).golden.dyn_instructions
        inj = _injector(cp, backend="compiled")
        shard_index = 1
        seen: list[tuple] = []
        inj.run_shard(
            shard_index, TRIALS, SEED, reference,
            on_trial=lambda o, n, lat: seen.append((o, n, lat)),
        )
        rng = make_rng(SEED, "fault-campaign", shard_index)
        drawn = [inj.faults_for_trial(rng, reference) for _ in range(TRIALS)]
        assert [inj.run_trial(f) for f in drawn] == [o for o, _, _ in seen]
        assert [len(f) for f in drawn] == [n for _, n, _ in seen]


def _accelerator_counters(backend: str) -> tuple[float, float]:
    cp = _compiled("parser", Scheme.CASTED)
    injector = _injector(cp, backend=backend)
    obs.reset()
    tel = obs.configure()
    try:
        injector.run_campaign(50, SEED, jobs=1)
    finally:
        obs.reset()
    counters = tel.metrics.snapshot()["counters"]
    return (
        counters.get("campaign.batch_converged", 0),
        counters.get("campaign.batch_guided_visits", 0),
    )


class TestAcceleratorCounters:
    def test_compiled_campaign_converges_and_guides(self):
        converged, guided = _accelerator_counters("compiled")
        assert converged > 0
        assert guided > 0

    def test_interp_campaign_records_zero(self):
        assert _accelerator_counters("interp") == (0, 0)
