"""Correctness references for the benchmark's units (never timed).

Every reference is independent of the layer it checks:

* grid points are checked against the architectural state (exit kind,
  exit code, output) of the *unoptimized* front-end program run on the IR
  interpreter, so the reference depends on neither the passes nor the
  cycle simulator;
* campaigns are checked against a campaign over the same compiled program
  and seed on the ``interp`` backend, the repository's differential
  oracle: outcome counts, faults injected and the detection-latency sum
  must all be equal;
* simulated statistics must repeat exactly for an identical program
  fingerprint (sha256 of the canonical printed IR).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.faults.injector import CampaignResult, FaultInjector
from repro.ir.interp import Interpreter
from repro.ir.printer import canonical_program_text
from repro.ir.program import Program
from repro.pipeline import CompiledProgram


def reference_state(program: Program) -> tuple:
    """(exit kind, exit code, output) of ``program`` on the IR interpreter."""
    return Interpreter(program, backend="interp").run().architectural_state


def fingerprint(cp: CompiledProgram) -> str:
    """sha256 of a compiled program's canonical printed IR and its machine.

    The machine is part of the identity: one IR scheduled for two issue
    widths or delays simulates to different cycle counts.
    """
    text = canonical_program_text(cp.program) + "\n" + repr(cp.machine)
    return hashlib.sha256(text.encode()).hexdigest()


def campaign_summary(res: CampaignResult) -> dict:
    """The campaign fields two backends must agree on."""
    return {
        "trials": res.trials,
        "counts": {o.value: n for o, n in sorted(res.counts.items(), key=lambda kv: kv[0].value)},
        "faults": res.total_faults_injected,
        "latency_sum": res.detection_latency_sum,
        "detections": res.detections_timed,
        "lost_trials": res.lost_trials,
    }


def interp_campaign(
    cp: CompiledProgram, trials: int, seed: int, reference_dyn: int | None
) -> dict:
    """The same campaign on the ``interp`` backend (scalar trial loop)."""
    injector = FaultInjector(
        cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words,
        backend="interp",
    )
    return campaign_summary(
        injector.run_campaign(trials, seed, reference_dyn=reference_dyn, jobs=1)
    )


def diff(label: str, got: object, want: object) -> str | None:
    """A failure message when ``got != want``, else ``None``."""
    if got == want:
        return None
    return f"{label}: got {got!r}, reference {want!r}"


@dataclass
class SimRecords:
    """Simulated statistics per program fingerprint, as seen in one run.

    A later record with the same fingerprint must carry identical
    statistics; the table itself goes into the run's record file so that
    cross-run divergence (hash-seed dependent compiles) shows there.
    """

    by_fingerprint: dict[str, dict] = field(default_factory=dict)

    def note(self, fp: str, label: str, cycles: int, stall_cycles: int, dyn: int) -> str | None:
        stats = {"cycles": cycles, "stall_cycles": stall_cycles, "dyn_instructions": dyn}
        seen = self.by_fingerprint.get(fp)
        if seen is None:
            self.by_fingerprint[fp] = {"program": label, **stats}
            return None
        return diff(f"{label} sim stats for {fp[:12]}", stats, {
            k: seen[k] for k in stats
        })
