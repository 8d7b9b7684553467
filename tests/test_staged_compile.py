"""Compiling from a shared ``-O1`` stage gives the same output as from source.

:class:`~repro.eval.experiment.Evaluator` optimizes each workload once
(:func:`~repro.pipeline.optimize_program`) and compiles every grid point
from that stage.  These tests hold that path to plain
``compile_program(source, ...)`` on every fig 6/7 grid point.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import PassError
from repro.eval.experiment import Evaluator
from repro.eval.metrics import DELAYS, ISSUE_WIDTHS
from repro.ir.printer import canonical_program_text
from repro.machine.config import MachineConfig
from repro.pipeline import CompiledProgram, Scheme, compile_program, optimize_program
from repro.workloads import get_workload, workload_names


def fingerprint(cp: CompiledProgram) -> tuple:
    """Everything a grid point's compile produces that results depend on."""
    ed = cp.ed_info
    return (
        canonical_program_text(cp.program),
        {
            label: (b.cycle_of, b.slot_of, b.length)
            for label, b in cp.schedules.blocks.items()
        },
        cp.stats,
        # json keeps the key order, which plain dict equality ignores
        json.dumps(cp.pass_stats),
        cp.frame_words,
        None
        if ed is None
        else (ed.n_original, ed.n_duplicates, ed.n_shadow_copies, ed.n_checks),
    )


def grid_points() -> list[tuple[Scheme, int, int]]:
    """The distinct fig 6/7 (scheme, issue width, delay) points."""
    return [
        (scheme, iw, d)
        for scheme in Scheme
        for iw in ISSUE_WIDTHS
        for d in (DELAYS if scheme.info.uses_delay else (0,))
    ]


def test_grid_has_280_points():
    assert len(grid_points()) * len(workload_names()) == 280


@pytest.mark.parametrize("workload", workload_names())
def test_staged_compile_matches_unstaged(workload):
    ev = Evaluator(cache=False)
    source = get_workload(workload).program
    for scheme, iw, d in grid_points():
        staged = ev.compiled(workload, scheme, iw, d)
        plain = compile_program(
            source, scheme, MachineConfig(issue_width=iw, inter_cluster_delay=d)
        )
        assert fingerprint(staged) == fingerprint(plain), (scheme, iw, d)
    # one -O1 run served every point
    assert list(ev._optimized) == [workload]


def test_stage_is_not_mutated_by_compiles():
    stage = optimize_program(get_workload("mcf").program)
    text = canonical_program_text(stage.program)
    stats = json.dumps(stage.stats)
    machine = MachineConfig(issue_width=2, inter_cluster_delay=2)
    for scheme in Scheme:
        compile_program(stage, scheme, machine, unsafe_post_ed_cse=True)
    assert canonical_program_text(stage.program) == text
    assert json.dumps(stage.stats) == stats


def test_if_converted_stage_matches_unstaged():
    source = get_workload("cjpeg").program
    machine = MachineConfig(issue_width=2, inter_cluster_delay=2)
    stage = optimize_program(source, if_convert=True)
    for scheme in Scheme:
        assert fingerprint(
            compile_program(stage, scheme, machine, if_convert=True)
        ) == fingerprint(compile_program(source, scheme, machine, if_convert=True))


def test_contradicting_knobs_rejected():
    stage = optimize_program(get_workload("mcf").program)
    machine = MachineConfig()
    with pytest.raises(PassError, match="optimize=False"):
        compile_program(stage, Scheme.NOED, machine, optimize=False)
    with pytest.raises(PassError, match="if_convert"):
        compile_program(stage, Scheme.NOED, machine, if_convert=True)


def test_fresh_evaluator_starts_cold():
    ev = Evaluator(cache=False)
    ev.compiled("mcf", Scheme.SCED, 2, 0)
    assert Evaluator(cache=False)._optimized == {}
