"""IR well-formedness checks.

Run after the front end and after every transforming pass (cheap insurance:
all pass bugs in this project manifest as malformed IR long before they
manifest as wrong benchmark numbers).

Structural shape (non-empty terminated blocks, operand classes, branch
targets) is always enforced.  The use-before-def check rides on the shared
dataflow framework's :class:`~repro.analysis.dataflow.MustDefined` analysis:
a register read that is not definitely defined on *every* path from the
entry is rejected.  Pass ``check_defs=False`` for IR from stages that are
legitimately not yet def-clean (e.g. hand-built fragments before the
renaming/shadow-copy step has materialized every producer).
"""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.basic_block import DETECT_LABEL
from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.ir.program import Program
from repro.isa.opcodes import Opcode


def verify_function(
    function: Function,
    allow_unreachable: bool = False,
    check_defs: bool = True,
) -> None:
    """Raise :class:`IRError` on any structural violation."""
    if len(function) == 0:
        raise IRError(f"function {function.name} has no blocks")

    for block in function.blocks():
        insns = block.instructions
        if not insns:
            raise IRError(f"empty block {block.label}")
        if not block.is_terminated:
            raise IRError(f"block {block.label} lacks a terminator")
        last = len(insns) - 1
        for idx, insn in enumerate(insns):
            insn.validate()
            op = insn.opcode
            if op.info.is_terminator and idx != last:
                raise IRError(
                    f"terminator {insn} mid-block in {block.label} at {idx}"
                )
            if op is Opcode.CHKBR and insn.targets != (DETECT_LABEL,):
                raise IRError(f"CHKBR must target {DETECT_LABEL}, got {insn.targets}")

    cfg = CFG(function)  # validates branch targets
    if not allow_unreachable and cfg.unreachable():
        raise IRError(
            f"unreachable blocks in {function.name}: {sorted(cfg.unreachable())}"
        )

    if check_defs:
        _check_defined_before_use(function, cfg)


def _check_defined_before_use(function: Function, cfg: CFG) -> None:
    """Reject any use that may execute before a definition of its register."""
    from repro.analysis.dataflow import undefined_uses

    bad = undefined_uses(function, cfg)
    if bad:
        label, _, insn, reg = bad[0]
        raise IRError(
            f"register {reg} may be used before definition in {label}: {insn}"
        )


def verify_program(
    program: Program,
    allow_unreachable: bool = False,
    check_defs: bool = True,
) -> None:
    """Verify every function of the program and the data segment."""
    seen_labels: set[str] = set()
    for function in program.functions():
        verify_function(
            function, allow_unreachable=allow_unreachable, check_defs=check_defs
        )
        # Block labels must be unique program-wide: schedules, profiles and
        # lint findings key on the bare label.
        for label in function.block_labels():
            if label in seen_labels:
                raise IRError(f"block label {label!r} appears in two functions")
            seen_labels.add(label)
    layout = program.layout()
    for g in program.globals.values():
        if layout.base_of[g.name] <= 0:
            raise IRError(f"global {g.name} overlaps the null word")
