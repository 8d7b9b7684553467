"""The verifier's fast paths give the reference verifier's verdicts.

The use-before-def check tests only each block's upward-exposed reads
against must-defined facts solved from per-block write summaries, and
opcode metadata is read off the ``Opcode`` member.  The reference below is
the verifier as it was before both: ``MustDefined`` walking every
instruction and ``undefined_uses`` replaying every read.  Both must agree
on the verdict *and* the message, on every pass output of the workload
grid and on a corpus of malformed IR.
"""

from __future__ import annotations

import pytest

import repro.passes.pass_manager as pass_manager
from repro.analysis.dataflow import DataflowAnalysis, Direction, Fact, solve
from repro.analysis.mutate import drop_nth_check, drop_nth_replica
from repro.errors import IRError
from repro.ir.basic_block import DETECT_LABEL
from repro.ir.cfg import CFG
from repro.ir.verifier import verify_program
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OP_INFO, Opcode
from repro.isa.registers import Reg, RegClass
from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_program, optimize_program
from repro.workloads import get_workload, workload_names

# -- the reference verifier -----------------------------------------------------


class RefMustDefined(DataflowAnalysis):
    direction = Direction.FORWARD

    def __init__(self, function) -> None:
        regs: set[Reg] = set()
        for _, _, insn in function.all_instructions():
            regs.update(insn.reads())
            regs.update(insn.writes())
        self._all_regs: Fact = frozenset(regs)

    def boundary(self, function) -> Fact:
        return frozenset()

    def initial(self, function) -> Fact:
        return self._all_regs

    def meet(self, facts: list[Fact]) -> Fact:
        if not facts:
            return self._all_regs
        out = facts[0]
        for f in facts[1:]:
            out &= f
        return out

    def transfer_insn(self, insn, fact: Fact) -> Fact:
        writes = insn.writes()
        return fact | frozenset(writes) if writes else fact

    def transfer_block(self, block, fact: Fact) -> Fact:
        defined = set(fact)
        for insn in block.instructions:
            defined.update(insn.writes())
        return frozenset(defined)


def ref_undefined_uses(function, cfg=None):
    cfg = cfg or CFG(function)
    facts = solve(function, RefMustDefined(function), cfg)
    reachable = cfg.reachable()
    bad = []
    for block in function.blocks():
        if block.label not in reachable:
            continue
        defined = set(facts.entry[block.label])
        for idx, insn in enumerate(block.instructions):
            for r in insn.reads():
                if r not in defined:
                    bad.append((block.label, idx, insn, r))
            defined.update(insn.writes())
    return bad


def ref_verify_function(function, allow_unreachable=False, check_defs=True):
    if len(function) == 0:
        raise IRError(f"function {function.name} has no blocks")
    for block in function.blocks():
        if not block.instructions:
            raise IRError(f"empty block {block.label}")
        if not block.is_terminated:
            raise IRError(f"block {block.label} lacks a terminator")
        for idx, insn in enumerate(block.instructions):
            insn.validate()
            if (
                OP_INFO[insn.opcode].is_terminator
                and idx != len(block.instructions) - 1
            ):
                raise IRError(
                    f"terminator {insn} mid-block in {block.label} at {idx}"
                )
            if insn.opcode is Opcode.CHKBR and insn.targets != (DETECT_LABEL,):
                raise IRError(f"CHKBR must target {DETECT_LABEL}, got {insn.targets}")
    cfg = CFG(function)
    if not allow_unreachable and cfg.unreachable():
        raise IRError(
            f"unreachable blocks in {function.name}: {sorted(cfg.unreachable())}"
        )
    if check_defs:
        bad = ref_undefined_uses(function, cfg)
        if bad:
            label, _, insn, reg = bad[0]
            raise IRError(
                f"register {reg} may be used before definition in {label}: {insn}"
            )


def ref_verify_program(program, allow_unreachable=False, check_defs=True):
    seen_labels: set[str] = set()
    for function in program.functions():
        ref_verify_function(
            function, allow_unreachable=allow_unreachable, check_defs=check_defs
        )
        for label in function.block_labels():
            if label in seen_labels:
                raise IRError(f"block label {label!r} appears in two functions")
            seen_labels.add(label)
    layout = program.layout()
    for g in program.globals.values():
        if layout.base_of[g.name] <= 0:
            raise IRError(f"global {g.name} overlaps the null word")


def verdict(verify, program, **kw):
    try:
        verify(program, **kw)
    except Exception as exc:  # noqa: BLE001 - the verdict is the exception
        return type(exc).__name__, str(exc)
    return None


def assert_same_verdict(program, **kw):
    got = verdict(verify_program, program, **kw)
    assert got == verdict(ref_verify_program, program, **kw)
    return got


def test_opcode_info_mirrors_table():
    for op in Opcode:
        assert op.info is OP_INFO[op]


# -- every pass output of the grid -------------------------------------------------

MACHINES = [(1, 1), (2, 2), (4, 3)]


def test_same_verdicts_on_every_pass_output(monkeypatch):
    checked = []

    def both(program, **kw):
        got = assert_same_verdict(program, **kw)
        checked.append(got)
        verify_program(program, **kw)

    monkeypatch.setattr(pass_manager, "verify_program", both)
    for workload in workload_names():
        stage = optimize_program(get_workload(workload).program)
        for scheme in Scheme:
            for iw, d in MACHINES:
                machine = MachineConfig(issue_width=iw, inter_cluster_delay=d)
                compile_program(stage, scheme, machine)
    # every compile verified its entry and each of its passes, all clean
    assert len(checked) > 7 * 4 * 3 * 4
    assert set(checked) == {None}


# -- malformed IR -----------------------------------------------------------------


def _snapshots():
    """(name, program) pairs to break: front-end IR and pre-regalloc CASTED."""
    machine = MachineConfig(issue_width=2, inter_cluster_delay=2)
    for workload in workload_names():
        program = get_workload(workload).program
        yield f"{workload}-frontend", program
        cp = compile_program(
            program, Scheme.CASTED, machine, capture_pre_regalloc=True
        )
        yield f"{workload}-casted", cp.pre_regalloc


@pytest.fixture(scope="module")
def snapshots():
    return dict(_snapshots())


def _defining_sites(program):
    return [
        (block.label, idx)
        for block, idx, insn in program.main.all_instructions()
        if insn.dests
    ]


def _mutants(program):
    """Broken clones of ``program``, each with a short description."""
    sites = _defining_sites(program)
    for k in range(0, len(sites), max(1, len(sites) // 12)):
        p = program.clone()
        label, idx = sites[k]
        del p.main.block(label).instructions[idx]
        yield f"drop def {k}", p

    loops = CFG(program.main).natural_loops()
    for n, (header, body) in enumerate(loops[:4]):
        # a read of a register no path ever defines, inside the loop
        p = program.clone()
        ghost = p.main.new_gp()
        block = p.main.block(max(body))
        block.instructions.insert(0, Instruction(Opcode.OUT, srcs=(ghost,)))
        yield f"never-defined read in loop {n}", p
        # a loop-carried read: the register's only def comes later in the
        # loop, so the first iteration reads it undefined
        p = program.clone()
        carried = p.main.new_gp()
        p.main.block(header).instructions.insert(
            0, Instruction(Opcode.OUT, srcs=(carried,))
        )
        latch = p.main.block(max(body - {header}, default=header)).instructions
        latch.insert(len(latch) - 1, Instruction(Opcode.MOVI, (carried,), imm=1))
        yield f"read before loop def {n}", p
        # a counter bumped in the loop but never initialized: the read and
        # the only def are the same instruction
        p = program.clone()
        counter = p.main.new_gp()
        p.main.block(header).instructions.insert(
            0, Instruction(Opcode.ADD, (counter,), (counter,), imm=1)
        )
        yield f"uninitialized counter in loop {n}", p

    for block in list(program.main.blocks())[:6]:
        p = program.clone()
        term = p.main.block(block.label).instructions[-1]
        if term.targets:
            term.targets = ("ghost",) + term.targets[1:]
            yield f"dangling label in {block.label}", p

    wrong = 0
    for block, idx, insn in program.main.all_instructions():
        if insn.srcs and insn.srcs[0].rclass is RegClass.GP and wrong < 4:
            p = program.clone()
            bad = p.main.block(block.label).instructions[idx]
            bad.srcs = (p.main.new_pr(),) + bad.srcs[1:]
            wrong += 1
            yield f"wrong class at {block.label}:{idx}", p

    p = program.clone()
    entry = p.main.entry
    entry.instructions.insert(0, Instruction(Opcode.HALT, imm=0))
    yield "terminator mid-block", p

    for n in range(3):
        p = program.clone()
        if drop_nth_replica(p, n * 7):
            yield f"mutate: drop replica {n * 7}", p
        p = program.clone()
        if drop_nth_check(p, n * 5):
            yield f"mutate: drop check {n * 5}", p


@pytest.mark.parametrize(
    "name", [f"{w}-{s}" for w in workload_names() for s in ("frontend", "casted")]
)
def test_same_verdicts_on_malformed_ir(snapshots, name):
    program = snapshots[name]
    assert assert_same_verdict(program) is None
    rejected = 0
    for what, mutant in _mutants(program):
        for kw in ({}, {"allow_unreachable": True}, {"check_defs": False}):
            got = assert_same_verdict(mutant, **kw)
            if not kw:
                rejected += got is not None
        assert what
    assert rejected >= 5
