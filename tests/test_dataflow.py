"""The generic dataflow framework: solver, canned analyses, chains."""

import pytest

from repro.analysis.dataflow import (
    DataflowAnalysis,
    Direction,
    LiveVars,
    MustDefined,
    ReachingDefs,
    def_use_chains,
    solve,
    undefined_uses,
)
from repro.analysis.protection import AvailableChecks, build_sphere_model
from repro.analysis.taint import MEM, TaintAnalysis, find_detectors
from repro.ir.builder import IRBuilder
from repro.ir.cfg import CFG
from repro.ir.liveness import compute_liveness
from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_program
from repro.workloads import get_workload, workload_names


def diamond_program():
    """entry -> (left | right) -> join; left defines x, right does not."""
    b = IRBuilder("f")
    f = b.function
    b.add_and_enter("entry")
    c = b.movi(1)
    x = f.new_gp()
    p = b.cmplt(c, 2)
    b.brt(p, "left", "right")
    b.add_and_enter("left")
    b.movi_to(x, 7)
    b.jmp("join")
    b.add_and_enter("right")
    b.jmp("join")
    b.add_and_enter("join")
    b.out(x)
    b.halt(0)
    return b.function, x


class TestReachingDefs:
    def test_straight_line(self, loop_program):
        f = loop_program.main
        facts = solve(f, ReachingDefs())
        # Every register used in the loop body has at least one reaching def.
        for _, _, fact in facts.instruction_facts("loop"):
            assert isinstance(fact, frozenset)
        # The loop header joins entry defs with back-edge defs: the induction
        # register reaches with two distinct definition sites.
        entry_fact = facts.entry["loop"]
        regs = {}
        for reg, uid in entry_fact:
            regs.setdefault(reg, set()).add(uid)
        assert any(len(uids) >= 2 for uids in regs.values())

    def test_diamond_merges_defs(self):
        f, x = diamond_program()
        facts = solve(f, ReachingDefs())
        join = facts.entry["join"]
        assert len([d for d in join if d[0] == x]) == 1  # only left's def


class TestMustDefined:
    def test_diamond_partial_def_not_must(self):
        f, x = diamond_program()
        facts = solve(f, MustDefined(f))
        assert x not in facts.entry["join"]

    def test_loop_defs_must_reach_exit(self, loop_program):
        f = loop_program.main
        facts = solve(f, MustDefined(f))
        # Everything defined in entry is must-defined at exit.
        entry_defs = set()
        for insn in f.block("entry").instructions:
            entry_defs.update(insn.writes())
        assert entry_defs <= facts.entry["exit"]


class TestLiveVars:
    def test_matches_liveness_wrapper(self, loop_program):
        f = loop_program.main
        facts = solve(f, LiveVars())
        info = compute_liveness(f)
        for label in f.block_labels():
            assert facts.entry[label] == frozenset(info.live_in[label])
            assert facts.exit[label] == frozenset(info.live_out[label])

    def test_dead_after_last_use(self):
        b = IRBuilder("f")
        b.add_and_enter("entry")
        v = b.movi(3)
        b.out(v)
        b.halt(0)
        facts = solve(b.function, LiveVars())
        assert v not in facts.exit["entry"]


class TestChains:
    def test_def_use_chain_spans_blocks(self):
        f, x = diamond_program()
        chains = def_use_chains(f)
        uses_of_x = {
            site: defs for site, defs in chains.items() if site[3] == x
        }
        assert uses_of_x
        for defs in uses_of_x.values():
            assert len(defs) == 1  # only left's movi defines x

    def test_undefined_uses_found(self):
        f, x = diamond_program()
        bad = undefined_uses(f)
        assert any(reg == x for _, _, _, reg in bad)

    def test_clean_program_has_none(self, loop_program):
        assert undefined_uses(loop_program.main) == []


class TestSolverEdgeCases:
    def test_unreachable_block_keeps_initial(self):
        b = IRBuilder("f")
        b.add_and_enter("entry")
        b.halt(0)
        b.add_and_enter("dead")
        v = b.movi(1)
        b.out(v)
        b.halt(0)
        facts = solve(b.function, ReachingDefs())
        assert facts.entry["dead"] == frozenset()

    def test_single_block(self):
        b = IRBuilder("f")
        b.add_and_enter("entry")
        v = b.movi(1)
        b.out(v)
        b.halt(0)
        facts = solve(b.function, ReachingDefs())
        assert any(d[0] == v for d in facts.exit["entry"])


def reference_solve(function, analysis):
    """Round-robin sweeps in (reverse) postorder until nothing changes.

    The solver's original algorithm, kept as the oracle the worklist
    solver must agree with.  Returns ``(entry, exit)`` in program order.
    """
    cfg = CFG(function)
    order = cfg.reverse_postorder()
    forward = analysis.direction is Direction.FORWARD
    if not forward:
        order = order[::-1]
    boundary = analysis.boundary(function)
    top = analysis.initial(function)
    state = {b.label: top for b in function.blocks()}
    out_state = {b.label: top for b in function.blocks()}
    reachable = set(order)
    boundary_labels = (
        {cfg.entry_label}
        if forward
        else {lb for lb in order if not [s for s in cfg.succs[lb] if s in reachable]}
    )
    changed = True
    while changed:
        changed = False
        for label in order:
            edges = cfg.preds[label] if forward else cfg.succs[label]
            incoming = [out_state[e] for e in edges if e in reachable]
            if label in boundary_labels:
                incoming.append(boundary)
            fact = analysis.meet(incoming) if incoming else top
            new_out = DataflowAnalysis.transfer_block(
                analysis, function.block(label), fact
            )
            if fact != state[label] or new_out != out_state[label]:
                state[label] = fact
                out_state[label] = new_out
                changed = True
    return (state, out_state) if forward else (out_state, state)


def _stages():
    machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
    for name in workload_names():
        program = get_workload(name).program
        yield f"{name}-frontend", program.main
        cp = compile_program(
            program, Scheme.CASTED, machine, capture_pre_regalloc=True
        )
        yield f"{name}-casted", cp.pre_regalloc.main


@pytest.fixture(scope="module")
def stages():
    return dict(_stages())


def _analyses(function):
    yield MustDefined(function)
    yield LiveVars()
    yield ReachingDefs()
    yield AvailableChecks(build_sphere_model(function))
    detectors = find_detectors(function)
    insns = [i for _, _, i in function.all_instructions() if i.dests]
    for insn in insns[:: max(1, len(insns) // 4)]:
        yield TaintAnalysis(detectors, seed_uid=insn.uid)
    yield TaintAnalysis(detectors, entry_taint=frozenset((MEM,)))


class TestWorklistMatchesRoundRobin:
    @pytest.mark.parametrize(
        "stage", [f"{w}-{s}" for w in workload_names() for s in ("frontend", "casted")]
    )
    def test_same_fixed_point(self, stages, stage):
        function = stages[stage]
        for analysis in _analyses(function):
            entry, exit_ = reference_solve(function, analysis)
            facts = solve(function, analysis)
            assert facts.entry == entry, type(analysis).__name__
            assert facts.exit == exit_, type(analysis).__name__

    def test_undefined_uses_match_instruction_replay(self, stages):
        for function in stages.values():
            facts = solve(function, MustDefined(function))
            reachable = CFG(function).reachable()
            expected = [
                (block.label, idx, insn, r)
                for block in function.blocks()
                if block.label in reachable
                for idx, insn, fact in facts.instruction_facts(block.label)
                for r in insn.reads()
                if r not in fact
            ]
            assert undefined_uses(function) == expected

    @pytest.mark.parametrize("make", [MustDefined, lambda f: LiveVars()])
    def test_block_transfer_is_insn_composition(self, stages, make):
        for function in stages.values():
            analysis = make(function)
            facts = solve(function, analysis)
            for block in function.blocks():
                for fact in (facts.entry[block.label], facts.exit[block.label]):
                    assert analysis.transfer_block(block, fact) == (
                        DataflowAnalysis.transfer_block(analysis, block, fact)
                    )
