"""Dominators, natural loops and loop-invariant code motion."""


from repro.ir.builder import IRBuilder
from repro.ir.cfg import CFG
from repro.ir.interp import Interpreter
from repro.ir.program import GlobalArray, Program
from repro.ir.verifier import verify_program
from repro.isa.opcodes import Opcode
from repro.passes.base import PassContext
from repro.passes.licm import LoopInvariantCodeMotion


def count_in_block(prog, label, opcode):
    return sum(1 for i in prog.main.block(label) if i.opcode is opcode)


class TestDominators:
    def test_linear_chain(self):
        b = IRBuilder("f")
        b.add_and_enter("a")
        b.jmp("b")
        b.add_and_enter("b")
        b.jmp("c")
        b.add_and_enter("c")
        b.halt(0)
        dom = CFG(b.function).dominators()
        assert dom["c"] == {"a", "b", "c"}
        assert dom["a"] == {"a"}

    def test_diamond(self):
        b = IRBuilder("f")
        b.add_and_enter("entry")
        p = b.cmpeq(b.movi(1), 1)
        b.brt(p, "t", "e")
        b.add_and_enter("t")
        b.jmp("join")
        b.add_and_enter("e")
        b.jmp("join")
        b.add_and_enter("join")
        b.halt(0)
        dom = CFG(b.function).dominators()
        assert dom["join"] == {"entry", "join"}  # neither branch dominates
        assert "entry" in dom["t"]

    def test_loop_header_dominates_body(self, loop_program):
        dom = CFG(loop_program.main).dominators()
        assert "loop" in dom["loop"]
        assert "entry" in dom["exit"]

    def test_natural_loops(self, loop_program):
        loops = CFG(loop_program.main).natural_loops()
        assert loops == [("loop", frozenset({"loop"}))]


def invariant_loop_program():
    """A loop recomputing `k = 6*7` and `base = movi` each iteration."""
    b = IRBuilder("main")
    f = b.function
    b.add_and_enter("entry")
    i = f.new_gp()
    acc = f.new_gp()
    b.movi_to(i, 0)
    b.movi_to(acc, 0)
    b.jmp("loop")
    b.add_and_enter("loop")
    six = b.movi(6)          # invariant
    seven = b.movi(7)        # invariant
    k = b.mul(six, seven)    # invariant chain
    t = b.add(i, k)          # NOT invariant (i varies)
    acc2 = b.add(acc, t)
    b.mov_to(acc, acc2)
    i2 = b.add(i, 1)
    b.mov_to(i, i2)
    p = b.cmplt(i, 10)
    b.brt(p, "loop", "exit")
    b.add_and_enter("exit")
    b.out(acc)
    b.halt(0)
    return Program(f)


class TestLICM:
    def run_licm(self, prog):
        ctx = PassContext()
        LoopInvariantCodeMotion().run(prog, ctx)
        verify_program(prog)
        return ctx.stats.get("licm", {}).get("hoisted", 0)

    def test_hoists_invariant_chain(self):
        prog = invariant_loop_program()
        golden = Interpreter(prog).run()
        hoisted = self.run_licm(prog)
        assert hoisted >= 3  # two movis + the mul
        assert count_in_block(prog, "loop", Opcode.MUL) == 0
        assert count_in_block(prog, "entry", Opcode.MUL) == 1
        assert Interpreter(prog).run().output == golden.output

    def test_does_not_hoist_variant_code(self):
        prog = invariant_loop_program()
        self.run_licm(prog)
        # the adds using i / acc must stay in the loop
        assert count_in_block(prog, "loop", Opcode.ADD) == 3

    def test_does_not_hoist_loop_carried(self, loop_program):
        prog = loop_program
        self.run_licm(prog)
        # loop-carried updates (mov i, mov acc) must remain
        movs = count_in_block(prog, "loop", Opcode.MOV)
        assert movs == 2

    def test_does_not_hoist_memory_ops(self):
        b = IRBuilder("main")
        f = b.function
        b.add_and_enter("entry")
        i = f.new_gp()
        b.movi_to(i, 0)
        b.jmp("loop")
        b.add_and_enter("loop")
        addr = b.movi(1)
        v = b.load(addr)         # invariant address, but loads never move
        b.store(addr, b.add(v, 1))
        i2 = b.add(i, 1)
        b.mov_to(i, i2)
        p = b.cmplt(i, 5)
        b.brt(p, "loop", "exit")
        b.add_and_enter("exit")
        b.out(b.load(b.movi(1)))
        b.halt(0)
        prog = Program(f, [GlobalArray("g", 2)])
        golden = Interpreter(prog).run()
        self.run_licm(prog)
        assert count_in_block(prog, "loop", Opcode.LOAD) == 1
        assert Interpreter(prog).run().output == golden.output == (5,)

    def test_zero_trip_loop_safe(self):
        """Hoisted code must not change a loop that never runs."""
        b = IRBuilder("main")
        f = b.function
        b.add_and_enter("entry")
        i = f.new_gp()
        b.movi_to(i, 100)     # loop condition immediately false
        b.jmp("head")
        b.add_and_enter("head")
        p = b.cmplt(i, 10)
        b.brt(p, "body", "exit")
        b.add_and_enter("body")
        k = b.mul(b.movi(3), b.movi(4))
        i2 = b.add(i, k)
        b.mov_to(i, i2)
        b.jmp("head")
        b.add_and_enter("exit")
        b.out(i)
        b.halt(0)
        prog = Program(f)
        golden = Interpreter(prog).run()
        self.run_licm(prog)
        verify_program(prog)
        assert Interpreter(prog).run().output == golden.output == (100,)

    def test_nested_loops(self):
        b = IRBuilder("main")
        f = b.function
        b.add_and_enter("entry")
        i, j, acc = f.new_gp(), f.new_gp(), f.new_gp()
        b.movi_to(i, 0)
        b.movi_to(acc, 0)
        b.jmp("outer")
        b.add_and_enter("outer")
        b.movi_to(j, 0)
        b.jmp("inner")
        b.add_and_enter("inner")
        c = b.mul(b.movi(5), b.movi(9))   # invariant to both loops
        acc2 = b.add(acc, c)
        b.mov_to(acc, acc2)
        j2 = b.add(j, 1)
        b.mov_to(j, j2)
        p = b.cmplt(j, 3)
        b.brt(p, "inner", "latch")
        b.add_and_enter("latch")
        i2 = b.add(i, 1)
        b.mov_to(i, i2)
        q = b.cmplt(i, 4)
        b.brt(q, "outer", "exit")
        b.add_and_enter("exit")
        b.out(acc)
        b.halt(0)
        prog = Program(f)
        golden = Interpreter(prog).run()
        hoisted = self.run_licm(prog)
        assert hoisted >= 3
        assert count_in_block(prog, "inner", Opcode.MUL) == 0
        r = Interpreter(prog).run()
        assert r.output == golden.output == (4 * 3 * 45,)

    def test_workloads_preserved_and_improved(self):
        from repro.workloads import get_workload

        for name in ("cjpeg", "vpr"):
            prog = get_workload(name).program.clone()
            golden = Interpreter(get_workload(name).program).run()
            self.run_licm(prog)
            r = Interpreter(prog).run()
            assert r.output == golden.output, name
            assert r.dyn_instructions <= golden.dyn_instructions, name

    def test_chain_rehoisted_through_three_loop_levels(self):
        """One pass run moves an inner-loop chain out of all three loops.

        The middle and outer loops only see the chain after the inner loop
        moved it into their bodies, so their def/use counts must reflect
        hoists made earlier in the same run.
        """
        b = IRBuilder("main")
        f = b.function
        b.add_and_enter("entry")
        i, j, k, acc = f.new_gp(), f.new_gp(), f.new_gp(), f.new_gp()
        b.movi_to(i, 0)
        b.movi_to(acc, 0)
        b.jmp("outer")
        b.add_and_enter("outer")
        b.movi_to(j, 0)
        b.jmp("mid")
        b.add_and_enter("mid")
        b.movi_to(k, 0)
        b.jmp("inner")
        b.add_and_enter("inner")
        c = b.mul(b.movi(5), b.movi(9))   # invariant to all three loops
        acc2 = b.add(acc, c)
        b.mov_to(acc, acc2)
        k2 = b.add(k, 1)
        b.mov_to(k, k2)
        b.brt(b.cmplt(k, 2), "inner", "midlatch")
        b.add_and_enter("midlatch")
        j2 = b.add(j, 1)
        b.mov_to(j, j2)
        b.brt(b.cmplt(j, 3), "mid", "outerlatch")
        b.add_and_enter("outerlatch")
        i2 = b.add(i, 1)
        b.mov_to(i, i2)
        b.brt(b.cmplt(i, 4), "outer", "exit")
        b.add_and_enter("exit")
        b.out(acc)
        b.halt(0)
        prog = Program(f)
        golden = Interpreter(prog).run()
        hoisted = self.run_licm(prog)
        assert hoisted == 9  # the movi/movi/mul chain, once per loop level
        for label in ("inner", "mid", "outer"):
            assert count_in_block(prog, label, Opcode.MUL) == 0
        assert count_in_block(prog, "entry", Opcode.MUL) == 1
        r = Interpreter(prog).run()
        assert r.output == golden.output == (4 * 3 * 2 * 45,)

    def test_workload_hoist_counts_pinned(self):
        """Per-workload hoists under NOED, in ``workload_names()`` order.

        Independent of ``PYTHONHASHSEED``; any change to which instructions
        LICM moves shows up here.
        """
        from repro.machine.config import MachineConfig
        from repro.pipeline import Scheme, compile_program
        from repro.workloads import get_workload, workload_names

        counts = [
            compile_program(
                get_workload(name).program, Scheme.NOED, MachineConfig()
            ).pass_stats["licm"]["hoisted"]
            for name in workload_names()
        ]
        assert counts == [35, 43, 50, 5, 47, 14, 26]
