"""Cycle-level VLIW executor: differential correctness + timing sanity."""

import pytest

from repro.ir.interp import ExitKind, Interpreter
from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_program
from repro.sim.executor import VLIWExecutor
from repro.workloads import get_workload, workload_names
from tests.conftest import build_loop_program


def run_both(cp):
    sim = VLIWExecutor(cp).run()
    ref = Interpreter(
        cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words
    ).run()
    return sim, ref


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_loop_program(self, scheme, machine):
        cp = compile_program(build_loop_program(), scheme, machine)
        sim, ref = run_both(cp)
        assert sim.kind is ref.kind
        assert sim.output == ref.output
        assert sim.exit_code == ref.exit_code
        assert sim.dyn_instructions == ref.dyn_instructions

    @pytest.mark.parametrize("name", workload_names())
    def test_workloads_casted(self, name, machine):
        cp = compile_program(get_workload(name).program, Scheme.CASTED, machine)
        sim, ref = run_both(cp)
        assert sim.output == ref.output
        assert sim.exit_code == ref.exit_code

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_one_workload_all_schemes(self, scheme, machine):
        cp = compile_program(get_workload("vpr").program, scheme, machine)
        sim, ref = run_both(cp)
        assert sim.output == ref.output


class TestTiming:
    def test_cycles_at_least_static_minimum(self, machine):
        cp = compile_program(build_loop_program(), Scheme.NOED, machine)
        sim = VLIWExecutor(cp).run()
        # every instruction needs an issue slot
        lower_bound = sim.dyn_instructions / (
            machine.n_clusters * machine.issue_width
        )
        assert sim.cycles >= lower_bound

    def test_stalls_are_cache_misses(self, machine):
        cp = compile_program(build_loop_program(), Scheme.NOED, machine)
        sim = VLIWExecutor(cp).run()
        assert sim.stall_cycles > 0  # cold misses on buf
        assert sim.cache.misses["L1"] > 0
        assert sim.cycles > sim.stall_cycles

    def test_memory_free_program_never_stalls(self, machine):
        cp = compile_program(
            build_loop_program(with_memory=False), Scheme.NOED, machine
        )
        sim = VLIWExecutor(cp).run()
        assert sim.stall_cycles == 0
        assert sim.cache.accesses == 0

    def test_wider_issue_not_slower(self):
        cycles = {}
        for iw in (1, 2, 4):
            machine = MachineConfig(issue_width=iw, inter_cluster_delay=1)
            cp = compile_program(get_workload("mcf").program, Scheme.SCED, machine)
            cycles[iw] = VLIWExecutor(cp).run().cycles
        assert cycles[1] >= cycles[2] >= cycles[4]

    def test_noed_ignores_delay(self):
        a = MachineConfig(issue_width=2, inter_cluster_delay=1)
        b = MachineConfig(issue_width=2, inter_cluster_delay=4)
        ca = compile_program(build_loop_program(), Scheme.NOED, a)
        cb = compile_program(build_loop_program(), Scheme.NOED, b)
        assert VLIWExecutor(ca).run().cycles == VLIWExecutor(cb).run().cycles

    def test_watchdog(self, machine):
        cp = compile_program(build_loop_program(1000), Scheme.NOED, machine)
        r = VLIWExecutor(cp, max_cycles=50).run()
        assert r.kind is ExitKind.TIMEOUT

    def test_block_visits_counted(self, machine):
        cp = compile_program(build_loop_program(10), Scheme.NOED, machine)
        sim = VLIWExecutor(cp).run()
        assert sim.block_visits == 1 + 10 + 1  # entry + 10 loop + exit

    def test_deterministic(self, machine):
        cp = compile_program(get_workload("parser").program, Scheme.DCED, machine)
        ex = VLIWExecutor(cp)
        a = ex.run()
        b = ex.run()
        assert a.cycles == b.cycles
        assert a.output == b.output


class TestMLP:
    def test_same_cycle_misses_overlap(self):
        """Two independent loads scheduled in one cycle share their stall."""
        from repro.ir.builder import IRBuilder
        from repro.ir.program import GlobalArray, Program

        # Two loads to far-apart blocks, independent -> same cycle at iw 2.
        b = IRBuilder("main")
        b.add_and_enter("entry")
        a1 = b.movi(1)
        a2 = b.movi(900)
        v1 = b.load(a1)
        v2 = b.load(a2)
        b.out(b.add(v1, v2))
        b.halt(0)
        prog2 = Program(b.function, [GlobalArray("g", 1200)])

        # Same program but loads serialized by a data dependence.
        b = IRBuilder("main")
        b.add_and_enter("entry")
        a1 = b.movi(1)
        v1 = b.load(a1)
        # shra(v1, 63) is 0 at runtime but opaque to the optimizer
        a2 = b.add(b.shra(v1, 63), 900)
        v2 = b.load(a2)
        b.out(b.add(v1, v2))
        b.halt(0)
        prog_serial = Program(b.function, [GlobalArray("g", 1200)])

        machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
        par = VLIWExecutor(compile_program(prog2, Scheme.NOED, machine)).run()
        ser = VLIWExecutor(compile_program(prog_serial, Scheme.NOED, machine)).run()
        assert par.stall_cycles < ser.stall_cycles


class TestLazyClosures:
    """The fused timed loop needs no per-instruction closures."""

    @pytest.fixture(scope="class")
    def cp(self):
        machine = MachineConfig(issue_width=2, inter_cluster_delay=2)
        return compile_program(get_workload("mcf").program, Scheme.CASTED, machine)

    def test_timed_only_builds_no_closures(self, cp):
        ex = VLIWExecutor(cp, backend="compiled")
        ex.run()
        assert ex._code is None
        assert ex._interp._compiled_blocks is None
        assert ex._interp._fused_blocks is None

    def test_first_functional_run_matches_interp_backend(self, cp):
        timed = VLIWExecutor(cp, backend="compiled")
        first_timed = timed.run()
        got = timed.functional_run(record_trace=True)
        ref = VLIWExecutor(cp, backend="interp").functional_run(record_trace=True)
        assert got == ref
        assert timed.run() == first_timed

    def test_lazy_interp_tables_match_eager_run(self, cp):
        fresh = VLIWExecutor(cp, backend="interp")
        assert fresh._code is None
        assert fresh.run() == VLIWExecutor(cp, backend="compiled").run()
        assert fresh._code is not None
