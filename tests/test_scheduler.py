"""VLIW list scheduler + the independent legality validator."""

import heapq
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ScheduleError
from repro.ir.dfg import DFG, DepKind
from repro.machine.config import MachineConfig, paper_machine
from repro.machine.reservation import ReservationTable
from repro.passes.assignment.base import collect_function_def_clusters
from repro.passes.latency import DepTable, edge_issue_latency, same_cluster_edge_latency
from repro.passes.schedule_check import validate_block_schedule, validate_compiled
from repro.passes.scheduler import BlockSchedule, schedule_block
from repro.pipeline import Scheme, compile_program
from tests.conftest import build_loop_program
from repro.workloads import get_workload, workload_names


def compile_loop(scheme=Scheme.SCED, iw=2, d=1):
    machine = MachineConfig(issue_width=iw, inter_cluster_delay=d)
    return compile_program(build_loop_program(), scheme, machine), machine


class TestSchedulerLegality:
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("iw,d", [(1, 1), (2, 2), (4, 4)])
    def test_loop_program_schedules_validate(self, scheme, iw, d):
        cp, machine = compile_loop(scheme, iw, d)
        validate_compiled(cp.program, cp.schedules, machine)

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_workload_schedules_validate(self, scheme):
        machine = MachineConfig(issue_width=2, inter_cluster_delay=2)
        cp = compile_program(get_workload("h263enc").program, scheme, machine)
        validate_compiled(cp.program, cp.schedules, machine)

    def test_terminator_is_last(self):
        cp, _ = compile_loop()
        for block in cp.program.main.blocks():
            sched = cp.schedules.blocks[block.label]
            term_cycle = sched.cycle_of[-1]
            assert all(c <= term_cycle for c in sched.cycle_of)

    def test_issue_width_respected(self):
        cp, machine = compile_loop(Scheme.SCED, iw=1)
        for block in cp.program.main.blocks():
            sched = cp.schedules.blocks[block.label]
            per_cycle = {}
            for i, insn in enumerate(block.instructions):
                key = (sched.cycle_of[i], insn.cluster)
                per_cycle[key] = per_cycle.get(key, 0) + 1
            assert all(v <= 1 for v in per_cycle.values())

    def test_narrower_issue_never_faster(self):
        lengths = {}
        for iw in (1, 2, 4):
            cp, _ = compile_loop(Scheme.SCED, iw=iw)
            lengths[iw] = cp.schedules.total_cycles_static()
        assert lengths[1] >= lengths[2] >= lengths[4]

    def test_delay_does_not_affect_single_cluster(self):
        a, _ = compile_loop(Scheme.SCED, iw=2, d=1)
        b, _ = compile_loop(Scheme.SCED, iw=2, d=4)
        assert (
            a.schedules.total_cycles_static() == b.schedules.total_cycles_static()
        )

    def test_dced_lengthens_with_delay(self):
        a, _ = compile_loop(Scheme.DCED, iw=2, d=1)
        b, _ = compile_loop(Scheme.DCED, iw=2, d=4)
        assert (
            b.schedules.total_cycles_static() >= a.schedules.total_cycles_static()
        )


class TestValidatorCatchesBadSchedules:
    def _block_and_schedule(self):
        cp, machine = compile_loop()
        block = cp.program.main.block("loop")
        sched = cp.schedules.blocks["loop"]
        homes = {}
        for _, _, insn in cp.program.main.all_instructions():
            for dreg in insn.writes():
                homes[dreg] = insn.cluster
        return block, sched, machine, homes

    def test_accepts_valid(self):
        block, sched, machine, homes = self._block_and_schedule()
        validate_block_schedule(block, sched, machine, homes)

    def test_rejects_dependence_violation(self):
        block, sched, machine, homes = self._block_and_schedule()
        bad = BlockSchedule(
            label=sched.label,
            cycle_of=tuple(0 for _ in sched.cycle_of),
            slot_of=sched.slot_of,
            length=1,
        )
        with pytest.raises(ScheduleError):
            validate_block_schedule(block, bad, machine, homes)

    def test_rejects_oversubscription(self):
        block, sched, machine, homes = self._block_and_schedule()
        narrow = machine.with_(issue_width=1)
        with pytest.raises(ScheduleError):
            validate_block_schedule(block, sched, narrow, homes)

    def test_rejects_wrong_length(self):
        block, sched, machine, homes = self._block_and_schedule()
        bad = BlockSchedule(
            label=sched.label,
            cycle_of=sched.cycle_of,
            slot_of=sched.slot_of,
            length=sched.length + 3,
        )
        with pytest.raises(ScheduleError, match="length"):
            validate_block_schedule(block, bad, machine, homes)

    def test_rejects_arity_mismatch(self):
        block, sched, machine, homes = self._block_and_schedule()
        bad = BlockSchedule(sched.label, sched.cycle_of[:-1], sched.slot_of[:-1], sched.length)
        with pytest.raises(ScheduleError, match="arity"):
            validate_block_schedule(block, bad, machine, homes)


class TestScheduleResult:
    def test_totals(self):
        cp, _ = compile_loop()
        res = cp.schedules
        assert res.total_slots() == cp.program.main.instruction_count()
        assert res.total_cycles_static() == sum(
            b.length for b in res.blocks.values()
        )


def reference_schedule_block(block, machine, homes):
    """The list scheduler as it was before the per-block DepTable: the DFG,
    heights and every edge latency rebuilt per call, slots in a
    ReservationTable.  Kept, logic unchanged, as the differential reference."""
    dfg = DFG(block)
    insns = block.instructions
    n = dfg.n
    delay = machine.inter_cluster_delay
    heights = dfg.heights(
        lambda e: same_cluster_edge_latency(e, insns[e.src], machine)
    )
    base_ready = [0] * n
    defined_in_block = set()
    in_block_data_ops = []
    for i, insn in enumerate(insns):
        in_block_data_ops.append(
            {e.reg for e in dfg.preds[i] if e.kind is DepKind.DATA}
        )
        for r in insn.reads():
            if r in in_block_data_ops[i] or r in defined_in_block:
                continue
            home = homes.get(r)
            if home is not None and insn.cluster is not None and home != insn.cluster:
                base_ready[i] = max(base_ready[i], delay)
        for d in insn.writes():
            defined_in_block.add(d)
    table = ReservationTable(machine.n_clusters, machine.issue_width)
    cycle_of = [-1] * n
    slot_of = [-1] * n
    unscheduled_preds = [len(dfg.preds[i]) for i in range(n)]
    ready_at = [0] * n
    ready = []
    for i in range(n):
        ready_at[i] = base_ready[i]
        if unscheduled_preds[i] == 0:
            heapq.heappush(ready, (-heights[i], i))
    n_done = 0
    cycle = 0
    while n_done < n:
        deferred = []
        while ready:
            prio, i = heapq.heappop(ready)
            if ready_at[i] > cycle:
                deferred.append((prio, i))
                continue
            cluster = insns[i].cluster
            if not table.free_slots(cycle, cluster):
                deferred.append((prio, i))
                continue
            slot = table.reserve(cycle, cluster)
            cycle_of[i] = cycle
            slot_of[i] = slot
            n_done += 1
            for e in dfg.succs[i]:
                j = e.dst
                lat = edge_issue_latency(
                    e, insns[i], machine,
                    src_cluster=insns[i].cluster, dst_cluster=insns[j].cluster,
                )
                if cycle + lat > ready_at[j]:
                    ready_at[j] = cycle + lat
                unscheduled_preds[j] -= 1
                if unscheduled_preds[j] == 0:
                    heapq.heappush(ready, (-heights[j], j))
        for item in deferred:
            heapq.heappush(ready, item)
        if n_done < n:
            cycle += 1
    length = (max(cycle_of) + 1) if n else 1
    return BlockSchedule(block.label, tuple(cycle_of), tuple(slot_of), length)


DIFF_MACHINES = [(1, 1), (2, 2), (4, 3)]


@pytest.fixture(scope="module")
def programs():
    return {w: get_workload(w).program for w in workload_names()}


class TestSchedulerMatchesReference:
    """The DepTable scheduler gives the pre-table schedules exactly."""

    @pytest.mark.parametrize("iw,d", DIFF_MACHINES, ids=lambda v: str(v))
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_every_compiled_block(self, programs, scheme, iw, d):
        machine = paper_machine(issue_width=iw, delay=d)
        n_blocks = 0
        for name, program in programs.items():
            cp = compile_program(program, scheme, machine)
            homes = collect_function_def_clusters(cp.program.main)
            for block in cp.program.main.blocks():
                expected = reference_schedule_block(block, machine, homes)
                assert schedule_block(block, machine, homes) == expected, (
                    name, block.label,
                )
                assert cp.schedules.blocks[block.label] == expected
                n_blocks += 1
        assert n_blocks > 100

    @pytest.mark.parametrize(
        "machine",
        [
            paper_machine(issue_width=1, delay=1),
            paper_machine(issue_width=2, delay=0),
            paper_machine(issue_width=2, delay=4),
            MachineConfig(n_clusters=3, issue_width=1, inter_cluster_delay=2),
        ],
        ids=["iw1d1", "iw2d0", "iw2d4", "3c-iw1d2"],
    )
    def test_random_candidates(self, programs, machine):
        """Random cluster vectors and partial home maps over the
        post-detection, pre-regalloc blocks CASTED prices."""
        rng = random.Random(2013)
        n_cases = 0
        for name in ("h263enc", "mcf", "parser"):
            cp = compile_program(
                programs[name], Scheme.CASTED, paper_machine(2, 2),
                capture_pre_regalloc=True,
            )
            for block in cp.pre_regalloc.main.blocks():
                table = DepTable(block, machine)
                regs = sorted(
                    {r for insn in block.instructions for r in insn.reads()},
                    key=str,
                )
                for _ in range(4):
                    for insn in block.instructions:
                        insn.cluster = rng.randrange(machine.n_clusters)
                    homes = {
                        r: rng.randrange(machine.n_clusters)
                        for r in regs
                        if rng.random() < 0.5
                    }
                    expected = reference_schedule_block(block, machine, homes)
                    assert schedule_block(block, machine, homes) == expected
                    assert schedule_block(block, machine, homes, table) == expected
                    n_cases += 1
        assert n_cases > 100

    def test_rejects_unassigned_instruction(self):
        cp, machine = compile_loop()
        block = cp.program.main.block("loop")
        block.instructions[0].cluster = None
        with pytest.raises(ScheduleError):
            schedule_block(block, machine, {})


#: ``ctx.record`` of the CASTED pass per workload, under PYTHONHASHSEED=0
#: (compiled output still depends on the hash seed): winner and the
#: per-candidate block counts.
CASTED_RECORDS = {
    "iw2d2": {
        "cjpeg": ("unified", 29, 4, 1),
        "h263dec": ("mixed", 21, 6, 2),
        "h263enc": ("mixed", 18, 5, 3),
        "mcf": ("unified", 12, 4, 0),
        "mpeg2dec": ("split", 26, 6, 3),
        "parser": ("unified", 35, 4, 3),
        "vpr": ("split", 24, 10, 5),
    },
    "iw4d3": {
        "cjpeg": ("mixed", 34, 0, 0),
        "h263dec": ("mixed", 29, 0, 0),
        "h263enc": ("mixed", 25, 0, 1),
        "mcf": ("unified", 14, 0, 2),
        "mpeg2dec": ("unified", 34, 1, 0),
        "parser": ("unified", 40, 0, 2),
        "vpr": ("unified", 34, 4, 1),
    },
}

_RECORD_SCRIPT = """
import json
from repro.machine.config import paper_machine
from repro.pipeline import Scheme, compile_program
from repro.workloads import get_workload, workload_names
out = {}
for tag, iw, d in (("iw2d2", 2, 2), ("iw4d3", 4, 3)):
    out[tag] = {}
    for w in workload_names():
        cp = compile_program(get_workload(w).program, Scheme.CASTED,
                             paper_machine(issue_width=iw, delay=d))
        r = cp.pass_stats["assign-casted"]
        out[tag][w] = [r["winner"], r["blocks_unified"], r["blocks_split"],
                       r["blocks_bug"]]
print(json.dumps(out))
"""


def test_casted_decisions_pinned():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _RECORD_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    got = json.loads(proc.stdout)
    assert got == {
        tag: {w: list(rec) for w, rec in recs.items()}
        for tag, recs in CASTED_RECORDS.items()
    }
