"""Resource- and delay-aware VLIW list scheduler.

Schedules each basic block independently (block boundaries are barriers;
branch prediction is perfect, per Table I).  The cluster of every
instruction is fixed by the preceding assignment pass; the scheduler packs
instructions into per-cluster issue slots, honouring

* every DFG edge priced by :mod:`repro.passes.latency` (true deps pay the
  inter-cluster delay when they cross clusters),
* the remote-operand rule for cross-block operands: reading a register
  whose home file is the other cluster costs the delay from block entry,
* per-cluster issue width.

Each block's dependences come priced from its :class:`DepTable`, which
CASTED's candidate search and BUG read too.

Priority is critical-path height, then program order — the same preference
order BUG uses, so the schedule realizes the assignment's intent.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import ScheduleError
from repro.ir.program import Program
from repro.isa.registers import Reg
from repro.machine.config import MachineConfig
from repro.obs import get_telemetry
from repro.passes.assignment.base import (
    collect_function_def_clusters,
    validate_assignment,
)
from repro.passes.base import FunctionPass, PassContext
from repro.passes.latency import DepTable


@dataclass(frozen=True)
class BlockSchedule:
    """Static schedule of one block.

    ``cycle_of[i]`` / ``slot_of[i]`` give the issue cycle and the slot
    (within the instruction's cluster) of ``block.instructions[i]``.
    ``length`` is the block's cycle count absent dynamic stalls.
    """

    label: str
    cycle_of: tuple[int, ...]
    slot_of: tuple[int, ...]
    length: int


@dataclass
class ScheduleResult:
    """All block schedules plus whole-program static statistics."""

    blocks: dict[str, BlockSchedule] = field(default_factory=dict)

    def total_slots(self) -> int:
        return sum(len(b.cycle_of) for b in self.blocks.values())

    def total_cycles_static(self) -> int:
        return sum(b.length for b in self.blocks.values())


class ListScheduler(FunctionPass):
    name = "schedule"

    def run(self, program: Program, ctx: PassContext) -> bool:
        if ctx.machine is None:
            raise ScheduleError("scheduling needs a machine config")
        machine = ctx.machine
        validate_assignment(program, machine.n_clusters)
        result = ScheduleResult()
        tel = get_telemetry()
        track = tel.enabled
        # Every function is scheduled (registers are function-local, so each
        # function uses its own home map); the schedule validator rejects any
        # block left without a schedule.
        for function in program.functions():
            homes = collect_function_def_clusters(function)
            for block in function.blocks():
                sched = schedule_block(block, machine, homes)
                result.blocks[block.label] = sched
                if track:
                    # Slot-reservation pressure: fraction of the block's issue
                    # slots (length x width x clusters) actually reserved.
                    capacity = sched.length * machine.issue_width * machine.n_clusters
                    tel.observe("sched.block_length", sched.length)
                    if capacity:
                        tel.observe(
                            "sched.slot_pressure", len(sched.cycle_of) / capacity
                        )
        ctx.artifacts["schedule"] = result
        ctx.record(
            self.name,
            static_cycles=result.total_cycles_static(),
            instructions=result.total_slots(),
        )
        return True


def schedule_block(
    block,
    machine: MachineConfig,
    homes: dict[Reg, int],
    table: DepTable | None = None,
) -> BlockSchedule:
    """List-schedule one block given every instruction's cluster.

    ``homes`` maps registers to their home cluster for the cross-block
    remote-operand rule; registers absent from the map are assumed local
    (the CASTED assignment pass also calls this with a *partial* map to
    evaluate candidate placements).  ``table`` is the block's
    :class:`DepTable` for ``machine``, built here when not given.
    """
    if table is None:
        table = DepTable(block, machine)
    insns = block.instructions
    n = table.n
    n_clusters = machine.n_clusters
    width = machine.issue_width
    delay = table.delay
    cluster_of = [insn.cluster for insn in insns]
    for i, c in enumerate(cluster_of):
        if c is None or not 0 <= c < n_clusters:
            raise ScheduleError(f"{block.label}[{i}] has invalid cluster {c}")

    # Earliest issue from cross-block remote operands.
    ready_at = [0] * n  # earliest legal issue cycle, updated as preds land
    if delay:
        for i, reads in enumerate(table.cross_reads):
            c = cluster_of[i]
            for r in reads:
                home = homes.get(r)
                if home is not None and home != c:
                    ready_at[i] = delay
                    break

    heights = table.heights
    succs = table.succs
    unscheduled_preds = [len(p) for p in table.preds]
    cycle_of = [-1] * n
    slot_of = [-1] * n
    ready = [(-heights[i], i) for i in range(n) if not unscheduled_preds[i]]
    heapq.heapify(ready)

    # Every cycle pops the ready queue in priority order; an instruction
    # not yet ready, or whose cluster's slots are full, waits a cycle.  Only
    # the current cycle's slots are ever taken, so one counter per cluster
    # is the reservation table.
    n_done = 0
    cycle = 0
    while n_done < n:
        used = [0] * n_clusters
        deferred: list[tuple[int, int]] = []
        while ready:
            item = heapq.heappop(ready)
            i = item[1]
            c = cluster_of[i]
            slot = used[c]
            if ready_at[i] > cycle or slot >= width:
                deferred.append(item)
                continue
            used[c] = slot + 1
            cycle_of[i] = cycle
            slot_of[i] = slot
            n_done += 1
            for j, lat, is_data in succs[i]:
                if is_data and cluster_of[j] != c:
                    lat += delay
                if cycle + lat > ready_at[j]:
                    ready_at[j] = cycle + lat
                unscheduled_preds[j] -= 1
                if not unscheduled_preds[j]:
                    heapq.heappush(ready, (-heights[j], j))
        if n_done < n:
            if not deferred:  # pragma: no cover - the DFG is a DAG
                raise ScheduleError(f"scheduler deadlocked in block {block.label}")
            if any(used):
                cycle += 1
            else:
                # Nothing could issue: every waiting instruction is held by
                # its ready cycle, and nothing changes before the earliest.
                cycle = min(ready_at[i] for _, i in deferred)
        ready = deferred
        heapq.heapify(ready)

    length = (max(cycle_of) + 1) if n else 1
    return BlockSchedule(
        label=block.label,
        cycle_of=tuple(cycle_of),
        slot_of=tuple(slot_of),
        length=length,
    )
