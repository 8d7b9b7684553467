"""The shared issue-to-issue latency model for dependence edges.

Both the BUG assignment heuristic (completion-cycle estimates) and the list
scheduler (hard constraints) must price edges identically, otherwise BUG's
greedy choices would be made against a different cost model than the one the
final schedule obeys.  This module is that single pricing function.

``dst.issue >= src.issue + edge_issue_latency(...)`` where:

* ``DATA``  — producer's latency, plus the inter-cluster delay when the
  consumer executes on a different cluster than the producer (the paper's
  remote-register-file access penalty);
* ``ANTI``  — 0 (read happens at issue, before the same-cycle write lands);
* ``OUTPUT``— producer's latency (second write must land strictly later);
* ``MEM``   — 1 after a store-like op (its memory effect lands at end of
  cycle), 0 after a load (a later store may share the cycle: reads are
  performed before writes within a cycle);
* ``CTRL``  — 1 after a check's branch (it must resolve before the guarded
  instruction executes); producer's full latency for the terminator
  barrier (the block's branch leaves only after everything completed).

:class:`DepTable` is the same pricing precomputed once per block: every
edge carries its same-cluster latency, and only a ``DATA`` edge's
inter-cluster delay is left to the placement being priced.
"""

from __future__ import annotations

from repro.errors import ScheduleError
from repro.ir.basic_block import BasicBlock
from repro.ir.dfg import DFG, DepKind, Edge
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.machine.config import MachineConfig


def edge_issue_latency(
    edge: Edge,
    src: Instruction,
    machine: MachineConfig,
    src_cluster: int | None = None,
    dst_cluster: int | None = None,
) -> int:
    """Minimum issue-cycle distance implied by ``edge``.

    Cluster arguments default to the instructions' assigned clusters; pass
    them explicitly when evaluating hypothetical placements (BUG does).
    """
    kind = edge.kind
    if kind is DepKind.DATA:
        lat = machine.latency_of(src.opcode)
        if src_cluster is None:
            src_cluster = src.cluster
        if src_cluster is None or dst_cluster is None:
            raise ScheduleError("DATA edge pricing needs both clusters")
        if src_cluster != dst_cluster:
            lat += machine.inter_cluster_delay
        return lat
    if kind is DepKind.ANTI:
        return 0
    if kind is DepKind.OUTPUT:
        return machine.latency_of(src.opcode)
    if kind is DepKind.MEM:
        return 1 if (src.info.is_store or src.info.is_out) else 0
    if kind is DepKind.CTRL:
        if src.opcode is Opcode.CHKBR:
            return 1
        return machine.latency_of(src.opcode)
    raise ScheduleError(f"unknown dependence kind {kind}")  # pragma: no cover


def same_cluster_edge_latency(edge: Edge, src: Instruction, machine: MachineConfig) -> int:
    """Edge latency assuming no cluster crossing (used for priority heights)."""
    if edge.kind is DepKind.DATA:
        return machine.latency_of(src.opcode)
    return edge_issue_latency(edge, src, machine, src_cluster=0, dst_cluster=0)


class DepTable:
    """One block's dependence graph priced for one machine.

    Built once per block and read by BUG, CASTED's candidate search and the
    list scheduler, so pricing a placement never rebuilds the DFG:

    * ``succs[i]`` / ``preds[i]`` — ``(node, latency, is_data)`` per DFG
      edge, in DFG order (repeats kept).  ``latency`` is
      :func:`same_cluster_edge_latency`; a ``DATA`` edge whose endpoints
      sit on different clusters costs ``delay`` on top.
    * ``heights[i]`` — critical-path height under those latencies.
    * ``latency[i]`` — instruction ``i``'s own static latency.
    * ``cross_reads[i]`` — ``i``'s reads of values defined before the block
      (see :attr:`DFG.cross_reads`); ``cross_regs`` lists each such
      register once, in first-read order.  These are the only registers
      whose home cluster a schedule of the block depends on.
    """

    __slots__ = (
        "n", "delay", "succs", "preds", "heights", "latency",
        "cross_reads", "cross_regs",
    )

    def __init__(self, block: BasicBlock, machine: MachineConfig) -> None:
        dfg = DFG(block)
        insns = block.instructions
        n = dfg.n
        self.n = n
        self.delay = machine.inter_cluster_delay
        self.latency = [machine.latency_of(insn.opcode) for insn in insns]
        succs: list[list[tuple[int, int, bool]]] = [[] for _ in range(n)]
        preds: list[list[tuple[int, int, bool]]] = [[] for _ in range(n)]
        for e in dfg.edges:
            lat = same_cluster_edge_latency(e, insns[e.src], machine)
            is_data = e.kind is DepKind.DATA
            succs[e.src].append((e.dst, lat, is_data))
            preds[e.dst].append((e.src, lat, is_data))
        self.succs = succs
        self.preds = preds
        self.heights = dfg.heights(
            lambda e: same_cluster_edge_latency(e, insns[e.src], machine)
        )
        self.cross_reads = dfg.cross_reads
        self.cross_regs = tuple(
            dict.fromkeys(r for reads in dfg.cross_reads for r in reads)
        )
