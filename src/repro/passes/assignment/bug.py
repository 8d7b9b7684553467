"""The Bottom-Up-Greedy (BUG) clustering algorithm — paper Algorithm 2.

Per basic block, instructions are visited in topological order with
preference to the critical path; for each instruction the *completion cycle*
on every candidate cluster is estimated — operand readiness (including the
inter-cluster delay for operands living on the other cluster, both in-block
and cross-block) plus issue-slot availability from a reservation table — and
the instruction is greedily assigned to the cluster where it completes
earliest.  The chosen (cycle, cluster) slot is then reserved.

The estimate uses the *same* edge pricing as the final list scheduler
(:mod:`repro.passes.latency`, read from the block's :class:`DepTable`), so
greedy decisions are made against the cost model the schedule will
actually obey.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.ir.basic_block import BasicBlock
from repro.isa.registers import Reg
from repro.machine.config import MachineConfig
from repro.machine.reservation import ReservationTable
from repro.obs import get_telemetry
from repro.passes.latency import DepTable


@dataclass
class BugBlockResult:
    """Estimated issue cycles (diagnostics; the list scheduler decides last)."""

    issue_estimate: list[int]
    estimated_length: int


def bug_assign_block(
    block: BasicBlock,
    machine: MachineConfig,
    pinned: dict[Reg, int],
    candidate_clusters: tuple[int, ...] | None = None,
    home_hints: dict[Reg, int] | None = None,
    table: DepTable | None = None,
) -> BugBlockResult:
    """Assign ``insn.cluster`` for every instruction of ``block`` in place.

    ``pinned`` maps registers to their home cluster; definitions of a pinned
    register are forced onto its home (single-home invariant) and reads of
    cross-block operands are charged the inter-cluster delay against their
    pinned home.  The map is updated as new definitions are placed.

    ``home_hints`` supplies *predicted* homes (from a previous assignment
    iteration) for registers not pinned yet, so cross-block operand costs
    are priced even for blocks processed early.  ``table`` is the block's
    :class:`DepTable` for ``machine``, built here when not given.
    """
    hints = home_hints or {}
    if table is None:
        table = DepTable(block, machine)
    insns = block.instructions
    n = table.n
    if candidate_clusters is None:
        candidate_clusters = tuple(range(machine.n_clusters))
    delay = table.delay
    preds = table.preds
    latency = table.latency
    heights = table.heights  # critical path under same-cluster latencies

    slots = ReservationTable(machine.n_clusters, machine.issue_width)
    issue_of: list[int] = [-1] * n
    cluster_of: list[int] = [-1] * n
    cluster_load = [0] * machine.n_clusters  # total slots reserved so far
    n_unassigned_preds = [len(p) for p in preds]

    # Ready queue ordered by (critical path first, then program order).
    ready = [(-heights[i], i) for i in range(n) if not n_unassigned_preds[i]]
    heapq.heapify(ready)
    n_done = 0

    while ready:
        _, i = heapq.heappop(ready)
        insn = insns[i]
        n_done += 1

        # Candidate clusters: a pinned destination forces its home cluster.
        cands = candidate_clusters
        for d in insn.writes():
            home = pinned.get(d)
            if home is not None:
                cands = (home,)
                break

        # Cross-block operands (reads of values defined before the block):
        # reading a remote home costs the delay from the top of the block.
        xhomes = []
        for r in table.cross_reads[i]:
            home = pinned.get(r)
            if home is None:
                home = hints.get(r)
            xhomes.append(home)

        # Choice key: earliest completion first (the Algorithm 2 heuristic),
        # then fewest cross-cluster operand reads, then the less loaded
        # cluster (ties mean the delay is irrelevant, so balance resources),
        # then the lower index for determinism.
        best: tuple[int, int, int, int] | None = None
        best_issue = 0
        for c in cands:
            ready_cycle = 0
            cross_reads = 0
            for p, lat, is_data in preds[i]:
                if is_data and cluster_of[p] != c:
                    lat += delay
                    cross_reads += 1
                if issue_of[p] + lat > ready_cycle:
                    ready_cycle = issue_of[p] + lat
            for home in xhomes:
                if home is not None and home != c:
                    if delay > ready_cycle:
                        ready_cycle = delay
                    cross_reads += 1
            issue = slots.first_free_cycle(c, ready_cycle)
            key = (issue + latency[i], cross_reads, cluster_load[c], c)
            if best is None or key < best:
                best = key
                best_issue = issue

        assert best is not None
        cluster = best[3]
        insn.cluster = cluster
        cluster_of[i] = cluster
        issue_of[i] = best_issue
        slots.reserve(best_issue, cluster)
        cluster_load[cluster] += 1
        for d in insn.writes():
            pinned.setdefault(d, cluster)

        for j, _, _ in table.succs[i]:
            n_unassigned_preds[j] -= 1
            if not n_unassigned_preds[j]:
                heapq.heappush(ready, (-heights[j], j))

    if n_done != n:  # pragma: no cover - DFG is a DAG by construction
        raise AssertionError("BUG failed to visit every node")

    length = max(issue_of) + 1 if issue_of else 0
    tel = get_telemetry()
    if tel.enabled:
        tel.count("assign.bug.blocks")
        tel.observe("assign.bug.estimated_length", length)
        if n:
            # Completion-cycle spread: how far greedy placement pushed the
            # last instruction past a perfectly packed lower bound.
            lower = -(-n // (machine.issue_width * machine.n_clusters))
            tel.observe("assign.bug.length_vs_packed", length / max(1, lower))
    return BugBlockResult(issue_estimate=issue_of, estimated_length=length)
