"""Reusable forward/backward dataflow framework over the CFG.

Before this module existed, every dataflow computation in the repo was
hand-rolled: :mod:`repro.ir.liveness` hard-coded backward liveness, the IR
verifier hard-coded a "definitely defined" forward pass, and the protection
linter would have needed a third copy.  This module factors the common
machinery out once:

* an analysis declares its *direction*, its *meet* (union for may-problems,
  intersection for must-problems), its *boundary* fact, and a per-instruction
  *transfer* function over immutable ``frozenset`` facts;
* :func:`solve` runs the block-level equations to a fixed point with a
  worklist in (reverse) postorder and returns per-block entry/exit facts
  (hot analyses override :meth:`DataflowAnalysis.transfer_block` to walk a
  block with one mutable set instead of one frozenset per instruction);
* :meth:`BlockFacts.instruction_facts` replays the transfer function inside a
  block, yielding the fact holding immediately *before* each instruction —
  the granularity use-site queries (verifier, linter) need.

Three concrete analyses ship here because several subsystems share them:

* :class:`MustDefined` — registers definitely defined on every path (the
  verifier's use-before-def check);
* :class:`ReachingDefs` — which definitions (``(reg, uid)`` pairs) may reach
  a point; :func:`def_use_chains` derives use -> defs chains from it;
* :class:`LiveVars` — classic backward liveness,
  :func:`repro.ir.liveness.compute_liveness` is now a thin wrapper over it.

The protection linter (:mod:`repro.analysis.protection`) builds its
"available shadow-check" must-analysis on the same base class.

This module deliberately imports only :mod:`repro.ir` / :mod:`repro.isa`
so that IR-layer modules (the verifier, liveness) can depend on it without
import cycles.
"""

from __future__ import annotations

import abc
import enum
import heapq
from typing import Any, Iterator

from repro.ir.basic_block import BasicBlock
from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.isa.instruction import Instruction
from repro.isa.registers import Reg


class Direction(enum.Enum):
    """Which way facts propagate along CFG edges."""

    FORWARD = "forward"
    BACKWARD = "backward"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Direction.{self.name}"


#: A definition site: the defined register plus the defining instruction's
#: uid (process-unique, so one fact set can mix definitions of many
#: registers without ambiguity).
DefSite = tuple[Reg, int]

#: Every shipped analysis uses immutable register/def-site sets as facts.
#: The element type varies per analysis (``Reg``, ``DefSite``), hence Any.
Fact = frozenset[Any]

EMPTY_FACT: Fact = frozenset()


class DataflowAnalysis(abc.ABC):
    """One dataflow problem over ``frozenset`` facts.

    Subclasses fix the direction and meet, and express the whole transfer
    through :meth:`transfer_insn` — the framework composes the per-block
    transfer and handles iteration order and convergence.
    """

    direction: Direction = Direction.FORWARD

    @abc.abstractmethod
    def boundary(self, function: Function) -> Fact:
        """Fact at the entry (forward) or exit (backward) boundary."""

    @abc.abstractmethod
    def initial(self, function: Function) -> Fact:
        """Optimistic initial fact for interior blocks (the lattice top)."""

    @abc.abstractmethod
    def meet(self, facts: list[Fact]) -> Fact:
        """Combine facts flowing in from several CFG edges."""

    @abc.abstractmethod
    def transfer_insn(self, insn: Instruction, fact: Fact) -> Fact:
        """Fact after ``insn`` (forward) / before it (backward)."""

    def transfer_block(self, block: BasicBlock, fact: Fact) -> Fact:
        """Apply the per-instruction transfer across a whole block."""
        insns = block.instructions
        if self.direction is Direction.BACKWARD:
            insns = insns[::-1]
        for insn in insns:
            fact = self.transfer_insn(insn, fact)
        return fact


class BlockFacts:
    """Solved per-block facts of one analysis over one function.

    ``entry[label]``/``exit[label]`` are the facts at block entry and exit in
    *program* order regardless of analysis direction (for a backward problem
    ``entry`` is what the analysis computed flowing out of the block top).
    """

    def __init__(
        self,
        analysis: DataflowAnalysis,
        function: Function,
        entry: dict[str, Fact],
        exit_: dict[str, Fact],
    ) -> None:
        self.analysis = analysis
        self.function = function
        self.entry = entry
        self.exit = exit_

    def instruction_facts(self, label: str) -> Iterator[tuple[int, Instruction, Fact]]:
        """Yield ``(index, insn, fact)`` with the fact holding *at* ``insn``.

        For a forward analysis the fact is the one immediately before the
        instruction executes; for a backward analysis it is the fact
        immediately after it (i.e. what is demanded downstream).
        """
        analysis = self.analysis
        block = self.function.block(label)
        if analysis.direction is Direction.FORWARD:
            fact = self.entry[label]
            for idx, insn in enumerate(block.instructions):
                yield idx, insn, fact
                fact = analysis.transfer_insn(insn, fact)
        else:
            fact = self.exit[label]
            rev: list[tuple[int, Instruction, Fact]] = []
            for idx in range(len(block.instructions) - 1, -1, -1):
                insn = block.instructions[idx]
                rev.append((idx, insn, fact))
                fact = analysis.transfer_insn(insn, fact)
            yield from reversed(rev)


def solve(
    function: Function,
    analysis: DataflowAnalysis,
    cfg: CFG | None = None,
) -> BlockFacts:
    """Iterate ``analysis`` over ``function`` to a fixed point.

    A worklist ordered by (reverse) postorder position: every reachable
    block is transferred once, then again only when the meet of its
    incoming facts changed.  For the monotone analyses here this is the
    same fixed point round-robin sweeps reach, without the final sweep
    that only confirms nothing moved.

    Unreachable blocks keep their optimistic initial fact: no execution
    reaches them, so any answer is sound, and the clients that care
    (the verifier) reject unreachable code separately.
    """
    cfg = cfg or CFG(function)
    order = cfg.reverse_postorder()
    forward = analysis.direction is Direction.FORWARD
    if not forward:
        order = order[::-1]

    boundary = analysis.boundary(function)
    top = analysis.initial(function)
    # state[label]: the fact at the block's *input* side for this direction.
    state: dict[str, Fact] = {b.label: top for b in function.blocks()}
    out_state: dict[str, Fact] = {b.label: top for b in function.blocks()}

    position = {label: i for i, label in enumerate(order)}
    # sources[i]: where block i's input comes from; sinks[i]: the blocks
    # whose input block i's output feeds.  Reachable blocks only.
    sources: list[list[str]] = []
    sinks: list[list[int]] = []
    for label in order:
        preds = [p for p in cfg.preds[label] if p in position]
        succs = [s for s in cfg.succs[label] if s in position]
        sources.append(preds if forward else succs)
        sinks.append([position[x] for x in (succs if forward else preds)])
    # The boundary fact enters at the entry (forward) or at every block
    # with no reachable successor (backward).
    is_boundary = [
        label == cfg.entry_label if forward else not sources[i]
        for i, label in enumerate(order)
    ]

    worklist = list(range(len(order)))  # sorted, hence already a heap
    queued = [True] * len(order)
    transferred = [False] * len(order)
    while worklist:
        i = heapq.heappop(worklist)
        queued[i] = False
        label = order[i]
        incoming = [out_state[e] for e in sources[i]]
        if is_boundary[i]:
            incoming.append(boundary)
        fact = analysis.meet(incoming) if incoming else top
        if transferred[i] and fact == state[label]:
            continue
        transferred[i] = True
        state[label] = fact
        new_out = analysis.transfer_block(function.block(label), fact)
        if new_out != out_state[label]:
            out_state[label] = new_out
            for j in sinks[i]:
                if not queued[j]:
                    queued[j] = True
                    heapq.heappush(worklist, j)

    if forward:
        entry, exit_ = state, out_state
    else:
        entry, exit_ = out_state, state
    return BlockFacts(analysis, function, entry, exit_)


# ---------------------------------------------------------------------------
# Concrete analyses
# ---------------------------------------------------------------------------


class _UnionMeet(DataflowAnalysis):
    """Base for may-problems: union meet, empty top/boundary."""

    def boundary(self, function: Function) -> Fact:
        return EMPTY_FACT

    def initial(self, function: Function) -> Fact:
        return EMPTY_FACT

    def meet(self, facts: list[Fact]) -> Fact:
        return frozenset().union(*facts) if facts else EMPTY_FACT


class MustDefined(DataflowAnalysis):
    """Registers definitely defined on *every* path from the entry.

    Forward, intersection meet.  A use of a register not in the incoming
    fact may execute before any definition — the verifier's use-before-def
    condition.
    """

    direction = Direction.FORWARD

    def __init__(self, function: Function) -> None:
        regs: set[Reg] = set()
        for _, _, insn in function.all_instructions():
            regs.update(insn.reads())
            regs.update(insn.writes())
        self._all_regs: Fact = frozenset(regs)

    def boundary(self, function: Function) -> Fact:
        return EMPTY_FACT

    def initial(self, function: Function) -> Fact:
        return self._all_regs

    def meet(self, facts: list[Fact]) -> Fact:
        if not facts:
            return self._all_regs
        out = facts[0]
        for f in facts[1:]:
            out &= f
        return out

    def transfer_insn(self, insn: Instruction, fact: Fact) -> Fact:
        writes = insn.writes()
        return fact | frozenset(writes) if writes else fact

    def transfer_block(self, block: BasicBlock, fact: Fact) -> Fact:
        defined = set(fact)
        for insn in block.instructions:
            defined.update(insn.writes())
        return frozenset(defined)


class ReachingDefs(_UnionMeet):
    """Which definition sites ``(reg, uid)`` may reach each point.

    Forward, union meet.  ``uid`` is the defining instruction's process-wide
    unique id, so chains survive any amount of instruction cloning as long
    as queries use the same IR snapshot.
    """

    direction = Direction.FORWARD

    def transfer_insn(self, insn: Instruction, fact: Fact) -> Fact:
        writes = insn.writes()
        if not writes:
            return fact
        written = set(writes)
        kept = frozenset(d for d in fact if d[0] not in written)
        return kept | frozenset((r, insn.uid) for r in writes)


class LiveVars(_UnionMeet):
    """Classic backward liveness: registers whose value may still be read."""

    direction = Direction.BACKWARD

    def transfer_insn(self, insn: Instruction, fact: Fact) -> Fact:
        fact = fact - frozenset(insn.writes())
        reads = insn.reads()
        return fact | frozenset(reads) if reads else fact

    def transfer_block(self, block: BasicBlock, fact: Fact) -> Fact:
        live = set(fact)
        for insn in reversed(block.instructions):
            live.difference_update(insn.writes())
            live.update(insn.reads())
        return frozenset(live)


#: A use site: (block label, instruction index, instruction uid, register).
UseSite = tuple[str, int, int, Reg]


def def_use_chains(
    function: Function, cfg: CFG | None = None
) -> dict[UseSite, frozenset[DefSite]]:
    """Map every register use to the definition sites that may reach it."""
    facts = solve(function, ReachingDefs(), cfg)
    chains: dict[UseSite, frozenset[DefSite]] = {}
    for block in function.blocks():
        for idx, insn, fact in facts.instruction_facts(block.label):
            for r in insn.reads():
                chains[(block.label, idx, insn.uid, r)] = frozenset(
                    d for d in fact if d[0] == r
                )
    return chains


def undefined_uses(
    function: Function, cfg: CFG | None = None
) -> list[tuple[str, int, Instruction, Reg]]:
    """Every use that may execute before any definition of its register.

    Returns ``(block label, index, insn, reg)`` tuples in layout order; empty
    means the function is use-before-def clean on all reachable paths.
    """
    cfg = cfg or CFG(function)
    facts = solve(function, MustDefined(function), cfg)
    reachable = cfg.reachable()
    bad: list[tuple[str, int, Instruction, Reg]] = []
    for block in function.blocks():
        if block.label not in reachable:
            continue
        # MustDefined's transfer, replayed on one mutable set.
        defined = set(facts.entry[block.label])
        for idx, insn in enumerate(block.instructions):
            for r in insn.reads():
                if r not in defined:
                    bad.append((block.label, idx, insn, r))
            defined.update(insn.writes())
    return bad
