"""Control-flow graph queries over a :class:`Function`.

The CFG is rebuilt on demand (functions are small); it offers successor /
predecessor maps, reachability, and reverse-postorder — everything the
dataflow analyses and the verifier need.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.function import Function


class CFG:
    """Immutable snapshot of a function's control-flow graph."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.succs: dict[str, tuple[str, ...]] = {}
        self.preds: dict[str, list[str]] = {b.label: [] for b in function.blocks()}
        for block in function.blocks():
            targets = block.successor_labels()
            for t in targets:
                if not function.has_block(t):
                    raise IRError(
                        f"block {block.label} branches to unknown label {t!r}"
                    )
            self.succs[block.label] = targets
            for t in targets:
                self.preds[t].append(block.label)
        self._rpo: list[str] | None = None

    @property
    def entry_label(self) -> str:
        return self.function.entry.label

    def reverse_postorder(self) -> list[str]:
        """Reverse postorder from the entry (unreachable blocks excluded).

        Computed once per CFG (the edges are a snapshot); callers get a copy.
        """
        if self._rpo is None:
            self._rpo = self._compute_reverse_postorder()
        return list(self._rpo)

    def _compute_reverse_postorder(self) -> list[str]:
        visited: set[str] = set()
        postorder: list[str] = []
        # Iterative DFS to avoid recursion limits on long chains.
        stack: list[tuple[str, int]] = [(self.entry_label, 0)]
        visited.add(self.entry_label)
        while stack:
            label, child = stack[-1]
            succs = self.succs[label]
            if child < len(succs):
                stack[-1] = (label, child + 1)
                nxt = succs[child]
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, 0))
            else:
                stack.pop()
                postorder.append(label)
        return postorder[::-1]

    def reachable(self) -> set[str]:
        return set(self.reverse_postorder())

    def unreachable(self) -> set[str]:
        return {b.label for b in self.function.blocks()} - self.reachable()

    def dominators(self) -> dict[str, set[str]]:
        """dom(b): blocks dominating b (iterative dataflow; includes b)."""
        rpo = self.reverse_postorder()
        all_blocks = set(rpo)
        dom: dict[str, set[str]] = {lb: set(all_blocks) for lb in rpo}
        dom[self.entry_label] = {self.entry_label}
        changed = True
        while changed:
            changed = False
            for label in rpo:
                if label == self.entry_label:
                    continue
                preds = [p for p in self.preds[label] if p in all_blocks]
                new = set(all_blocks)
                for p in preds:
                    new &= dom[p]
                new.add(label)
                if new != dom[label]:
                    dom[label] = new
                    changed = True
        return dom

    def natural_loops(self) -> list[tuple[str, frozenset[str]]]:
        """(header, body-blocks) for every back edge; bodies include header.

        For a back edge (u, v) the body is v plus every block that reaches u
        without passing through v (v dominates u in reducible CFGs, so every
        entry into the loop passes through it).
        """
        loops: list[tuple[str, frozenset[str]]] = []
        for u, v in sorted(self.back_edges()):
            members = {v}
            stack = []
            if u != v:
                members.add(u)
                stack.append(u)
            while stack:
                node = stack.pop()
                for p in self.preds[node]:
                    if p not in members:
                        members.add(p)
                        stack.append(p)
            loops.append((v, frozenset(members)))
        return loops

    def loop_depths(self) -> dict[str, int]:
        """Number of natural loops each block belongs to (0 = straight-line).

        One loop per back edge, as :meth:`natural_loops` finds them.  Exact
        for the reducible CFGs our front end emits.
        """
        depths = {b.label: 0 for b in self.function.blocks()}
        for _, body in self.natural_loops():
            for label in body:
                depths[label] += 1
        return depths

    def back_edges(self) -> set[tuple[str, str]]:
        """Edges (u, v) where v dominates-ish u in DFS terms (loop edges).

        Uses the DFS ancestor criterion, which is exact for reducible CFGs
        (all CFGs our front end emits are reducible).
        """
        color: dict[str, int] = {}
        edges: set[tuple[str, str]] = set()
        stack: list[tuple[str, int]] = [(self.entry_label, 0)]
        color[self.entry_label] = 1
        while stack:
            label, child = stack[-1]
            succs = self.succs[label]
            if child < len(succs):
                stack[-1] = (label, child + 1)
                nxt = succs[child]
                state = color.get(nxt, 0)
                if state == 0:
                    color[nxt] = 1
                    stack.append((nxt, 0))
                elif state == 1:
                    edges.add((label, nxt))
            else:
                color[label] = 2
                stack.pop()
        return edges
