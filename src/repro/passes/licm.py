"""Loop-invariant code motion (part of the ``-O1`` pipeline).

Hoists pure, non-trapping, loop-invariant computations into the loop's
preheader.  Deliberately conservative on the non-SSA IR — an instruction is
hoisted only when

1. its opcode is pure and cannot trap (no loads: a zero-trip loop must not
   introduce a memory fault; no DIV/REM: ditto for arithmetic traps);
2. every source is invariant: defined only outside the loop, or by an
   already-hoisted instruction;
3. it is the *only* definition of its destination inside the loop;
4. every use of the destination is inside the loop (so executing the
   definition on a zero-trip path changes nothing observable);
5. the destination is not live into the loop header (no loop-carried use
   precedes the definition).

Hoisting iterates, so chains of invariant instructions move together.
Loops whose header has more than one out-of-loop predecessor (no unique
preheader) are skipped; the minic code generator always produces one.
"""

from __future__ import annotations

from collections import Counter

from repro.ir.cfg import CFG
from repro.ir.liveness import compute_liveness
from repro.ir.program import Program
from repro.isa.instruction import Instruction, Role
from repro.isa.opcodes import Opcode
from repro.isa.registers import Reg
from repro.passes.base import FunctionPass, PassContext

_HOISTABLE = frozenset(
    {
        Opcode.MOVI, Opcode.MOV, Opcode.PMOV, Opcode.ADD, Opcode.SUB,
        Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL,
        Opcode.SHRL, Opcode.SHRA, Opcode.MIN, Opcode.MAX, Opcode.NEG,
        Opcode.ABS, Opcode.NOT, Opcode.SELECT,
        Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT, Opcode.CMPLE,
        Opcode.CMPGT, Opcode.CMPGE, Opcode.PNE,
    }
)


class LoopInvariantCodeMotion(FunctionPass):
    name = "licm"

    def run(self, program: Program, ctx: PassContext) -> bool:
        function = program.main
        cfg = CFG(function)
        loops = cfg.natural_loops()
        if not loops:
            ctx.record(self.name, hoisted=0)
            return False

        live = compute_liveness(function, cfg)

        # Uses of every register across the whole function.  Hoisting moves
        # instructions without adding or removing any, so this never changes.
        uses: Counter[Reg] = Counter()
        for _, _, insn in function.all_instructions():
            uses.update(insn.reads())

        hoisted_total = 0
        # Inner loops first (smaller bodies), so invariants escape outward
        # across several LICM iterations of the surrounding pipeline.
        for header, body in sorted(loops, key=lambda hv: len(hv[1])):
            hoisted_total += self._process_loop(
                function, cfg, live, uses, header, body
            )

        ctx.record(self.name, hoisted=hoisted_total)
        return hoisted_total > 0

    def _process_loop(self, function, cfg, live, uses, header, body) -> int:
        outside_preds = [p for p in cfg.preds[header] if p not in body]
        if len(outside_preds) != 1:
            return 0
        preheader = function.block(outside_preds[0])
        # ``body`` is a set of labels, whose iteration order follows the
        # (seeded) str hash; walk it in layout order so the hoisting order,
        # and with it the output, is the same in every process.
        body = [b.label for b in function.blocks() if b.label in body]

        # Defs and uses inside the loop, counted once from its current
        # blocks (which already hold what inner loops hoisted) and kept
        # exact on every hoist; outside uses are the rest of ``uses``.
        loop_defs: Counter[Reg] = Counter()
        loop_uses: Counter[Reg] = Counter()
        for label in body:
            for insn in function.block(label).instructions:
                loop_defs.update(insn.writes())
                loop_uses.update(insn.reads())

        live_into_header = live.live_in[header]
        hoisted_regs: set[Reg] = set()
        hoisted = 0
        changed = True
        while changed:
            changed = False
            for label in body:
                block = function.block(label)
                keep: list[Instruction] = []
                for insn in block.instructions:
                    if self._can_hoist(
                        insn,
                        loop_defs,
                        loop_uses,
                        uses,
                        hoisted_regs,
                        live_into_header,
                    ):
                        # insert before the preheader's terminator
                        preheader.instructions.insert(
                            len(preheader.instructions) - 1, insn
                        )
                        hoisted_regs.add(insn.dest)
                        # the def leaves the loop; its reads move outside
                        loop_defs[insn.dest] -= 1
                        loop_uses.subtract(insn.reads())
                        hoisted += 1
                        changed = True
                    else:
                        keep.append(insn)
                block.instructions = keep
        return hoisted

    def _can_hoist(
        self, insn, loop_defs, loop_uses, uses, hoisted_regs, live_into_header
    ) -> bool:
        if insn.role is not Role.ORIG or insn.opcode not in _HOISTABLE:
            return False
        if not insn.dests:
            return False
        dest = insn.dest
        if dest in live_into_header:
            return False  # loop-carried
        if loop_defs.get(dest, 0) != 1:
            return False
        if uses.get(dest, 0) != loop_uses.get(dest, 0):
            return False  # used outside the loop
        for r in insn.reads():
            if r in hoisted_regs:
                continue
            if loop_defs.get(r, 0) != 0:
                return False
        return True
