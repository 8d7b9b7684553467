"""Register model.

The compiler works on an unbounded supply of *virtual* registers; the
linear-scan allocator rewrites them to *physical* registers drawn from each
cluster's register file (the paper's Table I: 64 GP + 32 PR per cluster; the
64 FP registers are unused by our integer workloads and are not modelled).

A register is identified by ``(rclass, index, virtual)``.  Physical registers
additionally carry the cluster that owns them.  ``Reg`` is immutable and
hashable so it can key renaming tables (the paper's Fig. 4 data structures).

Registers are hashed millions of times per compile (every dataflow fact is a
set of them), so each ``Reg`` packs its four fields into one integer key at
construction; hashing returns it and equality compares it.  The key is a
plain ``int``, so hashes and set iteration order do not depend on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class RegClass(enum.Enum):
    """Architectural register classes."""

    GP = "r"  # 64-bit general purpose
    PR = "p"  # 1-bit predicate

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegClass.{self.name}"


#: Bits of the packed key holding ``cluster + 1`` (clusters -1..62).
_CLUSTER_BITS = 6
_MAX_CLUSTER = (1 << _CLUSTER_BITS) - 2


@dataclass(frozen=True, slots=True)
class Reg:
    """A virtual or physical register operand.

    Attributes
    ----------
    rclass:
        GP or PR.
    index:
        Virtual-register number, or physical index within the owning
        cluster's file.
    virtual:
        True before register allocation.
    cluster:
        Owning cluster for physical registers; ``-1`` for virtual ones.
    """

    rclass: RegClass
    index: int
    virtual: bool = True
    cluster: int = -1
    _key: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"negative register index {self.index}")
        if not self.virtual and self.cluster < 0:
            raise ValueError("physical register requires a cluster")
        if self.virtual and self.cluster >= 0:
            raise ValueError("virtual register must not carry a cluster")
        if not -1 <= self.cluster <= _MAX_CLUSTER:
            raise ValueError(
                f"register cluster {self.cluster} outside -1..{_MAX_CLUSTER}"
            )
        if self.rclass is RegClass.GP:
            code = 0
        elif self.rclass is RegClass.PR:
            code = 1
        else:
            raise ValueError(f"unknown register class {self.rclass!r}")
        # index | cluster + 1 | virtual | class: injective because every
        # field but the unbounded index has a fixed width.
        key = (self.index << _CLUSTER_BITS | (self.cluster + 1)) << 2
        object.__setattr__(self, "_key", key | (2 if self.virtual else 0) | code)

    def __hash__(self) -> int:
        return self._key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Reg):
            return NotImplemented
        return self._key == other._key

    def __reduce__(self) -> tuple[type[Reg], tuple[RegClass, int, bool, int]]:
        # Rebuild through __init__ so the key is recomputed, not shipped.
        return (Reg, (self.rclass, self.index, self.virtual, self.cluster))

    @property
    def is_gp(self) -> bool:
        return self.rclass is RegClass.GP

    @property
    def is_pr(self) -> bool:
        return self.rclass is RegClass.PR

    def __str__(self) -> str:
        prefix = "v" if self.virtual else f"c{self.cluster}."
        return f"{prefix}{self.rclass.value}{self.index}"

    __repr__ = __str__


def GP(index: int, *, virtual: bool = True, cluster: int = -1) -> Reg:
    """Shorthand constructor for a general-purpose register."""
    return Reg(RegClass.GP, index, virtual, cluster)


def PR(index: int, *, virtual: bool = True, cluster: int = -1) -> Reg:
    """Shorthand constructor for a predicate register."""
    return Reg(RegClass.PR, index, virtual, cluster)
