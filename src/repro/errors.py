"""Exception hierarchy for the CASTED reproduction.

Every error raised by the package derives from :class:`ReproError` so callers
can catch the whole family with one clause.  Simulator-level *architectural*
exceptions (the ones a fault-injection trial classifies as "Exception") derive
from :class:`SimTrap` and carry the cycle at which they fired.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class IRError(ReproError):
    """Malformed IR detected by the builder or the verifier."""


class ParseError(ReproError):
    """Syntax or lexical error in textual IR or minic source.

    Attributes
    ----------
    line, col:
        1-based source position of the offending token (0 when unknown).
    """

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line else ""
        super().__init__(f"{message}{where}")


class SemanticError(ReproError):
    """Semantic (type / scope / arity) error in a minic program."""


class PassError(ReproError):
    """A compiler pass was mis-configured or hit an internal invariant."""


class ScheduleError(ReproError):
    """The VLIW scheduler could not produce a legal schedule."""


class RegAllocError(ReproError):
    """Register allocation failed (e.g. unsatisfiable register class)."""


class MachineConfigError(ReproError):
    """Invalid machine/cache configuration."""


class SimError(ReproError):
    """Internal simulator invariant violation (a bug, not a guest fault)."""


class SimTrap(ReproError):
    """Architectural trap raised by guest execution.

    These are the events the fault-injection campaign classifies as
    *Exception* outcomes: the (possibly corrupted) guest program performed an
    operation the hardware would fault on.
    """

    kind = "trap"

    def __init__(self, message: str, cycle: int = -1) -> None:
        self.cycle = cycle
        super().__init__(message)


class MemoryFault(SimTrap):
    """Access outside the valid address space or misaligned access."""

    kind = "memory-fault"


class ArithmeticTrap(SimTrap):
    """Division (or remainder) by zero."""

    kind = "arithmetic-trap"


class Watchdog(SimTrap):
    """Guest exceeded its cycle budget (the paper's *Time out* outcome)."""

    kind = "watchdog"
