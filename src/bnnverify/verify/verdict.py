"""Engine outcome type and deadline shared by every verification backend."""

import math
import time
from dataclasses import dataclass
from typing import Optional

from ..vnnlib import Witness

__all__ = ["VERIFIED", "FALSIFIED", "UNKNOWN", "TIMEOUT", "Verdict", "Deadline"]

VERIFIED = "verified"
FALSIFIED = "falsified"
UNKNOWN = "unknown"
TIMEOUT = "timeout"

_STATUSES = (VERIFIED, FALSIFIED, UNKNOWN, TIMEOUT)

# competition vocabulary: unsat = no counterexample, sat = counterexample found
_RESULT_STRINGS = {
    VERIFIED: "unsat",
    FALSIFIED: "sat",
    UNKNOWN: "unknown",
    TIMEOUT: "timeout",
}


@dataclass(frozen=True)
class Verdict:
    """Outcome of one verification run.

    ``nodes`` counts the units of work the engine performed (boxes bounded,
    grid points evaluated); ``seconds`` is its ``Deadline``'s elapsed time.
    A falsified verdict always carries the counterexample witness; no other
    status may.
    """

    status: str
    witness: Optional[Witness] = None
    nodes: int = 0
    seconds: float = 0.0

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown verdict status {self.status!r}")
        if (self.witness is not None) != (self.status == FALSIFIED):
            raise ValueError("witness is carried by falsified verdicts, only")
        if self.nodes < 0:
            raise ValueError("node count cannot be negative")

    @property
    def is_verified(self):
        return self.status == VERIFIED

    @property
    def is_falsified(self):
        return self.status == FALSIFIED

    def result_string(self):
        """Competition result word: unsat / sat / unknown / timeout."""
        return _RESULT_STRINGS[self.status]


class Deadline:
    """A limit of ``timeout`` seconds on ``time.monotonic``, the package's
    one clock, from when it is built.  Engines test ``expired()`` before
    each unit of work.  None means no limit, 0 or less has expired at once,
    and NaN, which no elapsed time reaches, is a ValueError."""

    def __init__(self, timeout=None):
        if timeout is not None and math.isnan(timeout):
            raise ValueError("timeout is NaN; pass None for no deadline")
        self.timeout = timeout
        self._start = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self._start

    def expired(self):
        return self.timeout is not None and self.elapsed() >= self.timeout

    def verdict(self, status, witness=None, nodes=0):
        """The ``Verdict`` of a call that answers now."""
        return Verdict(status, witness=witness, nodes=nodes, seconds=self.elapsed())
