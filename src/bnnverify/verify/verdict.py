"""Engine outcome type shared by every verification backend."""

import math
from dataclasses import dataclass
from typing import Optional

from ..vnnlib import Witness

__all__ = ["VERIFIED", "FALSIFIED", "UNKNOWN", "TIMEOUT", "Verdict", "check_timeout"]

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


def check_timeout(timeout):
    """Refuse a NaN engine timeout: no elapsed time compares ``>=`` to NaN,
    so its deadline would never pass.  None means no deadline."""
    if timeout is not None and math.isnan(timeout):
        raise ValueError("timeout is NaN; pass None for no deadline")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one verification run.

    ``nodes`` counts the units of work the engine performed (boxes bounded,
    grid points evaluated); ``seconds`` is wall-clock time.  A falsified
    verdict always carries the counterexample witness; no other status may.
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
