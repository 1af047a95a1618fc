"""Competition scoring: 10 points per correct answer, -150 per penalty."""

from dataclasses import dataclass

CORRECT_POINTS = 10
PENALTY_POINTS = 150


@dataclass(frozen=True)
class ScoreRow:
    tool_name: str
    verified: int
    falsified: int
    fastest: int  # tracked for the table, not weighted in the score
    penalty: int
    percent: float

    @property
    def score(self) -> int:
        """Read off the counts, so it cannot disagree with them."""
        return _score(self.verified, self.falsified, self.penalty)


def _score(verified, falsified, penalty):
    return CORRECT_POINTS * (verified + falsified) - PENALTY_POINTS * penalty


def score_results(counts) -> list:
    """Rank tools from (name, verified, falsified, fastest, penalty) rows.

    score = 10*(verified+falsified) - 150*penalty; percent is relative to
    the best tool and floors at 0 so negative scores read as 0%.
    """
    counts = list(counts)
    if not counts:
        raise ValueError("no tool counts to score")
    scores = []
    for name, verified, falsified, fastest, penalty in counts:
        if min(verified, falsified, fastest, penalty) < 0:
            raise ValueError(f"{name}: counts must be non-negative")
        scores.append(_score(verified, falsified, penalty))
    best = max(scores)
    rows = [ScoreRow(*c, 100.0 * max(0, score) / best if best > 0 else 0.0)
            for c, score in zip(counts, scores)]
    rows.sort(key=lambda r: (-r.score, r.tool_name))
    return rows


_COLUMNS = ("rank", "tool", "verified", "falsified", "fastest", "penalty",
            "score", "percent")


def format_score_table(rows) -> str:
    """Aligned text table, best score first."""
    cells = [_COLUMNS]
    for rank, r in enumerate(rows, start=1):
        cells.append((str(rank), r.tool_name, str(r.verified),
                      str(r.falsified), str(r.fastest), str(r.penalty),
                      str(r.score), f"{r.percent:.0f}%"))
    widths = [max(len(row[i]) for row in cells) for i in range(len(_COLUMNS))]
    lines = []
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"

