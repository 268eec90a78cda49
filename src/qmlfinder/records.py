"""Trial records and the selection rule shared by the finder and the report."""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Any


class StudyFailureError(RuntimeError):
    """Raised when a study produced no complete trial to select from."""


@dataclass
class TrialRecord:
    """Outcome of one search trial. Its fields, in order, are the keys of its
    line in the study store."""

    trial_id: int
    status: str  # complete | failed
    feasible: bool
    mean_score: float | None
    per_seed_scores: list[float]
    total_calls: int
    subtotals: dict[str, int]
    seed: int
    sampled: dict[str, Any]
    error: str | None = None

    def as_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "TrialRecord":
        """The record of a parsed store line; a missing field other than
        `error` raises KeyError."""
        return cls(**{f.name: doc[f.name] for f in fields(cls)
                      if f.name in doc or f.default is MISSING})


def rank_key(record: TrialRecord) -> tuple:
    """Sort key of a complete trial under the budget-constrained objective:
    feasible trials first, by fewest total_calls, then higher mean score, then
    lower trial id; the others after them, by higher mean score, then fewer
    calls, then lower trial id."""
    if record.feasible:
        return (0, record.total_calls, -record.mean_score, record.trial_id)
    return (1, -record.mean_score, record.total_calls, record.trial_id)


def select_best(records: list[TrialRecord]) -> tuple[TrialRecord, bool]:
    """The winner under the budget-constrained objective: the complete trial
    with the least `rank_key`. The second return value is False when no
    complete trial was feasible. Failed trials are never selected (they count
    as infinitely many calls).
    """
    complete = [r for r in records if r.status == "complete"]
    if not complete:
        raise StudyFailureError("no complete trials in the study")
    winner = min(complete, key=rank_key)
    return winner, winner.feasible
