"""Trial records and the selection rule shared by the finder and the report."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class StudyFailureError(RuntimeError):
    """Raised when a study produced no complete trial to select from."""


@dataclass
class TrialRecord:
    """Outcome of one search trial."""

    trial_id: int
    seed: int
    sampled: dict[str, Any]
    per_seed_scores: list[float]
    mean_score: float | None
    total_calls: int
    subtotals: dict[str, int]
    feasible: bool
    status: str  # complete | failed
    error: str | None = field(default=None)

    def as_dict(self) -> dict[str, Any]:
        return {
            "trial_id": self.trial_id,
            "status": self.status,
            "feasible": self.feasible,
            "mean_score": self.mean_score,
            "per_seed_scores": self.per_seed_scores,
            "total_calls": self.total_calls,
            "subtotals": self.subtotals,
            "seed": self.seed,
            "sampled": self.sampled,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "TrialRecord":
        return cls(
            trial_id=doc["trial_id"],
            seed=doc["seed"],
            sampled=doc["sampled"],
            per_seed_scores=doc["per_seed_scores"],
            mean_score=doc["mean_score"],
            total_calls=doc["total_calls"],
            subtotals=doc["subtotals"],
            feasible=doc["feasible"],
            status=doc["status"],
            error=doc.get("error"),
        )


def select_best(records: list[TrialRecord]) -> tuple[TrialRecord, bool]:
    """The winner under the budget-constrained objective.

    Among feasible complete trials: fewest total_calls, ties broken by higher
    mean score then lower trial id. With no feasible trial, the complete trial
    with the highest mean score wins and the second return value is False.
    Failed trials are never selected (they count as infinitely many calls).
    """
    complete = [r for r in records if r.status == "complete"]
    if not complete:
        raise StudyFailureError("no complete trials in the study")
    feasible = [r for r in complete if r.feasible]
    if feasible:
        winner = min(feasible, key=lambda r: (r.total_calls, -r.mean_score, r.trial_id))
        return winner, True
    winner = min(complete, key=lambda r: (-r.mean_score, r.total_calls, r.trial_id))
    return winner, False
