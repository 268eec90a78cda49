"""Trial records and the selection rule shared by the finder and the report,
and the value checks every module shares (this one imports nothing from the
package, so each can import it)."""

from __future__ import annotations

import reprlib
from dataclasses import MISSING, dataclass, fields
from numbers import Integral, Real
from typing import Any, Callable


class StudyFailureError(RuntimeError):
    """Raised when a study produced no complete trial to select from."""


def _is_integer(value) -> bool:
    """An integer; a numpy integer is one, a bool is not."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number; a numpy float is one, a bool is not."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _require_integer(name: str, value, minimum: int | None = None) -> None:
    """Refuse a value that is not an integer or is below `minimum`."""
    if not _is_integer(value) or minimum is not None and value < minimum:
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def _require_number(name: str, value, rule: str = "a number",
                    ok: Callable[[Any], bool] = lambda value: True) -> None:
    """Refuse a value that is not a real number, or that `ok` refuses; `rule`
    says what the value must be."""
    if not (_is_real(value) and ok(value)):
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def _require_fields(obj, rules: dict[str, tuple[str, Callable[[Any], bool]]]) -> None:
    """Refuse `obj` when a field fails its rule; `rules` maps field names to
    (what the field must be, its test)."""
    for name, (rule, ok) in rules.items():
        value = getattr(obj, name)
        if not ok(value):
            raise ValueError(f"{name} must be {rule}, got {reprlib.repr(value)}")


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
        `error` raises KeyError, a field of the wrong type ValueError naming it."""
        record = cls(**{f.name: doc[f.name] for f in fields(cls)
                        if f.name in doc or f.default is MISSING})
        _require_fields(record, _RECORD_RULES)
        if record.status == "complete" and record.mean_score is None:
            raise ValueError("mean_score of a complete trial must be a number, got None")
        return record


# store field: (what it must be, test)
_RECORD_RULES = {
    "trial_id": ("an integer", _is_integer),
    "status": ("a string", lambda v: isinstance(v, str)),
    "feasible": ("true or false", lambda v: isinstance(v, bool)),
    "mean_score": ("null or a number", lambda v: v is None or _is_real(v)),
    "per_seed_scores": ("a list of numbers",
                        lambda v: isinstance(v, list) and all(map(_is_real, v))),
    "total_calls": ("an integer", _is_integer),
    "subtotals": ("an object of integers",
                  lambda v: isinstance(v, dict) and all(map(_is_integer, v.values()))),
    "seed": ("an integer", _is_integer),
    "sampled": ("an object", lambda v: isinstance(v, dict)),
    "error": ("null or a string", lambda v: v is None or isinstance(v, str)),
}


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
