"""Budget constraints over strategy mixes, each a partition matroid over
increments: every group of strategies spends at most its cap of steps.  A
:class:`TotalBudget` is one group; :func:`as_partition` turns either shape
into (group of each strategy, cap of each group), and every budget question,
here and in the solvers, is answered from that pair alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .strategy import _whole, as_steps

__all__ = [
    "TotalBudget",
    "PartitionedBudget",
    "InfeasibleStateError",
    "as_partition",
    "is_feasible",
    "feasible_increments",
    "total_steps",
]


class InfeasibleStateError(ValueError):
    """A mix that violates its constraint was passed where feasibility is a contract."""


@dataclass(frozen=True)
class TotalBudget:
    """At most ``steps`` increments in total across all coordinates."""

    steps: int

    def __post_init__(self):
        object.__setattr__(self, "steps", _whole(self.steps, "budget steps"))
        if self.steps < 0:
            raise ValueError("budget steps must be >= 0")

    @property
    def caps(self) -> tuple[int]:
        return (self.steps,)


class PartitionedBudget:
    """Strategies split into disjoint groups, each with its own step cap.

    Groups must cover [0, d) and contain at least two strategies each; a
    singleton group is just a per-coordinate cap, which the models already
    express by clamping curves.
    """

    def __init__(self, groups, caps):
        groups = tuple(tuple(_whole(j, f"group {gi} strategy id") for j in g)
                       for gi, g in enumerate(groups))
        caps = tuple(_whole(c, f"cap {ci}") for ci, c in enumerate(caps))
        if len(groups) != len(caps):
            raise ValueError("need one cap per group")
        if any(c < 0 for c in caps):
            raise ValueError("caps must be >= 0")
        if any(len(g) <= 1 for g in groups):
            raise ValueError("every group must contain more than one strategy")
        flat = [j for g in groups for j in g]
        d = len(flat)
        if sorted(flat) != list(range(d)):
            raise ValueError("groups must partition 0..d-1")
        self.groups = groups
        self.caps = caps
        self.d = d
        group_of = np.empty(d, dtype=np.int64)
        for gi, g in enumerate(groups):
            for j in g:
                group_of[j] = gi
        group_of.flags.writeable = False
        self.group_of = group_of

    def __repr__(self):
        return f"PartitionedBudget(groups={self.groups}, caps={self.caps})"


def as_partition(constraint, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The constraint over d strategies as (group of each strategy, cap of
    each group), both int64: a total budget is group 0 for every strategy."""
    if isinstance(constraint, TotalBudget):
        return np.zeros(d, dtype=np.int64), np.array(constraint.caps, dtype=np.int64)
    if isinstance(constraint, PartitionedBudget):
        if constraint.d != d:
            raise ValueError(f"constraint partitions {constraint.d} strategies, not {d}")
        return constraint.group_of, np.array(constraint.caps, dtype=np.int64)
    raise TypeError(f"unknown constraint type {type(constraint).__name__}")


def _spent(steps: np.ndarray, constraint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(group of each strategy, cap of each group, steps each group spends in x)."""
    group_of, caps = as_partition(constraint, len(steps))
    return group_of, caps, np.bincount(group_of, weights=steps, minlength=len(caps))


def is_feasible(x, constraint) -> bool:
    """True iff every group spends at most its cap (inclusive)."""
    _, caps, spent = _spent(as_steps(x), constraint)
    return bool((spent <= caps).all())


def feasible_increments(x, constraint) -> np.ndarray:
    """Coordinates j such that x + e_j stays feasible, ascending.

    Raises :class:`InfeasibleStateError` if x itself is infeasible.
    """
    group_of, caps, spent = _spent(as_steps(x), constraint)
    if (spent > caps).any():
        raise InfeasibleStateError("mix violates the constraint")
    return (spent < caps)[group_of].nonzero()[0]


def total_steps(constraint) -> int:
    """Upper bound on greedy rounds: the total number of increments available."""
    return sum(constraint.caps)
