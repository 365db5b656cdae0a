import numpy as np
import pytest

from limax.budgets import (InfeasibleStateError, PartitionedBudget,
                           TotalBudget, as_partition, feasible_increments,
                           is_feasible, total_steps)
from limax.oracles import enumerate_feasible_mixes
from limax.strategy import LatticeConfig, StrategyMix


def test_total_budget_basics():
    c = TotalBudget(3)
    assert is_feasible(StrategyMix([0, 0]), c)
    assert is_feasible(StrategyMix([2, 1]), c)  # boundary is inclusive
    assert not is_feasible(StrategyMix([3, 1]), c)
    assert total_steps(c) == 3


def test_feasible_increments_total():
    c = TotalBudget(3)
    assert feasible_increments(StrategyMix([1, 0, 0]), c).tolist() == [0, 1, 2]
    assert feasible_increments(StrategyMix([2, 1, 0]), c).tolist() == []


def test_feasible_increments_infeasible_input():
    with pytest.raises(InfeasibleStateError):
        feasible_increments(StrategyMix([4]), TotalBudget(3))


def test_partitioned_group_caps():
    c = PartitionedBudget(groups=[(0, 1), (2, 3)], caps=[1, 1])
    assert not is_feasible(StrategyMix([2, 0, 0, 0]), c)
    assert is_feasible(StrategyMix([1, 0, 0, 1]), c)
    # group 0 exhausted: nothing from it flows back
    got = feasible_increments(StrategyMix([1, 0, 0, 0]), c).tolist()
    assert got == [2, 3]
    assert total_steps(c) == 2


def test_partition_must_cover_and_be_disjoint():
    with pytest.raises(ValueError):
        PartitionedBudget(groups=[(0, 1), (1, 2)], caps=[1, 1])
    with pytest.raises(ValueError):
        PartitionedBudget(groups=[(0, 1)], caps=[1, 1])
    with pytest.raises(ValueError):
        PartitionedBudget(groups=[(0,), (1, 2)], caps=[1, 1])  # singleton group


def test_zero_vector_always_feasible():
    assert is_feasible(StrategyMix.zeros(4), TotalBudget(0))
    c = PartitionedBudget(groups=[(0, 1), (2, 3)], caps=[0, 2])
    assert is_feasible(StrategyMix.zeros(4), c)
    assert feasible_increments(StrategyMix.zeros(4), c).tolist() == [2, 3]


@pytest.mark.parametrize("constraint", [
    TotalBudget(3),
    PartitionedBudget(groups=[(0, 1), (2, 3)], caps=[2, 1]),
])
def test_matroid_exchange(constraint):
    # for feasible x, y with |x| < |y| some coordinate of supp(y) extends x
    from itertools import product
    d = 4
    box = list(product(range(4), repeat=d))
    feas = [np.array(p, dtype=np.int64) for p in box
            if is_feasible(np.array(p, dtype=np.int64), constraint)]
    for x in feas:
        for y in feas:
            if x.sum() >= y.sum():
                continue
            grow = set(feasible_increments(x, constraint).tolist())
            support = {j for j in range(d) if y[j] > x[j]}
            assert grow & support, f"no exchange step from {y} into {x}"


def test_total_budget_is_one_group():
    c = TotalBudget(3)
    assert c.caps == (3,)
    with pytest.raises(AttributeError):
        c.caps = (4,)
    group_of, caps = as_partition(c, 4)
    assert group_of.tolist() == [0, 0, 0, 0] and caps.tolist() == [3]
    group_of, caps = as_partition(PartitionedBudget(groups=[(0, 3), (1, 2)], caps=[2, 0]), 4)
    assert group_of.tolist() == [0, 1, 1, 0] and caps.tolist() == [2, 0]
    with pytest.raises(TypeError, match="unknown constraint type dict"):
        as_partition({"steps": 3}, 4)


@pytest.mark.parametrize("ask", [
    lambda c: is_feasible(StrategyMix.zeros(3), c),
    lambda c: feasible_increments(StrategyMix.zeros(3), c),
    lambda c: list(enumerate_feasible_mixes(LatticeConfig(d=3, delta=1.0, budget_steps=2), c)),
])
def test_partition_over_another_strategy_count_is_rejected(ask):
    c = PartitionedBudget(groups=[(0, 1), (2, 3)], caps=[1, 1])
    with pytest.raises(ValueError, match="constraint partitions 4 strategies, not 3"):
        ask(c)


@pytest.mark.parametrize("make, message", [
    (lambda: TotalBudget(2.5), r"budget steps \(2\.5\)"),
    (lambda: PartitionedBudget(groups=[(0, 1), (2, 3)], caps=[1.7, 1]), r"cap 0 \(1\.7\)"),
    (lambda: PartitionedBudget(groups=[(0, 1), (2, 3)], caps=[1, 0.5]), r"cap 1 \(0\.5\)"),
    (lambda: PartitionedBudget(groups=[(0.0, 1.9), (2, 3)], caps=[1, 1]),
     r"group 0 strategy id \(1\.9\)"),
])
def test_non_integer_budget_inputs_are_rejected(make, message):
    """A cast would truncate them: a cap of 1.7 would become 1 unnoticed."""
    with pytest.raises(ValueError, match=message + " is not an integer"):
        make()
    assert TotalBudget(3.0).steps == 3 and type(TotalBudget(3.0).steps) is int
    c = PartitionedBudget(groups=[(0.0, 1), (2, 3.0)], caps=[1.0, 2])
    assert c.groups == ((0, 1), (2, 3)) and c.caps == (1, 2)
