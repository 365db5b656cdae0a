"""Benchmark workloads and their seeded input generators.

Each workload is a generated edge-list file plus the config values that
``limax run`` would read from a YAML file.  The generator uses only numpy
and its own random stream, so a change to the program cannot change the
inputs it is measured on.

Why each workload exists (the layer each one stresses):

* ``er_ic_segmented`` -- the n = 10^4 segmented-event instance of the
  acceptance suite, the headline instance.  RR and hybrid-RR sampling take
  most of both solves; RR sets are narrow (tens of members).
* ``er_lt_personalized`` -- LT weights 1/indeg (each node's weights sum to
  exactly 1) and one private strategy per node (d = n).  The same layers run
  the other way round: many one-node strategies, the LT bisect path and
  d * K virtual nodes, so selection is a large share of ``immprr``.
* ``hub_ic_file`` -- an ER background plus a few hubs with in- and
  out-degree in the thousands, IC probabilities read from the file.
  Per-edge work dominates: RR sets examine thousands of edges for a handful
  of members, parameter build is quadratic in hub in-degree, and forward
  cascades are long.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

__all__ = ["Workload", "WORKLOADS", "TINY", "generate"]


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    er_edges: int
    params: str             # 'weighted_cascade' | 'ic_file' | 'lt_file'
    scenario: str           # 'segmented_event' | 'personalized'
    delta: float
    budget_steps: int
    eval_runs: int          # forward cascades per mix
    hubs: int = 0
    hub_degree: int = 0
    d: int = 200
    top: int = 2000
    r_max: float = 0.3
    epsilon: float = 0.5
    ell: float = 1.0


WORKLOADS = {
    w.name: w for w in (
        Workload("er_ic_segmented", nodes=10_000, er_edges=50_000,
                 params="weighted_cascade", scenario="segmented_event",
                 delta=1.0, budget_steps=50, eval_runs=120),
        Workload("er_lt_personalized", nodes=800, er_edges=4_000,
                 params="lt_file", scenario="personalized",
                 delta=0.1, budget_steps=50, eval_runs=600),
        Workload("hub_ic_file", nodes=5_000, er_edges=7_500,
                 params="ic_file", scenario="segmented_event",
                 delta=1.0, budget_steps=50, eval_runs=120,
                 hubs=4, hub_degree=2_000),
    )
}

# the same workloads at a size that runs in seconds, for the benchmark's test
TINY = {
    "er_ic_segmented": replace(WORKLOADS["er_ic_segmented"], nodes=300,
                               er_edges=1_200, budget_steps=5, eval_runs=100,
                               d=20, top=100),
    "er_lt_personalized": replace(WORKLOADS["er_lt_personalized"], nodes=60,
                                  er_edges=240, budget_steps=5, eval_runs=100),
    "hub_ic_file": replace(WORKLOADS["hub_ic_file"], nodes=300, er_edges=900,
                           budget_steps=5, eval_runs=100, hubs=2,
                           hub_degree=60, d=20, top=100),
}


def _distinct_pairs(n: int, count: int, rng) -> np.ndarray:
    """``count`` distinct non-loop keys u*n+v, uniform without replacement,
    in draw order."""
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < count:
        draw = rng.integers(0, n * n, size=2 * (count - len(keys)) + 16)
        keys = np.concatenate((keys, draw[draw // n != draw % n]))
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    return keys[:count]


def generate(w: Workload, seed: int | list[int], path: str) -> tuple[int, int]:
    """Write the workload's edge list for ``seed`` (an int or a list of
    ints, as ``numpy.random.default_rng`` takes it) to ``path``.

    The file has an ``n m`` header, then ``u v`` records, or ``u v p`` with
    p = 1 / in-degree(v) when the parameters come from the file.  Returns
    (n, m) as written, for the benchmark to check against the parsed graph.
    """
    n = w.nodes
    rng = np.random.default_rng(seed)
    keys = _distinct_pairs(n, w.er_edges, rng)
    if w.hubs:
        hub_keys = []
        for h in rng.choice(n, size=w.hubs, replace=False):
            others = np.delete(np.arange(n), h)
            srcs = rng.choice(others, size=w.hub_degree, replace=False)
            dsts = rng.choice(others, size=w.hub_degree, replace=False)
            hub_keys += [srcs * n + h, h * n + dsts]
        keys = np.concatenate([keys] + hub_keys)
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    src, dst = (keys // n).tolist(), (keys % n).tolist()
    if w.params in ("ic_file", "lt_file"):
        inv = (1.0 / np.maximum(np.bincount(keys % n, minlength=n), 1)).tolist()
        lines = (f"{u} {v} {inv[v]!r}" for u, v in zip(src, dst))
    else:
        lines = (f"{u} {v}" for u, v in zip(src, dst))
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {len(keys)}\n")
        fh.write("\n".join(lines))
        fh.write("\n")
    return n, len(keys)
