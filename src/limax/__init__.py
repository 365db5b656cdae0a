"""limax: scalable lattice influence maximization.

Pick a strategy-mix vector on a discrete budget lattice to maximize the
expected cascade size in a social network.  Two scalable solvers are
provided: one runs a lattice greedy over partially-covered reverse-reachable
sets; the other reduces the problem to classical seed selection by expanding
each strategy into virtual nodes under a mixed independent-cascade /
linear-threshold model.  Exact oracles, Monte-Carlo evaluation, heuristic
baselines, partitioned budgets, and an experiment CLI round out the package.
"""

__version__ = "0.1.0"

from .baselines import cd, hd, mclg, ud
from .budgets import (PartitionedBudget, TotalBudget, feasible_increments,
                      is_feasible, total_steps)
from .graph import (DirectedGraph, TriggeringParams, assign_weighted_cascade,
                    from_edges, gen_erdos_renyi, load_edge_list, uniform_ic)
from .immprr import (GreedyState, ImmParams, compute_gamma, compute_m,
                     lambda_star, lgreedy, lgreedy_delta, make_imm_params,
                     run_immprr, sampling)
from .immvsn import (AugmentedGraph, VirtualNodeId, build_augmented,
                     node_selection_virtual, run_immvsn)
from .oracles import (SpreadEstimate, exact_g, exact_opt,
                      simulate_spread_mix, simulate_spread_seeds)
from .rng import stream
from .rrset import RRCollection, RRSet, g_hat, generate_collection
from .strategy import (BlackBoxActivation, IndependentActivation,
                       LatticeConfig, StrategyMix, validate_model)

__all__ = [name for name in dir() if not name.startswith("_")]
