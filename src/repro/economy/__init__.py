"""The fee-market economy: fee policies, fee estimation, swap budgets.

This package turns block space from an infinite resource into the
economic bottleneck the paper's cost analysis (Section 5 / Table 1)
assumes.  Chains get a :class:`FeePolicy` (weights, block-space budget,
mempool capacity, relay and replace-by-fee rules) enforced by the
chain's :class:`~repro.chain.mempool.Mempool`; end-users read the market
through a :class:`FeeEstimator` and spend against a per-swap
:class:`FeeBudget` with bump-or-abort rebroadcast when congestion evicts
their messages.
"""

# The one pool class under its old name: benchmarks/ledger/micro.py imports it.
from ..chain.mempool import Mempool as PriorityMempool
from .estimator import FeeEstimator
from .policy import DEFAULT_POLICY, FeeBudget, FeePolicy, bump_fee

__all__ = [
    "DEFAULT_POLICY",
    "FeeBudget",
    "FeeEstimator",
    "FeePolicy",
    "PriorityMempool",
    "bump_fee",
]
