"""Workload generators and scenario builders for tests, benches, examples."""

from .graphs import two_party_swap
from .scenarios import build_scenario

__all__ = [
    "build_scenario",
    "two_party_swap",
]
