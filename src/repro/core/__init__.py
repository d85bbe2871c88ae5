"""The paper's protocols: graph model, contracts, AC3TW, AC3WN, baselines."""

from .ac3wn import AC3WNDriver, run_ac3wn
from .herlihy import run_herlihy
from .nolan import run_nolan

__all__ = [
    "AC3WNDriver",
    "run_ac3wn",
    "run_herlihy",
    "run_nolan",
]
