"""Blockchain substrate: UTXO ledgers, PoW, contracts, miners."""

from .chain import Blockchain
from .params import fast_chain

__all__ = [
    "Blockchain",
    "fast_chain",
]
