"""Blockchain substrate: UTXO ledgers, PoW, contracts, miners, light clients."""

from .block import Block, BlockHeader, decode_time, encode_time
from .chain import Blockchain, MessageLocation, default_miner_address
from .contracts import (
    DEFAULT_REGISTRY,
    ContractRegistry,
    ExecutionContext,
    Receipt,
    SmartContract,
    register_contract,
    requires,
)
from .lightclient import LightClient, verify_header_linkage
from .mempool import Mempool
from .messages import (
    CallMessage,
    ChainMessage,
    DeployMessage,
    TransferMessage,
    sign_message,
)
from .miner import AttackMiner, MinerNode
from .params import (
    ATTACK_COST_PER_HOUR_USD,
    TABLE1_TPS,
    ChainParams,
    FeeSchedule,
    bitcoin_cash_like,
    bitcoin_like,
    ethereum_like,
    fast_chain,
    litecoin_like,
    table1_presets,
)
from .pow import check_pow, mine_header, target_for_bits, work_for_bits
from .state import ChainState
from .transaction import (
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    make_coinbase,
    sign_transaction,
)
from .utxo import UTXOSet
from .wire import canonical_encode, wire_hash

__all__ = [
    "ATTACK_COST_PER_HOUR_USD",
    "AttackMiner",
    "Block",
    "BlockHeader",
    "Blockchain",
    "CallMessage",
    "ChainMessage",
    "ChainParams",
    "ChainState",
    "ContractRegistry",
    "DEFAULT_REGISTRY",
    "DeployMessage",
    "ExecutionContext",
    "FeeSchedule",
    "LightClient",
    "Mempool",
    "MessageLocation",
    "MinerNode",
    "OutPoint",
    "Receipt",
    "SmartContract",
    "TABLE1_TPS",
    "Transaction",
    "TransferMessage",
    "TxInput",
    "TxOutput",
    "UTXOSet",
    "bitcoin_cash_like",
    "bitcoin_like",
    "canonical_encode",
    "check_pow",
    "decode_time",
    "default_miner_address",
    "encode_time",
    "ethereum_like",
    "fast_chain",
    "litecoin_like",
    "make_coinbase",
    "mine_header",
    "register_contract",
    "requires",
    "sign_message",
    "sign_transaction",
    "table1_presets",
    "target_for_bits",
    "verify_header_linkage",
    "wire_hash",
    "work_for_bits",
]
