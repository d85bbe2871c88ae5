"""Smart-contract base class, execution context, and class registry.

"We adopt Herlihy's notion of a smart contract as an object in
programming languages.  A smart contract has a state, a constructor that
is called when a smart contract is first deployed in the blockchain, and
a set of functions that could alter the state of the smart contract."
(Section 2.3.)

Contracts here are plain Python objects.  The runtime (in
:mod:`repro.chain.state`) instantiates them on deployment, invokes their
public methods on calls, charges fees, and reverts state changes when a
``requires`` clause fails.  Contracts never touch the chain directly:
all environment access goes through the :class:`ExecutionContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..crypto.keys import Address, PublicKey
from ..errors import ContractError, ContractRequireError


def requires(condition: bool, reason: str = "requirement failed") -> None:
    """The pseudocode's ``requires(...)``: revert the call unless true."""
    if not condition:
        raise ContractRequireError(reason)


@dataclass
class ExecutionContext:
    """Everything a contract may observe or effect during one invocation.

    Attributes:
        chain_id: the hosting chain.
        block_height / block_time: position of the including block.
        sender: address of the calling end-user (``msg.sender``).
        sender_pubkey: the caller's public key.
        value: assets attached to this message (``msg.value``).
        message_id: id of the including message (for event attribution).
    """

    chain_id: str
    block_height: int
    block_time: float
    sender: Address
    sender_pubkey: PublicKey | None
    value: int
    message_id: bytes = b""
    _transfers: list[tuple[Address, int]] = field(default_factory=list)
    _events: list[tuple[str, dict]] = field(default_factory=list)

    def transfer(self, recipient: Address, amount: int) -> None:
        """Queue an asset transfer out of the contract's balance.

        Transfers take effect only if the invocation completes without
        reverting; the runtime then debits the contract and mints a UTXO
        for the recipient.
        """
        if amount < 0:
            raise ContractError("cannot transfer a negative amount")
        self._transfers.append((recipient, amount))

    def emit(self, event: str, **data: Any) -> None:
        """Record an event in the invocation's receipt."""
        self._events.append((event, data))


class SmartContract:
    """Base class for all on-chain contracts.

    Subclasses implement a ``constructor(ctx, *args)`` plus public
    functions ``def some_function(self, ctx, *args)``.  Names starting
    with ``_`` are internal and cannot be invoked via messages.  The
    attributes below are managed by the runtime:

    * ``contract_id`` — unique id derived from the deploy message.
    * ``balance`` — assets currently locked in the contract.
    * ``owner`` — address of the deploying user.
    """

    #: Set by subclasses; used by deploy messages to reference the code.
    CLASS_NAME: str = "SmartContract"

    def __init__(self) -> None:
        self.contract_id: bytes = b""
        self.balance: int = 0
        self.owner: Address | None = None

    def constructor(self, ctx: ExecutionContext, *args: Any) -> None:
        """Initialize contract state; called exactly once on deployment."""

    # -- runtime helpers -----------------------------------------------------

    def public_function(self, name: str) -> Callable:
        """Resolve a callable public function or raise ContractError."""
        if name.startswith("_") or name in _RESERVED_NAMES:
            raise ContractError(f"function {name!r} is not public")
        func = getattr(self, name, None)
        if not callable(func):
            raise ContractError(
                f"{type(self).__name__} has no public function {name!r}"
            )
        return func

    def _execution_copy(self) -> "SmartContract":
        """A working copy for one call invocation.

        Chain states share contract instances copy-on-write (see
        ``ChainState.clone``): the runtime mutates this copy during a
        call and installs it in the state only if the call succeeds, so
        the shared original is never touched.  Attribute values are
        copied one container level deep — contract state must be scalars,
        immutables, or flat dict/list/set of immutables.
        """
        clone = object.__new__(type(self))
        clone_vars = clone.__dict__
        for key, value in self.__dict__.items():
            if type(value) is dict:
                value = dict(value)
            elif type(value) is list:
                value = list(value)
            elif type(value) is set:
                value = set(value)
            clone_vars[key] = value
        return clone


_RESERVED_NAMES = {"constructor", "public_function"}


class ContractRegistry:
    """Maps registered class names to contract classes.

    Deploy messages reference code by class name so that state replay can
    re-instantiate contracts deterministically.
    """

    def __init__(self) -> None:
        self._classes: dict[str, type[SmartContract]] = {}

    def register(self, cls: type[SmartContract]) -> type[SmartContract]:
        """Register ``cls`` under its ``CLASS_NAME`` (usable as decorator)."""
        name = cls.CLASS_NAME
        if not name or name == "SmartContract":
            raise ContractError(f"{cls.__name__} must define a unique CLASS_NAME")
        existing = self._classes.get(name)
        if existing is not None and existing is not cls:
            raise ContractError(f"contract class name {name!r} already registered")
        self._classes[name] = cls
        return cls

    def unregister(self, name: str) -> type[SmartContract] | None:
        """Remove (and return) the class registered under ``name``.

        Missing names are a no-op, so re-importable modules (e.g. test
        files loaded both as a top-level module and as ``tests.<name>``)
        can call ``unregister`` before ``register`` to stay idempotent.
        """
        return self._classes.pop(name, None)

    def resolve(self, name: str) -> type[SmartContract]:
        if name not in self._classes:
            raise ContractError(f"unknown contract class {name!r}")
        return self._classes[name]

    def registered_names(self) -> list[str]:
        """Sorted names currently registered (for scoped snapshots)."""
        return sorted(self._classes)


#: The default global registry; protocol modules register their contract
#: classes here at import time.
DEFAULT_REGISTRY = ContractRegistry()


def register_contract(cls: type[SmartContract]) -> type[SmartContract]:
    """Class decorator registering a contract in the default registry."""
    return DEFAULT_REGISTRY.register(cls)


@dataclass(frozen=True, slots=True)
class Receipt:
    """Outcome of applying one message (mirrors Ethereum receipts), filed under its
    message id; a fee-free ``ok`` with no events or contract is :data:`OK_RECEIPT`."""

    status: str  # "ok" | "reverted"
    error: str = ""
    events: tuple = ()
    fee_paid: int = 0
    contract_id: bytes = b""


OK_RECEIPT = Receipt(status="ok")
