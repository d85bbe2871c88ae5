"""The shared non-blocking protocol-driver lifecycle.

:class:`ProtocolDriver` runs one AC2T as an event-driven state machine:

* the driver never advances the simulator itself — it *schedules* its
  next activation as a simulator callback and returns;
* it subscribes to the involved chains' on-block-mined hooks
  (:meth:`repro.chain.chain.Blockchain.add_block_listener`) and to its
  participants' recovery hooks
  (:meth:`repro.sim.node.Node.add_recovery_listener`), and the only
  *timer* it ever schedules is the current phase's own deadline.  Every
  state change a driver can act on materializes either when a block
  connects (confirmations, receipts, released change, expired on-chain
  timelocks, mempool evictions) or when a crashed participant comes
  back;
* when the protocol reaches a terminal state the driver finalizes its
  :class:`~repro.core.protocol.SwapOutcome` and fires ``on_complete``
  callbacks — which is what lets :class:`repro.engine.SwapEngine`
  multiplex hundreds of concurrent AC2Ts over one simulation.

**Submission jitter (fee-budgeted swaps).**  Block hooks fire for
every co-hosted driver at the same instant a block connects, so under a
congested fee market hundreds of swaps would otherwise submit (and
fee-bump) in one synchronized burst, evicting each other and timing out
witness-chain decisions.  Drivers carrying a :class:`~repro.economy.FeeBudget`
therefore react to block hooks after a small deterministic per-swap
delay in ``[0, jitter_span)``, derived from the swap's identity (its
graph digest): explicit, seeded, and reproducible.

What participants do under either witness protocol — multisign the
graph, publish and settle every contract in parallel — is written once
here (:meth:`_sign_graph`, :meth:`_deploy_missing_edges`,
:meth:`_settle_open_edges`, and the shared :data:`SETTLE` row).

**The phase table.**  A protocol is its class-level ``PHASES`` of
:class:`Phase` rows, run by the one interpreter :meth:`_advance`; a
successor a row does not declare is a
:class:`~repro.errors.ProtocolError`, so the rendered table
(:meth:`describe_phases`, pinned in ``docs/protocols.md``) cannot lie.
Subclasses supply ``PHASES``, its step methods, :meth:`_begin`
(synchronous setup at start time; False = the AC2T never starts,
otherwise the first row is entered) and optionally :meth:`_finalize`
(last-moment outcome bookkeeping, e.g. Herlihy's decision).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from ..chain.block import Block
from ..chain.chain import Blockchain
from ..chain.messages import CallMessage, DeployMessage, sign_message
from ..crypto.keys import Address
from ..crypto.signatures import Multisignature
from ..economy import DEFAULT_POLICY, FeeBudget, FeePolicy, bump_fee
from ..errors import (
    FeeError,
    FeeTooLowError,
    InsufficientFundsError,
    ProtocolError,
    ValidationError,
)
from ..sim.events import Event
from .contract_template import SwapState
from .graph import AssetEdge, SwapGraph
from .protocol import ContractRecord, SwapEnvironment, SwapOutcome, edge_key

#: The successor that ends the AC2T (:meth:`ProtocolDriver._finish`).
END = "end"


@dataclass(frozen=True)
class Phase:
    """One row of a driver's phase table.

    ``step(expired) -> successor | None`` (None stays) is the driver
    method run on every activation in the row; ``deadline`` the driver
    attribute its one timer is set from on entry: seconds after entry,
    or an absolute sim time when ``from_entry`` is False.  The step may
    return a ``progress`` successor any time, an ``expiry`` one once the
    deadline has passed.
    """

    name: str
    step: str
    deadline: str
    progress: tuple[str, ...]
    expiry: tuple[str, ...] = (END,)
    from_entry: bool = True


#: The witness protocols' last row: redeem (commit) or refund (abort)
#: every published contract until all are settled or the deadline passes.
SETTLE = Phase("settle", "_settle", "_settle_timeout", progress=(END,))


@dataclass
class TrackedSubmission:
    """One fee-budgeted message a driver is watching for eviction."""

    chain_id: str
    message: DeployMessage | CallMessage
    sender: str
    on_replace: Callable[[DeployMessage | CallMessage], None]
    fee_rate: int
    bumps: int = 0


class ProtocolDriver:
    """Base class: one AC2T executed as a non-blocking state machine."""

    protocol_name = "abstract"
    #: The phase table (see the module docstring); the first row is
    #: entered once :meth:`_begin` succeeds.
    PHASES: tuple[Phase, ...] = ()

    def __init__(
        self,
        env: SwapEnvironment,
        graph: SwapGraph,
        extra_chain_ids: tuple[str, ...] = (),
        fee_budget: FeeBudget | None = None,
        jitter_span: float | None = None,
    ) -> None:
        self.env = env
        self.graph = graph
        self.fee_budget = fee_budget
        self.outcome = SwapOutcome(protocol=self.protocol_name, graph=graph)
        if fee_budget is not None:
            self.outcome.fee_cap = fee_budget.cap
        #: Fees of live/mined budgeted submissions, charged against the cap.
        self._fee_committed = 0
        self._tracked: dict[bytes, TrackedSubmission] = {}
        self._publish_priced_out = False
        #: Per-chain fee-rate floor raised whenever a submission is
        #: refused outright (pool full / below the auction waterline).
        self._rate_floor: dict[str, int] = {}
        for edge in graph.edges:
            self.outcome.contracts[edge_key(edge)] = ContractRecord(edge=edge)

        #: Deploy/call messages submitted so far, keyed by edge key.
        self._deploys: dict[str, DeployMessage] = {}
        self._settle_calls: dict[str, CallMessage] = {}
        #: Every (chain_id, message_id) this driver submitted, for fees.
        self._submitted: list[tuple[str, bytes]] = []

        self.started = False
        self.finished = False
        #: Callbacks fired exactly once with the final outcome.
        self.on_complete: list[Callable[[SwapOutcome], None]] = []
        #: Callbacks fired on every named phase transition (the hook
        #: adversarial actors key on: crash-at-settle, phase-scoped
        #: eclipse windows).  Listeners run synchronously *before*
        #: the new phase's first actions.
        self.on_phase: list[Callable[[str], None]] = []

        #: Optional flight recorder plus this swap's trace id, set by the
        #: engine at launch (see :mod:`repro.obs`).  Emit sites guard on
        #: ``is not None`` so untraced runs pay one attribute load.
        self.collector = None
        self.trace_swap_id: int | None = None

        self._watched: list[Blockchain] = []
        self._watched_participants: list = []
        self._watched_mempools: list = []
        self._pending_tick: Event | None = None
        self._pending_hook: Event | None = None
        #: The current row of ``PHASES`` and the sim time it expires.
        self._phase: Phase | None = None
        self._deadline = 0.0
        #: What the shared settle row calls: "redeem" or "refund".
        self._settle_function = ""

        involved = set(graph.chains_used()) | set(extra_chain_ids)
        self._involved_chain_ids = sorted(involved)
        fastest = min(
            env.chain(c).params.block_interval for c in self._involved_chain_ids
        )
        self._poll = max(fastest / 4.0, 1e-3)
        # Deterministic per-swap submission jitter (see module docstring):
        # only fee-budgeted swaps herd — unbudgeted traffic keeps the
        # zero-delay hook reaction (and its pinned baselines).
        span = self._poll if jitter_span is None else jitter_span
        self._jitter = 0.0
        if fee_budget is not None and span > 0.0:
            digest = graph.digest()
            self._jitter = (
                (int.from_bytes(digest[:8], "big") / float(1 << 64)) * span
            )

    # -- the phase table and its one interpreter -----------------------------

    @classmethod
    def phase_names(cls) -> tuple[str, ...]:
        return tuple(row.name for row in cls.PHASES)

    @classmethod
    def describe_phases(cls) -> str:
        """The phase table as text (the block in ``docs/protocols.md``)."""
        rows = [("phase", "step", "deadline", "on progress", "at deadline")]
        for row in cls.PHASES:
            deadline = ("entry + " if row.from_entry else "") + row.deadline.lstrip("_")
            progress, expiry = ", ".join(row.progress), ", ".join(row.expiry)
            rows.append((row.name, row.step, deadline, progress, expiry))
        widths = [max(len(cells[i]) for cells in rows) for i in range(4)] + [0]
        lines = ["  ".join(c.ljust(w) for c, w in zip(cells, widths)) for cells in rows]
        return "\n".join([cls.protocol_name] + ["  " + line.rstrip() for line in lines])

    def _set_phase(self, name: str) -> None:
        """Enter row ``name``: set its deadline, notify the phase listeners.

        Listeners fire before the new phase performs any action, so a
        phase-keyed failure injection (an eclipse window, a Byzantine
        settle refusal) lands exactly at the protocol step it names.
        """
        row = next(row for row in self.PHASES if row.name == name)
        self._phase = row
        start = self.sim.now if row.from_entry else 0.0
        self._deadline = start + getattr(self, row.deadline)
        if self.collector is not None:
            self.collector.emit(
                "swap", "phase", swap_id=self.trace_swap_id, phase=name
            )
        for listener in list(self.on_phase):
            listener(name)

    def _advance(self) -> None:
        """Run the current row's step, entering each returned successor
        (and running its step) until one stays or the swap ends; then arm
        the one timer at the row's deadline (a past deadline polls)."""
        while True:
            row = self._phase
            now = self.sim.now
            expired = now >= self._deadline
            successor = getattr(self, row.step)(expired)
            if successor is None:
                break
            if successor not in row.progress + (row.expiry if expired else ()):
                raise ProtocolError(
                    f"{self.protocol_name}: phase {row.name!r} cannot move to "
                    f"{successor!r}{' at its deadline' if expired else ''}"
                )
            if successor == END:
                self._finish()
                return
            self._set_phase(successor)
        target = self._deadline if self._deadline > now else now + self._poll
        if self._pending_tick is not None:
            if self._pending_tick.time == target:
                return  # the wanted wake-up is already armed
            self._pending_tick.cancel()
        self._pending_tick = self.sim.schedule_at(
            target, self._tick, label=f"{self.protocol_name} driver tick"
        )

    def _finalize(self) -> None:
        """Optional last-moment outcome bookkeeping before completion."""

    # -- conveniences shared by every protocol -------------------------------

    @property
    def sim(self):
        return self.env.simulator

    def _address_of(self, name: str) -> Address:
        return self.graph.participant_keys()[name].address()

    def _chain_delta(self, chain_id: str) -> float:
        """Δ for one chain: time to publish + be publicly recognized."""
        params = self.env.chain(chain_id).params
        return params.confirmation_depth * params.block_interval

    def _max_delta(self) -> float:
        return max(self._chain_delta(c) for c in self._involved_chain_ids)

    def _track(
        self,
        chain_id: str,
        message: DeployMessage | CallMessage,
        sender: str,
        on_replace: Callable[[DeployMessage | CallMessage], None],
    ) -> None:
        """Record a submitted message (for fee collection), and — when a
        fee budget governs this swap — watch it for mempool eviction so
        the bump-or-abort rebroadcast policy can react."""
        self._submitted.append((chain_id, message.message_id()))
        if self.fee_budget is None:
            return
        self._fee_committed += message.fee
        self._tracked[message.message_id()] = TrackedSubmission(
            chain_id=chain_id,
            message=message,
            sender=sender,
            on_replace=on_replace,
            fee_rate=self._base_fee_rate(chain_id),
        )

    # -- fee-market integration ---------------------------------------------
    #
    # With a FeeBudget attached, every message the driver submits carries
    # a market fee (estimator- or budget-priced); evicted messages are
    # rebroadcast with a replace-by-fee bump until the budget's cap or
    # bump limit is hit, at which point the swap is *priced out* and the
    # protocol's ordinary abort machinery (deadlines, timelocks, refund
    # authorizations) takes over.

    def _chain_policy(self, chain_id: str) -> FeePolicy:
        return self.env.mempools[chain_id].policy or DEFAULT_POLICY

    def _base_fee_rate(self, chain_id: str) -> int:
        budget = self.fee_budget
        if budget is not None and budget.fee_rate is not None:
            rate = budget.fee_rate
        else:
            estimator = getattr(self.env, "fee_estimators", {}).get(chain_id)
            if estimator is not None:
                rate = estimator.estimate()
            else:
                rate = max(self._chain_policy(chain_id).min_relay_fee_rate, 1)
        return max(rate, self._rate_floor.get(chain_id, 0))

    def _raise_rate_floor(self, chain_id: str) -> None:
        """A submission lost the mempool auction outright: chase the
        market by bumping this chain's fee-rate floor before the retry
        (the next tick re-attempts whatever is still missing)."""
        if self.fee_budget is None:
            return
        self._rate_floor[chain_id] = self.fee_budget.bumped_rate(
            self._base_fee_rate(chain_id)
        )

    def _min_kind_fee(self, chain_id: str, kind: str) -> int:
        fees = self.env.chain(chain_id).params.fees
        if kind == "deploy":
            return fees.deploy
        if kind == "call":
            return fees.call
        return fees.transfer

    def _planned_fee(self, chain_id: str, kind: str, rate: int | None = None) -> int:
        rate = self._base_fee_rate(chain_id) if rate is None else rate
        weight = self._chain_policy(chain_id).weight_of_kind(kind)
        return max(self._min_kind_fee(chain_id, kind), rate * weight)

    def _fee_for(self, chain_id: str, kind: str) -> int | None:
        """The fee to attach to a submission (None = chain default)."""
        if self.fee_budget is None:
            return None
        return self._planned_fee(chain_id, kind)

    def _fee_ok(self, chain_id: str, kind: str) -> bool:
        """Whether the budget can afford one more ``kind`` submission."""
        if self.fee_budget is None:
            return True
        if kind == "deploy" and self._publish_priced_out:
            return False
        fee = self._planned_fee(chain_id, kind)
        if self._fee_committed + fee > self.fee_budget.cap:
            if not self.outcome.priced_out:
                self.outcome.priced_out = True
                self.outcome.notes.append(
                    f"fee budget exhausted before a {kind} on {chain_id} "
                    f"({self._fee_committed}+{fee} > cap {self.fee_budget.cap})"
                )
                if self.collector is not None:
                    self.collector.emit(
                        "fee",
                        "priced_out",
                        swap_id=self.trace_swap_id,
                        chain_id=chain_id,
                        msg=kind,
                        committed=self._fee_committed,
                        needed=fee,
                        cap=self.fee_budget.cap,
                    )
            if kind == "deploy":
                self._publish_priced_out = True
            return False
        return True

    # -- the one submission path ---------------------------------------------
    #
    # Budget check, submission, refusal policy and tracking for every
    # message a protocol sends after registration.  A refused submission
    # is not an error: the next activation re-attempts whatever is still
    # missing.  Callers build ``args`` first; nothing is constructed here.

    def _deploy_edge(self, edge: AssetEdge, contract_class: str, args: tuple) -> None:
        """Publish ``edge``'s asset contract from its source participant."""
        chain_id = edge.chain_id
        if not self._fee_ok(chain_id, "deploy"):
            return  # priced out of publishing
        try:
            deploy = self.env.participant(edge.source).deploy_contract(
                chain_id,
                contract_class,
                args=args,
                value=edge.amount,
                fee=self._fee_for(chain_id, "deploy"),
            )
        except InsufficientFundsError:
            return  # change is in flight
        except FeeTooLowError:
            self._raise_rate_floor(chain_id)  # outbid; retry at a higher rate
            return
        key = edge_key(edge)
        self._record_deploy(key, deploy)
        self.outcome.contracts[key].deployed_at = self.sim.now
        self._track(chain_id, deploy, edge.source, partial(self._record_deploy, key))

    def _call_contract(
        self,
        chain_id: str,
        sender: str,
        contract_id: bytes,
        function: str,
        args: tuple,
        record: Callable[[CallMessage], None],
    ) -> bool:
        """Submit one contract call from ``sender``; False when refused.

        ``record`` receives the submitted call, and again every
        fee-bumped rebroadcast that replaces it.
        """
        if not self._fee_ok(chain_id, "call"):
            return False
        try:
            call = self.env.participant(sender).call_contract(
                chain_id,
                contract_id,
                function,
                args=args,
                fee=self._fee_for(chain_id, "call"),
            )
        except InsufficientFundsError:
            return False  # change is in flight
        except FeeTooLowError:
            self._raise_rate_floor(chain_id)  # outbid; retry at a higher rate
            return False
        record(call)
        self._track(chain_id, call, sender, record)
        return True

    def _maintain_submissions(self) -> None:
        """Detect evicted submissions and apply bump-or-abort to each."""
        for message_id in list(self._tracked):
            sub = self._tracked.get(message_id)
            if sub is None:
                continue
            if self.env.chain(sub.chain_id).find_message(message_id) is not None:
                del self._tracked[message_id]  # mined; fee is final
                continue
            if message_id in self.env.mempools[sub.chain_id]:
                continue  # still pending
            del self._tracked[message_id]
            self.outcome.evictions += 1
            self._bump_or_abandon(sub)

    def _bump_or_abandon(self, sub: TrackedSubmission) -> None:
        budget = self.fee_budget
        participant = self.env.participant(sub.sender)
        new_rate = budget.bumped_rate(sub.fee_rate)
        new_fee = max(
            self._planned_fee(sub.chain_id, sub.message.kind, rate=new_rate),
            sub.message.fee + 1,
        )
        if participant.crashed:
            # A crashed sender cannot re-sign; not a fee-market casualty.
            self._abandon(sub, priced_out=False, reason="sender crashed")
            return
        if (
            sub.bumps >= budget.max_bumps
            or self._fee_committed - sub.message.fee + new_fee > budget.cap
        ):
            self._abandon(sub)
            return
        try:
            bumped = sign_message(bump_fee(sub.message, new_fee), participant.keypair)
        except FeeError:
            self._abandon(sub)  # change cannot fund the bump
            return
        self._fee_committed += new_fee - sub.message.fee
        new_sub = TrackedSubmission(
            chain_id=sub.chain_id,
            message=bumped,
            sender=sub.sender,
            on_replace=sub.on_replace,
            fee_rate=new_rate,
            bumps=sub.bumps + 1,
        )
        try:
            self.env.mempools[sub.chain_id].submit(bumped)
        except FeeTooLowError:
            # Still outbid at the new rate: escalate again (bounded by
            # max_bumps).  The message never re-entered the pool, so
            # neither the bump nor a fresh eviction is counted.
            self._bump_or_abandon(new_sub)
            return
        except ValidationError:
            self._fee_committed -= new_fee - sub.message.fee
            self._abandon(sub, priced_out=False, reason="replacement rejected")
            return
        self.outcome.fee_bumps += 1
        if self.collector is not None:
            self.collector.emit(
                "fee",
                "bump",
                swap_id=self.trace_swap_id,
                chain_id=sub.chain_id,
                msg=sub.message.kind,
                new_fee=new_fee,
                bumps=new_sub.bumps,
            )
        self._tracked[bumped.message_id()] = new_sub
        self._submitted.append((sub.chain_id, bumped.message_id()))
        sub.on_replace(bumped)

    def _abandon(
        self, sub: TrackedSubmission, priced_out: bool = True, reason: str = ""
    ) -> None:
        """The "abort" arm: give up on the message, unlock its funding.

        ``priced_out`` distinguishes fee-market casualties (bump limit or
        budget cap reached — the congestion signal the metrics report)
        from abandonments with other causes (crashed sender, replacement
        rejected as invalid)."""
        self._fee_committed -= sub.message.fee
        self.env.participant(sub.sender).release_spends(
            sub.chain_id, [inp.outpoint for inp in sub.message.inputs]
        )
        if priced_out:
            self.outcome.priced_out = True
        if sub.message.kind == "deploy":
            self._publish_priced_out = True
        label = "priced out" if priced_out else f"abandoned ({reason})"
        self.outcome.notes.append(
            f"{label}: {sub.message.kind} on {sub.chain_id} evicted "
            f"after {sub.bumps} bump(s)"
        )
        if self.collector is not None:
            self.collector.emit(
                "fee",
                "priced_out" if priced_out else "abandon",
                swap_id=self.trace_swap_id,
                chain_id=sub.chain_id,
                msg=sub.message.kind,
                bumps=sub.bumps,
                reason=reason or "budget",
            )

    # -- replace bookkeeping shared by the protocols -------------------------

    def _record_deploy(self, key: str, new: DeployMessage) -> None:
        """Point a contract record at a (possibly fee-bumped) deployment."""
        self._deploys[key] = new
        record = self.outcome.contracts[key]
        record.contract_id = new.contract_id()
        record.deploy_message_id = new.message_id()

    def _edge_confirmed(self, edge: AssetEdge) -> bool:
        key = edge_key(edge)
        deploy = self._deploys.get(key)
        if deploy is None:
            return False
        chain = self.env.chain(edge.chain_id)
        ok = chain.message_depth(deploy.message_id()) >= chain.params.confirmation_depth
        if ok and self.outcome.contracts[key].confirmed_at is None:
            self.outcome.contracts[key].confirmed_at = self.sim.now
        return ok

    def _all_confirmed(self) -> bool:
        return all(self._edge_confirmed(edge) for edge in self.graph.edges)

    def _contract_state(self, edge: AssetEdge) -> str:
        """``edge``'s contract state on its chain's canonical branch."""
        contract_id = self.outcome.contracts[edge_key(edge)].contract_id
        chain = self.env.chain(edge.chain_id)
        if not contract_id or not chain.has_contract(contract_id):
            return "unpublished"
        return chain.contract(contract_id).state

    def _settled_count(self) -> int:
        """Contracts now redeemed or refunded, stamping when each was
        first seen settled."""
        count = 0
        for edge in self.graph.edges:
            if self._contract_state(edge) in (SwapState.REDEEMED, SwapState.REFUNDED):
                record = self.outcome.contracts[edge_key(edge)]
                if record.settled_at is None:
                    record.settled_at = self.sim.now
                count += 1
        return count

    def _record_final_states(self) -> None:
        for edge in self.graph.edges:
            self.outcome.contracts[edge_key(edge)].final_state = self._contract_state(edge)
        self._settled_count()

    def _collect_fees(self) -> None:
        self.outcome.fees_paid = sum(
            receipt.fee_paid
            for chain_id, mid in self._submitted
            if (receipt := self.env.chain(chain_id).receipt(mid)) is not None
        )

    # -- what participants do, whoever the witness is --------------------------
    #
    # AC3TW and AC3WN differ in who the witness is (Trent / ``SCw``), not
    # in what the participants do: multisign the graph, publish every
    # contract in parallel, settle every contract in parallel.  The
    # subclass supplies the contract class, the constructor args and the
    # commitment secret per edge.

    def _sign_graph(self, omit_signers: frozenset[str]) -> Multisignature:
        """``ms(D)`` by every participant outside ``omit_signers`` — a
        Byzantine participant may withhold its signature, and the
        witness then rejects the incomplete ``ms(D)`` at registration."""
        return self.graph.multisign(
            {
                name: self.env.participant(name).keypair
                for name in self.graph.participant_names()
                if name not in omit_signers
            }
        )

    def _deploy_missing_edges(
        self,
        contract_class: str,
        args_for: Callable[[AssetEdge], tuple],
        decliners: frozenset[str],
    ) -> None:
        """Attempt every still-missing deployment whose source is alive
        and has not declined to publish."""
        for edge in self.graph.edges:
            if edge_key(edge) in self._deploys or edge.source in decliners:
                continue
            if self.env.participant(edge.source).crashed:
                continue
            self._deploy_edge(edge, contract_class, args=args_for(edge))

    def _settle_open_edges(
        self, function: str, secret_for: Callable[[AssetEdge], Any]
    ) -> None:
        """Attempt ``function`` — "redeem" by the recipient, "refund" by
        the source — on every published contract not yet attempted whose
        actor is alive, opening it with ``secret_for(edge)``."""
        for edge in self.graph.edges:
            key = edge_key(edge)
            if key in self._settle_calls or key not in self._deploys:
                continue
            actor_name = edge.recipient if function == "redeem" else edge.source
            if self.env.participant(actor_name).crashed:
                continue
            self._call_contract(
                edge.chain_id,
                actor_name,
                self._deploys[key].contract_id(),
                function,
                args=(secret_for(edge),),
                record=partial(self._settle_calls.__setitem__, key),
            )

    def _settle(self, expired: bool) -> str | None:
        """The :data:`SETTLE` step: both witness protocols end by
        attempting ``_settle_function`` on every open contract until all
        published contracts are settled or the deadline passes.  The
        driver's ``_settle_secrets()`` gives this activation's
        commitment secret per edge."""
        if expired or self._settled_count() >= len(self._deploys):
            self.outcome.phase_times["settled"] = self.sim.now
            return END
        self._settle_open_edges(self._settle_function, self._settle_secrets())
        return None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ProtocolDriver":
        """Arm the state machine; returns immediately (non-blocking)."""
        if self.started:
            return self
        self.started = True
        self.outcome.started_at = self.sim.now
        for chain_id in self._involved_chain_ids:
            chain = self.env.chain(chain_id)
            chain.add_block_listener(self._on_block)
            self._watched.append(chain)
        # A recovered participant can act again between blocks.
        for name in self.graph.participant_names():
            participant = self.env.participant(name)
            participant.add_recovery_listener(self._on_recover)
            self._watched_participants.append(participant)
        # Fee-budgeted swaps also hear about their submissions being
        # evicted the moment it happens, so bump-or-abort reacts
        # between blocks.
        if self.fee_budget is not None:
            for chain_id in self._involved_chain_ids:
                pool = self.env.mempools.get(chain_id)
                if pool is not None:
                    pool.add_eviction_listener(self._on_eviction)
                    self._watched_mempools.append(pool)
        if not self._begin():
            self._finish()
            return self
        self._set_phase(self.PHASES[0].name)
        self._advance()
        return self

    def _on_block(self, block: Block) -> None:
        """On-block-mined hook: re-examine the world as soon as it grows.

        Fee-budgeted swaps react after their deterministic per-swap
        jitter instead of synchronously, so co-hosted swaps spread their
        post-block submission bursts (see module docstring); at most one
        jittered reaction is outstanding at a time.
        """
        if self.finished:
            return
        if self._jitter > 0.0:
            if self._pending_hook is None:
                self._pending_hook = self.sim.schedule(
                    self._jitter,
                    self._jittered_advance,
                    label=f"{self.protocol_name} jittered block reaction",
                )
            return
        self._maintain_submissions()
        if not self.finished:
            self._advance()

    def _jittered_advance(self) -> None:
        self._pending_hook = None
        if self.finished:
            return
        self._maintain_submissions()
        if not self.finished:
            self._advance()

    def _on_recover(self) -> None:
        """Participant-recovery hook: the recovered actor can submit
        again right now — no need to wait for the next block."""
        if self.finished:
            return
        self._maintain_submissions()
        if not self.finished:
            self._advance()

    def _on_eviction(self, message_id: bytes) -> None:
        """Mempool-eviction hook (fee-budgeted swaps only).

        Fired synchronously from inside another submission's admission,
        so never re-enter the mempool here — schedule the (jittered)
        reaction on the simulator instead; bump-or-abort runs there.
        """
        if self.finished or message_id not in self._tracked:
            return
        if self._pending_hook is None:
            self._pending_hook = self.sim.schedule(
                self._jitter,
                self._jittered_advance,
                label=f"{self.protocol_name} eviction reaction",
            )

    def _tick(self) -> None:
        self._pending_tick = None
        if not self.finished:
            self._maintain_submissions()
        if not self.finished:
            self._advance()

    def _finish(self) -> None:
        """Terminal bookkeeping; fires ``on_complete`` exactly once."""
        if self.finished:
            return
        self._record_final_states()
        self._collect_fees()
        self.outcome.finished_at = self.sim.now
        self._finalize()
        self.finished = True
        if self._pending_tick is not None:
            self._pending_tick.cancel()
            self._pending_tick = None
        if self._pending_hook is not None:
            self._pending_hook.cancel()
            self._pending_hook = None
        for chain in self._watched:
            chain.remove_block_listener(self._on_block)
        self._watched.clear()
        for participant in self._watched_participants:
            participant.remove_recovery_listener(self._on_recover)
        self._watched_participants.clear()
        for pool in self._watched_mempools:
            pool.remove_eviction_listener(self._on_eviction)
        self._watched_mempools.clear()
        for callback in list(self.on_complete):
            callback(self.outcome)

    # -- single-swap compatibility -------------------------------------------

    def run(self) -> SwapOutcome:
        """Execute this one AC2T to completion (an engine of N=1).

        Processes simulator events until the driver terminates.  Other
        scheduled activity (miners, failure injectors, other drivers)
        advances normally in between — the driver itself never blocks the
        simulation, it just happens to be the only consumer here.
        """
        self.start()
        sim = self.sim
        while not self.finished and sim.step():
            pass
        if not self.finished:
            # Queue drained with the protocol still undecided (a world
            # with no miners): finalize from whatever state exists.
            self._finish()
        return self.outcome
