"""Engine-scheduled adversarial actors.

Each actor here executes one :mod:`repro.adversary.spec` node against a
live simulation:

* :class:`ReorgAttacker` — the Section 6.3 attack, generalized from
  :class:`repro.chain.miner.AttackMiner` into a self-scheduling actor:
  it watches the target chain for observed decisions, rents hash power
  (budgeted by the paper's cost model), mines a censoring private
  branch carrying its own counter-decision, publishes it the moment it
  out-works the public branch, and — on a won witness-chain fork —
  spends the flipped decision by refunding the victim's asset contracts
  with fresh ``RFauth`` evidence;
* :class:`CensoringMiner` — installs a censorship predicate on a
  chain's honest miner (messages matching it are never mined);
* :class:`ByzantineParticipant` — corrupts one role per targeted swap:
  refuses its settle step, declines to publish, or withholds its
  ``ms(D)`` signature;
* :class:`EclipseActor` — isolates a role for a fixed window keyed to a
  protocol *phase* (the :attr:`ProtocolDriver.on_phase` hook) rather
  than wall clock.

:class:`AdversaryRoster` owns the actors, attributes per-swap attack
exposure onto :class:`~repro.core.protocol.SwapOutcome` records, and
summarizes itself as a JSON-able report.  Everything draws only from
named deterministic RNG streams, so an attacked run is exactly as
seed-reproducible as an honest one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.messages import CallMessage, DeployMessage, sign_message
from ..chain.miner import AttackMiner
from ..chain.pow import work_for_bits
from ..chain.transaction import TxInput, TxOutput
from ..core.ac3tw import AC3TWConfig
from ..core.ac3wn import AC3WNConfig
from ..core.driver import SETTLE
from ..core.evidence import AUTHORIZING_FUNCTIONS, build_state_evidence
from ..core.herlihy import HerlihyConfig
from ..errors import ProtocolError, ReproError, ValidationError
from ..workloads.scenarios import role_name
from .spec import (
    AdversarySpec,
    ByzantineSpec,
    CensorSpec,
    EclipseSpec,
    ReorgAttackSpec,
)


@dataclass
class AttackRecord:
    """One reorg attack, launched or forgone, and how it resolved."""

    chain_id: str
    target_contract: bytes
    trigger_function: str
    fork_height: int
    public_lead: int
    launched_at: float
    launched: bool
    resolved_at: float | None = None
    won: bool | None = None
    blocks: int = 0
    cost: float = 0.0
    exploit_refunds: int = 0

    def to_dict(self) -> dict:
        return {
            "chain_id": self.chain_id,
            "target_contract": self.target_contract.hex(),
            "trigger_function": self.trigger_function,
            "fork_height": self.fork_height,
            "public_lead": self.public_lead,
            "launched_at": self.launched_at,
            "launched": self.launched,
            "resolved_at": self.resolved_at,
            "won": self.won,
            "blocks": self.blocks,
            "cost": self.cost,
            "exploit_refunds": self.exploit_refunds,
        }


@dataclass
class _ActiveAttack:
    record: AttackRecord
    fork_hash: bytes
    flip_call: CallMessage | None
    pending_messages: list
    #: Outpoints the flip call spends, reserved for the attack's
    #: lifetime and released if the private branch never publishes.
    flip_outpoints: tuple = ()


def _request_owning(requests, contract_id: bytes):
    """The request whose swap deployed ``contract_id`` (as coordinator or
    asset contract), or None.  Linear over requests — its callers are
    attack records, rare events off any hot path."""
    if not contract_id:
        return None
    for request in requests:
        outcome = request.driver.outcome if request.driver is not None else request.outcome
        if outcome is not None and (
            outcome.coordinator_contract_id == contract_id
            or any(r.contract_id == contract_id for r in outcome.contracts.values())
        ):
            return request
    return None


class ReorgAttacker:
    """The rented-hashpower fork attacker (see module docstring).

    Like every actor it keeps what it reads of the engine (its request
    list, its collector), not the engine, which holds the roster."""

    kind = "reorg"

    def __init__(self, env, engine, spec: ReorgAttackSpec, chain_id: str) -> None:
        self.env = env
        self.requests = engine.requests
        self.collector = engine.collector
        self.spec = spec
        self.chain_id = chain_id
        self.chain = env.chain(chain_id)
        params = self.chain.params
        self.trigger_depth = (
            spec.trigger_depth
            if spec.trigger_depth is not None
            else params.confirmation_depth
        )
        self.budget_blocks = spec.budget_blocks()
        self.block_cost = spec.block_cost_usd()
        self._work_per_block = work_for_bits(params.difficulty_bits)
        self._interval = params.block_interval / spec.hashpower
        self._rng = env.simulator.stream(f"adversary/reorg/{chain_id}")
        self._miner = AttackMiner(self.chain)
        self._attacker = env.participants.get(spec.attacker)
        self._used_outpoints: set = set()
        self._seen: set[bytes] = set()
        self._scanned = self.chain.height
        self._active: _ActiveAttack | None = None
        self.records: list[AttackRecord] = []
        self.chain.add_block_listener(self._on_block)

    # -- trigger watching --------------------------------------------------

    def _on_block(self, block) -> None:
        horizon = self.chain.height - self.trigger_depth + 1
        while self._scanned < horizon:
            self._scanned += 1
            if self._active is None:
                self._scan_height(self._scanned)

    def _scan_height(self, height: int) -> None:
        if self.spec.max_attacks is not None:
            launched = sum(1 for r in self.records if r.launched)
            if launched >= self.spec.max_attacks:
                return
        attacker_key = (
            self._attacker.public_key if self._attacker is not None else None
        )
        for message in self.chain.block_at_height(height).messages:
            if not isinstance(message, CallMessage):
                continue
            if message.function not in self.spec.trigger_functions:
                continue
            if attacker_key is not None and message.sender == attacker_key:
                continue  # never attack our own counter-decisions
            message_id = message.message_id()
            if message_id in self._seen:
                continue
            self._seen.add(message_id)
            self._launch(message, height)
            return  # one rented fleet: at most one attack at a time

    # -- the attack --------------------------------------------------------

    def _swap_id(self, contract_id: bytes) -> int | None:
        """Trace attribution: the swap that owns ``contract_id``, if any."""
        owner = _request_owning(self.requests, contract_id)
        return None if owner is None else owner.swap_id

    def _launch(self, trigger: CallMessage, height: int) -> None:
        sim = self.env.simulator
        fork_height = height - 1
        public_lead = self.chain.height - fork_height
        record = AttackRecord(
            chain_id=self.chain_id,
            target_contract=trigger.contract_id,
            trigger_function=trigger.function,
            fork_height=fork_height,
            public_lead=public_lead,
            launched_at=sim.now,
            launched=False,
        )
        self.records.append(record)
        collector = self.collector
        if self.budget_blocks < public_lead + 1:
            # The cost model says this decision is buried too deep to
            # flip profitably — the rational attacker walks away.  This
            # is exactly the depth-d defense paying off.
            record.resolved_at = sim.now
            record.won = False
            if collector is not None:
                collector.emit(
                    "adversary",
                    "forgone",
                    swap_id=self._swap_id(record.target_contract),
                    chain_id=self.chain_id,
                    actor="reorg",
                    trigger=record.trigger_function,
                    public_lead=public_lead,
                    budget_blocks=self.budget_blocks,
                )
            return
        record.launched = True
        if collector is not None:
            collector.emit(
                "adversary",
                "launch",
                swap_id=self._swap_id(record.target_contract),
                chain_id=self.chain_id,
                actor="reorg",
                trigger=record.trigger_function,
                fork_height=fork_height,
                public_lead=public_lead,
                target=record.target_contract.hex()[:16],
            )
        fork_hash = self.chain.block_at_height(fork_height).block_id()
        self._miner.fork_from(fork_hash)
        flip = None
        if (
            trigger.function in AUTHORIZING_FUNCTIONS
            and self.spec.flip_function
            and self._attacker is not None
        ):
            flip = self._build_flip(trigger, fork_hash)
        self._active = _ActiveAttack(
            record=record,
            fork_hash=fork_hash,
            flip_call=flip,
            pending_messages=[flip] if flip is not None else [],
            flip_outpoints=(
                tuple(inp.outpoint for inp in flip.inputs) if flip is not None else ()
            ),
        )
        self._schedule_mine()

    def _schedule_mine(self) -> None:
        if self.chain.params.deterministic_intervals:
            delay = self._interval
        else:
            delay = self._rng.expovariate(1.0 / self._interval)
        self.env.simulator.schedule(
            delay, self._mine_step, label=f"reorg attacker {self.chain_id}"
        )

    def _mine_step(self) -> None:
        attack = self._active
        if attack is None:
            return
        sim = self.env.simulator
        record = attack.record
        messages, attack.pending_messages = attack.pending_messages, []
        try:
            self._miner.extend(messages, timestamp=sim.now)
        except ValidationError:
            # The counter-decision no longer applies on the fork state;
            # keep censoring with an empty block instead (and release
            # the never-mined flip's funding).
            attack.flip_call = None
            self._used_outpoints.difference_update(attack.flip_outpoints)
            attack.flip_outpoints = ()
            self._miner.extend([], timestamp=sim.now)
        record.blocks += 1
        record.cost += self.block_cost
        private_work = (
            self.chain.cumulative_work(attack.fork_hash)
            + record.blocks * self._work_per_block
        )
        if private_work > self.chain.cumulative_work(self.chain.head_hash):
            self._miner.release()
            record.won = True
            record.resolved_at = sim.now
            self._active = None
            collector = self.collector
            if collector is not None:
                collector.emit(
                    "adversary",
                    "won",
                    swap_id=self._swap_id(record.target_contract),
                    chain_id=self.chain_id,
                    actor="reorg",
                    blocks=record.blocks,
                    cost=record.cost,
                )
            if self.spec.exploit:
                if attack.flip_call is not None:
                    record.exploit_refunds = self._exploit(attack)
                    if collector is not None and record.exploit_refunds:
                        collector.emit(
                            "adversary",
                            "exploit",
                            swap_id=self._swap_id(record.target_contract),
                            chain_id=self.chain_id,
                            actor="reorg",
                            refunds=record.exploit_refunds,
                            mode="evidence",
                        )
                else:
                    self._schedule_timelock_exploit(attack)
            return
        if record.blocks >= self.budget_blocks:
            # Budget exhausted while still behind: the honest chain won
            # the race.  Abandon the private branch unpublished; the
            # flip's funding was never spent on-chain, so it is
            # released for the next attack's counter-decision.
            self._miner.private_blocks.clear()
            self._used_outpoints.difference_update(attack.flip_outpoints)
            record.won = False
            record.resolved_at = sim.now
            self._active = None
            collector = self.collector
            if collector is not None:
                collector.emit(
                    "adversary",
                    "lost",
                    swap_id=self._swap_id(record.target_contract),
                    chain_id=self.chain_id,
                    actor="reorg",
                    blocks=record.blocks,
                    cost=record.cost,
                )
            return
        self._schedule_mine()

    # -- the counter-decision and its exploitation -------------------------

    def _build_flip(self, trigger: CallMessage, fork_hash: bytes):
        """The attacker's own flip call, funded from the fork-point state.

        Never submitted to a mempool: it exists only inside the private
        branch, which is what makes the censorship + flip atomic.
        """
        attacker = self._attacker
        fee = self.chain.params.fees.call
        state = self.chain.state_at(fork_hash)
        selected, total = state.utxos.select(attacker.address, fee, self._used_outpoints)
        if total < fee:
            return None
        self._used_outpoints.update(selected)
        change = (
            (TxOutput(attacker.address, total - fee),) if total > fee else ()
        )
        call = CallMessage(
            sender=attacker.public_key,
            contract_id=trigger.contract_id,
            function=self.spec.flip_function,
            args=(),
            fee=fee,
            inputs=tuple(TxInput(outpoint) for outpoint in selected),
            change=change,
            nonce=attacker.next_nonce(),
        )
        return sign_message(call, attacker.keypair)

    def _exploit(self, attack: _ActiveAttack) -> int:
        """Spend a won witness fork: refund the victim's open contracts.

        The flipped coordinator now shows the counter-decision buried at
        the private branch's full depth, so the attacker can build
        ``RFauth`` state evidence and refund every asset contract the
        honest side has not settled yet — the profit step that turns a
        won fork into an atomicity violation.
        """
        state_name = AUTHORIZING_FUNCTIONS.get(self.spec.flip_function)
        victim = _request_owning(self.requests, attack.record.target_contract)
        if victim is None or state_name is None:
            return 0
        refunds = 0
        # A swap with a coordinator on chain was launched: it has a driver.
        for record in victim.driver.outcome.contracts.values():
            if not record.contract_id:
                continue
            chain = self.env.chains.get(record.edge.chain_id)
            if chain is None or not chain.has_contract(record.contract_id):
                continue
            contract = chain.contract(record.contract_id)
            if getattr(contract, "state", None) != "P":
                continue
            try:
                evidence = build_state_evidence(
                    self.chain,
                    attack.record.target_contract,
                    attack.flip_call,
                    state_name,
                    anchor=getattr(contract, "witness_anchor", None),
                )
                self._attacker.call_contract(
                    record.edge.chain_id,
                    record.contract_id,
                    "refund",
                    args=(evidence,),
                )
            except ReproError:
                continue
            refunds += 1
        return refunds

    def _schedule_timelock_exploit(self, attack: _ActiveAttack) -> None:
        """Spend a won asset-chain fork: refund past the timelock.

        Erasing an HTLC redemption resets the contract to ``P``; the
        honest recipient already acted on the observed settlement and
        does not retry, so once the timelock expires the attacker
        claims the refund arm — Section 1's double-settlement, executed
        with rented hash power.
        """
        target = attack.record.target_contract
        if not self.chain.has_contract(target):
            return
        contract = self.chain.contract(target)
        if getattr(contract, "state", None) != "P":
            return
        timelock = getattr(contract, "timelock", None)
        if timelock is None:
            return  # not a timelock contract (e.g. a PermissionlessSC)
        sim = self.env.simulator
        sim.schedule(
            max(0.0, timelock - sim.now),
            lambda: self._timelock_refund(attack),
            label=f"reorg attacker refund {self.chain_id}",
        )

    def _timelock_refund(self, attack: _ActiveAttack) -> None:
        target = attack.record.target_contract
        if self._attacker is None or not self.chain.has_contract(target):
            return
        if self.chain.contract(target).state != "P":
            return
        try:
            self._attacker.call_contract(self.chain_id, target, "refund", args=(b"",))
        except ReproError:
            return
        attack.record.exploit_refunds += 1
        collector = self.collector
        if collector is not None:
            collector.emit(
                "adversary",
                "exploit",
                swap_id=self._swap_id(target),
                chain_id=self.chain_id,
                actor="reorg",
                refunds=attack.record.exploit_refunds,
                mode="timelock",
            )

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        launched = [r for r in self.records if r.launched]
        resolved = [r for r in launched if r.won is not None]
        by_depth: dict[str, dict[str, int]] = {}
        for record in resolved:
            cell = by_depth.setdefault(
                str(record.public_lead), {"won": 0, "lost": 0}
            )
            cell["won" if record.won else "lost"] += 1
        return {
            "kind": self.kind,
            "chain_id": self.chain_id,
            "trigger_depth": self.trigger_depth,
            "budget_blocks": self.budget_blocks,
            "required_depth": self.spec.required_depth(),
            "attacks_launched": len(launched),
            "attacks_forgone": len(self.records) - len(launched),
            "reorgs_won": sum(1 for r in resolved if r.won),
            "reorgs_lost": sum(1 for r in resolved if not r.won),
            "blocks_mined": sum(r.blocks for r in self.records),
            "cost_spent": sum(r.cost for r in self.records),
            "value_at_risk": self.spec.value_at_risk,
            "outcomes_by_depth": dict(sorted(by_depth.items())),
            "attacks": [r.to_dict() for r in self.records],
        }


class CensoringMiner:
    """Installs a censorship predicate on one chain's honest miner."""

    kind = "censor"

    def __init__(self, env, spec: CensorSpec, chain_id: str) -> None:
        self.env = env
        self.spec = spec
        self.chain_id = chain_id
        self.miner = env.miners[chain_id]
        self.censored_names = self._resolve_participants()
        self._censored_addresses = {
            env.participants[name].address.raw for name in self.censored_names
        }
        self.miner.censor = self._predicate

    def _resolve_participants(self) -> set[str]:
        """Every participant a spec entry denotes: by name or role letter
        (:func:`role_name`), or by a ``prefix.`` / ``prefix*`` pattern."""
        return {
            name
            for pattern in self.spec.participants
            for name in self.env.participants
            if role_name((name,), pattern)
            or (pattern.endswith((".", "*")) and name.startswith(pattern.rstrip("*")))
        }

    def _predicate(self, message) -> bool:
        if isinstance(message, DeployMessage):
            if message.contract_class in self.spec.contract_classes:
                return True
            return message.sender.address().raw in self._censored_addresses
        if isinstance(message, CallMessage):
            if message.function in self.spec.functions:
                return True
            return message.sender.address().raw in self._censored_addresses
        return False

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "chain_id": self.chain_id,
            "messages_censored": self.miner.messages_censored,
            "censored_participants": sorted(self.censored_names),
        }


class ByzantineParticipant:
    """Corrupts one role of each targeted swap (see :class:`ByzantineSpec`)."""

    kind = "byzantine"

    def __init__(self, env, engine, spec: ByzantineSpec) -> None:
        self.env = env
        self.collector = engine.collector
        self.witness_chain_id = engine.witness_chain_id
        self.spec = spec
        self._rng = env.simulator.stream("adversary/byzantine")
        self.corrupted: dict[int, str] = {}
        engine.launch_hooks.append(self._on_request)
        engine.driver_hooks.append(self._on_driver)

    def _on_request(self, request) -> None:
        if self._rng.random() >= self.spec.share:
            return
        victim = role_name(request.graph.participant_names(), self.spec.role)
        if victim is None:
            return
        self.corrupted[request.swap_id] = victim
        collector = self.collector
        if collector is not None:
            collector.emit(
                "adversary",
                "corrupt",
                swap_id=request.swap_id,
                actor="byzantine",
                victim=victim,
                behavior=self.spec.behavior,
            )
        behavior = self.spec.behavior
        if behavior == "withhold-signature" and request.protocol not in (
            "ac3wn",
            "ac3tw",
        ):
            behavior = "decline"  # no multisignature to withhold from
        if behavior == "decline":
            self._apply_config(request, decliners=frozenset({victim}))
        elif behavior == "withhold-signature":
            self._apply_config(request, omit_signers=frozenset({victim}))
        # withhold-settle acts through the driver hook below.

    def _apply_config(self, request, **changes) -> None:
        import dataclasses

        config = request.config
        if config is None:
            if request.protocol in ("nolan", "herlihy"):
                config = HerlihyConfig()
            elif request.protocol == "ac3tw":
                config = AC3TWConfig()
            else:
                config = AC3WNConfig(witness_chain_id=self.witness_chain_id)
        merged = {
            key: getattr(config, key) | value for key, value in changes.items()
        }
        request.config = dataclasses.replace(config, **merged)

    def _on_driver(self, request, driver) -> None:
        victim_name = self.corrupted.get(request.swap_id)
        if victim_name is None or self.spec.behavior != "withhold-settle":
            return
        victim = self.env.participant(victim_name)

        def on_phase(phase: str, victim=victim, driver=driver) -> None:
            if phase == SETTLE.name and not victim.crashed:
                victim.crash()
                driver.outcome.notes.append(
                    f"byzantine: {victim.name} refuses its settle step"
                )

        driver.on_phase.append(on_phase)

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "behavior": self.spec.behavior,
            "role": self.spec.role,
            "swaps_corrupted": len(self.corrupted),
        }


class EclipseActor:
    """Phase-keyed isolation windows (see :class:`EclipseSpec`)."""

    kind = "eclipse"

    def __init__(self, env, engine, spec: EclipseSpec) -> None:
        self.env = env
        self.collector = engine.collector
        self.spec = spec
        self._rng = env.simulator.stream("adversary/eclipse")
        self.eclipsed: dict[int, str] = {}
        engine.driver_hooks.append(self._on_driver)

    def _on_driver(self, request, driver) -> None:
        if self._rng.random() >= self.spec.share:
            return
        victim_name = role_name(request.graph.participant_names(), self.spec.role)
        if victim_name is None:
            return
        victim = self.env.participant(victim_name)
        fired = []

        def on_phase(phase: str) -> None:
            if phase != self.spec.phase or fired:
                return
            fired.append(self.env.simulator.now)
            self.eclipsed[request.swap_id] = victim_name
            collector = self.collector
            if collector is not None:
                collector.emit(
                    "adversary",
                    "eclipse",
                    swap_id=request.swap_id,
                    actor="eclipse",
                    victim=victim_name,
                    phase=phase,
                    duration=self.spec.duration,
                )
            victim.crash()
            self.env.simulator.schedule(
                self.spec.duration,
                victim.recover,
                label=f"eclipse heal {victim_name}",
            )
            driver.outcome.notes.append(
                f"eclipse: {victim_name} isolated for "
                f"{self.spec.duration}s at phase {phase!r}"
            )

        driver.on_phase.append(on_phase)

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "role": self.spec.role,
            "phase": self.spec.phase,
            "duration": self.spec.duration,
            "swaps_eclipsed": len(self.eclipsed),
        }


class AdversaryRoster:
    """The live adversary of one run: actors, attribution, report."""

    def __init__(self, spec: AdversarySpec) -> None:
        self.spec = spec
        self._violations_emitted: set[int] = set()
        self.reorg: ReorgAttacker | None = None
        self.censor: CensoringMiner | None = None
        self.byzantine: ByzantineParticipant | None = None
        self.eclipse: EclipseActor | None = None

    def actors(self) -> list:
        return [
            actor
            for actor in (self.reorg, self.censor, self.byzantine, self.eclipse)
            if actor is not None
        ]

    # -- per-swap attribution ----------------------------------------------

    def attribute(self, requests) -> None:
        """Stamp attack exposure onto the outcomes (idempotent).

        A reorg attack is attributed to the swap owning the targeted
        contract (coordinator or asset); censorship, Byzantine roles,
        and eclipses to the swaps they corrupted.  When any fork was
        won, final states are first re-audited against chain truth.
        """
        self._audit(requests)
        outcomes = {
            request.swap_id: request.outcome
            for request in requests
            if request.outcome is not None
        }
        for outcome in outcomes.values():
            outcome.attacked_by = []
            outcome.attacks_launched = 0
            outcome.reorgs_won = 0
            outcome.reorgs_lost = 0
            outcome.attack_blocks = 0
            outcome.attack_cost = 0.0
        if self.reorg is not None:
            for record in self.reorg.records:
                owner = _request_owning(self.reorg.requests, record.target_contract)
                outcome = owner.outcome if owner is not None else None
                if outcome is None:
                    continue
                if "reorg" not in outcome.attacked_by:
                    outcome.attacked_by.append("reorg")
                if record.launched:
                    outcome.attacks_launched += 1
                    if record.won:
                        outcome.reorgs_won += 1
                    elif record.won is not None:
                        outcome.reorgs_lost += 1
                outcome.attack_blocks += record.blocks
                outcome.attack_cost += record.cost
        if self.censor is not None and self.censor.censored_names:
            for request in requests:
                outcome = outcomes.get(request.swap_id)
                if outcome is None:
                    continue
                names = set(request.graph.participant_names())
                if names & self.censor.censored_names:
                    if "censor" not in outcome.attacked_by:
                        outcome.attacked_by.append("censor")
        for actor, kind in ((self.byzantine, "byzantine"), (self.eclipse, "eclipse")):
            if actor is None:
                continue
            for swap_id in actor.corrupted if kind == "byzantine" else actor.eclipsed:
                outcome = outcomes.get(swap_id)
                if outcome is not None and kind not in outcome.attacked_by:
                    outcome.attacked_by.append(kind)

    def _audit(self, requests) -> None:
        """Re-derive recorded final states from the chains (idempotent).

        A driver's outcome is a snapshot of what its participants
        *observed*; a reorg attacker can rewrite settled history after
        that snapshot was taken.  Atomicity is a property of chain
        state, so under an active reorg attacker the chains are the
        measurement of record — an erased redemption followed by the
        attacker's refund becomes a *measured* violation instead of a
        stale "commit".
        """
        if self.reorg is None or not any(r.won for r in self.reorg.records):
            return
        env = self.reorg.env
        collector = self.reorg.collector
        for request in requests:
            outcome = request.outcome
            if outcome is None:
                continue
            was_atomic = outcome.is_atomic
            rewritten = 0
            for key, record in outcome.contracts.items():
                if not record.contract_id:
                    continue
                chain = env.chains.get(record.edge.chain_id)
                if chain is None:
                    continue
                if chain.has_contract(record.contract_id):
                    truth = chain.contract(record.contract_id).state
                else:
                    truth = "unpublished"
                if truth != record.final_state:
                    outcome.notes.append(
                        f"reorg rewrote {key}: observed "
                        f"{record.final_state!r}, chain says {truth!r}"
                    )
                    record.final_state = truth
                    rewritten += 1
            # The outcome event already went out (with the snapshot the
            # drivers observed); a flip discovered here is a *new* fact
            # the live monitor must see, so emit it as its own event —
            # once per swap, since the audit is idempotent.
            if (
                rewritten
                and was_atomic
                and not outcome.is_atomic
                and collector is not None
                and request.swap_id not in self._violations_emitted
            ):
                self._violations_emitted.add(request.swap_id)
                collector.emit(
                    "swap",
                    "violation",
                    swap_id=request.swap_id,
                    decision=outcome.decision,
                    rewritten=rewritten,
                )

    def report(self) -> dict:
        """A JSON-able summary of everything the adversary did."""
        return {actor.kind: actor.summary() for actor in self.actors()}


def decision_chain(protocol: str, asset_ids, witness_chain_id: str) -> str:
    """The chain an unpinned adversary contends: the witness chain for
    witness-coordinated protocols, else the first asset chain."""
    if protocol in ("ac3wn", "mixed"):
        return witness_chain_id
    return asset_ids[0]


def build_roster(spec, env, engine) -> AdversaryRoster | None:
    """Wire the spec's enabled actors into a live environment + engine.

    Returns None when no actor is enabled, so honest runs carry zero
    adversary machinery.  Call it once the engine's collector is
    attached: the actors keep the one they find.
    """
    adversary: AdversarySpec = spec.adversary
    if not adversary.any_enabled:
        return None
    roster = AdversaryRoster(adversary)
    default_chain = decision_chain(
        spec.protocol, spec.chains.asset_ids(), spec.chains.witness
    )
    if adversary.reorg.enabled:
        chain_id = adversary.reorg.chain_id or default_chain
        if chain_id not in env.chains:
            raise ProtocolError(f"adversary.reorg targets unknown chain {chain_id!r}")
        roster.reorg = ReorgAttacker(env, engine, adversary.reorg, chain_id)
    if adversary.censor.enabled:
        chain_id = adversary.censor.chain_id or default_chain
        if chain_id not in env.miners:
            raise ProtocolError(f"adversary.censor targets unknown chain {chain_id!r}")
        roster.censor = CensoringMiner(env, adversary.censor, chain_id)
    if adversary.byzantine.enabled:
        roster.byzantine = ByzantineParticipant(env, engine, adversary.byzantine)
    if adversary.eclipse.enabled:
        roster.eclipse = EclipseActor(env, engine, adversary.eclipse)
    engine.attach_adversary(roster)
    return roster
