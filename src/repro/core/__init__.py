"""The paper's protocols: graph model, contracts, AC3TW, AC3WN, baselines."""

from .ac3tw import (
    AC3TWConfig,
    AC3TWDriver,
    CENTRALIZED_CONTRACT_CLASS,
    CentralizedSC,
    TrustedWitness,
    run_ac3tw,
)
from .ac3wn import (
    AC3WNConfig,
    AC3WNDriver,
    EdgeSpec,
    PERMISSIONLESS_CONTRACT_CLASS,
    PermissionlessSC,
    WITNESS_CONTRACT_CLASS,
    WitnessContract,
    WitnessState,
    run_ac3wn,
)
from .contract_template import AtomicSwapContract, SwapState
from .driver import ProtocolDriver
from .evidence import (
    AnchorValidator,
    EvidenceValidator,
    FullReplicaValidator,
    HeaderRelayContract,
    LightClientValidator,
    PublicationEvidence,
    StateEvidence,
    build_publication_evidence,
    build_state_evidence,
    verify_evidence,
)
from .graph import AssetEdge, SwapGraph
from .herlihy import (
    HerlihyConfig,
    HerlihyDriver,
    compute_publish_waves,
    run_herlihy,
)
from .htlc import HTLCContract
from .nolan import NolanDriver, run_nolan, validate_two_party
from .participant import ChainHandle, Participant
from .protocol import (
    ContractRecord,
    SwapEnvironment,
    SwapOutcome,
    assert_atomic,
    edge_key,
    wait_for_depth,
)

__all__ = [
    "AC3TWConfig",
    "AC3TWDriver",
    "AC3WNConfig",
    "AC3WNDriver",
    "AnchorValidator",
    "AssetEdge",
    "AtomicSwapContract",
    "CENTRALIZED_CONTRACT_CLASS",
    "CentralizedSC",
    "ChainHandle",
    "ContractRecord",
    "EdgeSpec",
    "EvidenceValidator",
    "FullReplicaValidator",
    "HTLCContract",
    "HeaderRelayContract",
    "HerlihyConfig",
    "HerlihyDriver",
    "LightClientValidator",
    "NolanDriver",
    "PERMISSIONLESS_CONTRACT_CLASS",
    "Participant",
    "PermissionlessSC",
    "ProtocolDriver",
    "PublicationEvidence",
    "StateEvidence",
    "SwapEnvironment",
    "SwapGraph",
    "SwapOutcome",
    "SwapState",
    "TrustedWitness",
    "WITNESS_CONTRACT_CLASS",
    "WitnessContract",
    "WitnessState",
    "assert_atomic",
    "build_publication_evidence",
    "build_state_evidence",
    "compute_publish_waves",
    "edge_key",
    "run_ac3tw",
    "run_ac3wn",
    "run_herlihy",
    "run_nolan",
    "validate_two_party",
    "verify_evidence",
    "wait_for_depth",
]
