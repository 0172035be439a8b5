"""Omega-based consensus and replicated log (Theorem 5)."""

from repro.consensus.commands import Batch, Command, flatten_value
from repro.consensus.instance import NO_BALLOT
from repro.consensus.messages import (
    AcceptRequest,
    Accepted,
    Decide,
    Forward,
    Nack,
    Prepare,
    Promise,
)
from repro.consensus.replicated_log import NOOP, ReplicatedLog
from repro.consensus.stack import OmegaConsensusStack

__all__ = [
    "AcceptRequest",
    "Accepted",
    "Batch",
    "Command",
    "Decide",
    "Forward",
    "NOOP",
    "NO_BALLOT",
    "Nack",
    "OmegaConsensusStack",
    "Prepare",
    "Promise",
    "ReplicatedLog",
    "flatten_value",
]
