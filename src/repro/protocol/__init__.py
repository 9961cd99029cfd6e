"""The centralised load balancing protocol (paper, end of Section 3).

The paper describes the protocol informally: "The mechanism collects
the bids from each computer, computes the allocation using PR algorithm
and allocates the jobs.  Then it waits for the allocated jobs to be
executed.  In this waiting period the mechanism estimates the actual
job processing rate at each computer and use it to determine the
execution value t̃.  After the allocated jobs are completed the
mechanism computes the payments and sends them to the computers."  It
states the message complexity is O(n).

This subpackage implements that protocol end to end over the
discrete-event substrate: typed messages, a counting network, an
execution-value estimator (the verification step the paper assumes),
a coordinator state machine, and a one-call runtime driver.
"""

from repro.protocol.messages import (
    Message,
    BidRequest,
    BidReply,
    AllocationNotice,
    CompletionReport,
    PaymentNotice,
)
from repro.protocol.network import SimulatedNetwork, NetworkStats
from repro.protocol.estimator import verified_estimates
from repro.protocol.coordinator import MechanismCoordinator, ProtocolPhase
from repro.protocol.faults import (
    ReliableNetwork,
    CrashingNode,
    FaultTolerantCoordinator,
)
from repro.protocol.monitoring import (
    SlowdownAlert,
    CusumSlowdownDetector,
    detection_delay,
    slowdown_alerts,
)
from repro.protocol.horizon import fusible_round, run_horizon
from repro.protocol.runtime import ProtocolResult, run_protocol

__all__ = [
    "Message",
    "BidRequest",
    "BidReply",
    "AllocationNotice",
    "CompletionReport",
    "PaymentNotice",
    "SimulatedNetwork",
    "NetworkStats",
    "verified_estimates",
    "MechanismCoordinator",
    "ProtocolPhase",
    "ReliableNetwork",
    "CrashingNode",
    "FaultTolerantCoordinator",
    "SlowdownAlert",
    "CusumSlowdownDetector",
    "detection_delay",
    "slowdown_alerts",
    "ProtocolResult",
    "run_protocol",
    "fusible_round",
    "run_horizon",
]
