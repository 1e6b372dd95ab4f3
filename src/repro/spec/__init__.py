"""Specification checking: histories, linearizability, DAP properties.

The paper proves atomicity (Lynch's A1-A3 conditions, equivalent to
linearizability of a read/write register) by hand; this package provides the
machinery the test-suite uses to check it mechanically on recorded
executions:

* :mod:`repro.spec.history` -- records the invocation/response intervals and
  results of high-level read/write operations.
* :mod:`repro.spec.streaming` -- the online register and tag checkers, fed
  as a streaming history is recorded or by replaying a finished one.
* :mod:`repro.spec.linearizability` -- batch verdicts (whole-history and per
  key) from that replay, with a Wing-Gong search as the fallback.
* :mod:`repro.spec.properties` -- records DAP invocations and checks the
  consistency properties C1, C2 and C3 of Definition 2.
"""

from repro.spec.history import History, OperationRecord, OperationType
from repro.spec.linearizability import (
    LinearizabilityResult,
    PerKeyLinearizabilityResult,
    check_linearizability,
    check_linearizability_per_key,
    check_tag_monotonicity,
    check_tag_monotonicity_per_key,
)
from repro.spec.properties import DapRecorder, check_dap_properties, DapPropertyViolation
from repro.spec.signature import SignatureAccumulator
from repro.spec.streaming import (
    HistoryStream,
    OnlineRegisterChecker,
    OnlineTagChecker,
    StreamingStats,
)

__all__ = [
    "History",
    "OperationRecord",
    "OperationType",
    "HistoryStream",
    "OnlineRegisterChecker",
    "OnlineTagChecker",
    "SignatureAccumulator",
    "StreamingStats",
    "check_linearizability",
    "check_linearizability_per_key",
    "check_tag_monotonicity",
    "check_tag_monotonicity_per_key",
    "LinearizabilityResult",
    "PerKeyLinearizabilityResult",
    "DapRecorder",
    "check_dap_properties",
    "DapPropertyViolation",
]
