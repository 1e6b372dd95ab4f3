"""Storage and communication cost formulas (Theorem 3) and measurement helpers.

All formulas are normalised by the object value size, exactly as in the
paper ("we compute the costs under the assumption that v has size 1 unit"):

==========================  =======================  =====================
quantity                    TREAS ([n, k], δ)        ABD (n replicas)
==========================  =======================  =====================
total storage               (δ + 1) · n / k          n
write communication         n / k                    n
read communication          (δ + 2) · n / k          2 · n
==========================  =======================  =====================

The ABD figures follow from Algorithm 12: a write pushes the full value to
all ``n`` servers; a read pulls up to ``n`` copies in the query phase and
pushes the value back to ``n`` servers in the propagation phase.
"""

from __future__ import annotations

from typing import Callable

from repro.net.stats import TrafficRecord


# --------------------------------------------------------------------- TREAS
def treas_storage_cost(n: int, k: int, delta: int) -> float:
    """Theorem 3(i): total storage ``(δ+1)·n/k`` in units of the value size."""
    return (delta + 1) * n / k


def treas_write_cost(n: int, k: int) -> float:
    """Theorem 3(ii): per-write communication ``n/k``."""
    return n / k


def treas_read_cost(n: int, k: int, delta: int) -> float:
    """Theorem 3(iii): per-read communication ``(δ+2)·n/k``."""
    return (delta + 2) * n / k


# ----------------------------------------------------------------------- ABD
def abd_storage_cost(n: int) -> float:
    """ABD total storage: one full copy per server."""
    return float(n)


def abd_write_cost(n: int) -> float:
    """ABD per-write communication: the value travels to all ``n`` servers."""
    return float(n)


def abd_read_cost(n: int) -> float:
    """ABD per-read communication: ``n`` copies in, ``n`` copies back out."""
    return 2.0 * n


# ----------------------------------------------------------------- measuring
def measure_operation_traffic(deployment, client_pid,
                              run_operation: Callable[[], None]) -> TrafficRecord:
    """Measure the traffic attributable to one synchronously-run operation.

    Opens a traffic scope charging all messages to/from ``client_pid``, runs
    ``run_operation`` (which must drive the deployment's simulator to
    completion of exactly one operation), closes the scope and returns its
    record; ``.normalised(value_size)`` gives the cost in the paper's units.
    """
    stats = deployment.network.stats
    scope = stats.open_scope(client_pid)
    try:
        run_operation()
    finally:
        stats.close_scope(client_pid, scope)
    return scope
