"""E7 -- Reconfiguration state transfer: baseline ARES vs ARES-TREAS (Section 5, Fig. 3).

Measures, for a sweep of object sizes, the object-data bytes that flow
through the reconfiguration client during one reconfiguration.  Baseline
ARES moves the whole object through the client (get-data + put-data);
ARES-TREAS forwards coded elements directly between the server sets, so the
client moves only metadata.  Total network bytes are also reported: the
direct path pays server-to-server fragment traffic instead.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import Table
from repro.common.values import Value
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.net.latency import UniformLatency

SIZES = [1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20]


def run_reconfiguration(direct: bool, value_size: int, seed: int = 0):
    deployment = AresDeployment(DeploymentSpec(
        num_servers=6, initial_dap="treas", delta=2, num_writers=1, num_readers=1,
        num_reconfigurers=1, latency=UniformLatency(1.0, 2.0), seed=seed,
        direct_state_transfer=direct))
    deployment.write(Value.of_size(value_size, label="payload"), 0)
    reconfigurer = deployment.reconfigurers[0]
    stats = deployment.stats
    client = stats.open_scope(reconfigurer.pid)
    total_before = stats.global_record.data_bytes
    configuration = deployment.make_configuration(dap="treas", fresh_servers=9, k=5)
    deployment.reconfig(configuration, 0)
    client_bytes = stats.close_scope(reconfigurer.pid, client).data_bytes
    total_bytes = stats.global_record.data_bytes - total_before
    latency = deployment.history.reconfigs()[-1].latency
    # The value must be readable from the new configuration afterwards.
    assert deployment.read(0).label == "payload"
    return client_bytes, total_bytes, latency


@pytest.mark.experiment("E7")
def test_state_transfer_client_bottleneck(benchmark):
    table = Table(
        "E7: object bytes through the reconfiguration client during one reconfiguration",
        ["object size", "baseline client B", "direct client B", "baseline total B",
         "direct total B", "baseline latency", "direct latency"],
    )
    for size in SIZES:
        baseline = run_reconfiguration(direct=False, value_size=size)
        direct = run_reconfiguration(direct=True, value_size=size)
        table.add_row(size, baseline[0], direct[0], baseline[1], direct[1],
                      baseline[2], direct[2])
        # The paper's claim: the client stops being a data conduit.
        assert direct[0] == 0
        assert baseline[0] >= size
    table.print()

    benchmark(lambda: run_reconfiguration(direct=True, value_size=1 << 14))
if __name__ == "__main__":
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from conftest import main

    raise SystemExit(main(__file__))
