"""Metric definitions and how each is computed from a run's cells.

``END_TO_END`` and ``PER_LAYER`` are the names ``BENCHMARK.json`` lists (the
benchmark's tests keep the two in sync).  End-to-end metrics come from the
untraced repetitions; per-layer metrics come from the traced repetitions
and the :class:`~tracing.Tracer` that watched them.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

from tracing import LAYERS, Tracer
from workloads import CellResult

#: ``(name, unit, better)`` of every end-to-end metric.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("read_latency_p50_vt", "vt", "lower"),
    ("read_latency_p99_vt", "vt", "lower"),
    ("write_latency_p50_vt", "vt", "lower"),
    ("write_latency_p99_vt", "vt", "lower"),
    ("msgs_per_op", "msgs/op", "lower"),
    ("bytes_per_op", "B/op", "lower"),
    ("storage_bytes_per_value_byte", "B/B", "lower"),
)

#: Printed with the end-to-end metrics but not listed in ``BENCHMARK.json``:
#: it is 0 on every passing run, and a failing run already fails the command.
FAILED_OP_RATIO = ("failed_op_ratio", "ratio", "lower")

#: Host speed the wall-clock end-to-end metrics are scaled to, in iterations
#: per second of the benchmark's calibration loop (about the speed of the
#: 2-core host the benchmark was written on).  This host's speed drifts by
#: about 20% between runs; the loop, run next to every repetition, follows
#: that drift, so scaled figures compare across runs and hosts.
REFERENCE_HOST_RATE = 2.5e6

_DAP_KINDS = ("abd", "treas", "ldr")
_PRIMITIVES = ("get_tag", "get_data", "put_data")
_PHASES = ("read-config", "add-config", "update-config", "finalize-config", "gc-config")
_CLIENT_OPS = ("core.client.read", "core.client.write")

#: Message kinds per traffic class (every other kind is DAP traffic).
_KIND_CLASSES = {
    "read_config": ("ARES-READ-CONFIG", "ARES-NEXT-CONFIG",
                    "ARES-WRITE-CONFIG", "ARES-CONFIG-ACK"),
    "reconfig": ("ARES-CONFIRM-CONFIG", "ARES-CONFIRM-ACK", "ARES-RETIRE-CONFIG",
                 "ARES-RETIRE-ACK", "ARES-MD-REQ-FW-CODE-ELEM",
                 "ARES-FWD-CODE-ELEM", "ARES-TRANSFER-ACK"),
}

#: ``(name, unit, better)`` of every per-layer metric.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events_per_op", "events/op", "lower"),
    ("sim.schedules_per_op", "events/op", "lower"),
    ("sim.run_self_us_per_op", "us/op", "lower"),
    ("sim.process.deliver_self_us_per_msg", "us/msg", "lower"),
    ("sim.process.gather_self_us_per_round", "us/round", "lower"),
    ("sim.process.gathers_per_op", "rounds/op", "lower"),
    ("sim.futures.late_response_ratio", "ratio", "lower"),
    ("net.msgs_per_op.read_config", "msgs/op", "lower"),
    ("net.msgs_per_op.dap", "msgs/op", "lower"),
    ("net.msgs_per_op.reconfig", "msgs/op", "lower"),
    ("net.msgs_per_op.paxos", "msgs/op", "lower"),
    ("net.bytes_per_op.data", "B/op", "lower"),
    ("net.bytes_per_op.metadata", "B/op", "lower"),
    ("net.send_self_us_per_msg", "us/msg", "lower"),
    ("net.stats_record_self_us_per_msg", "us/msg", "lower"),
    ("net.latency_sample_self_us_per_msg", "us/msg", "lower"),
    ("net.dropped_ratio", "ratio", "lower"),
    ("net.duplicated_ratio", "ratio", "lower"),
    ("chaos.hook_calls_per_msg", "calls/msg", "lower"),
    ("chaos.hook_self_us_per_msg", "us/msg", "lower"),
    ("chaos.fault_activations", "count", "lower"),
    ("chaos.inject_s", "s", "lower"),
    ("core.traversal.read_config_per_op", "calls/op", "lower"),
    ("core.traversal.next_config_hops_per_op", "rounds/op", "lower"),
    ("core.traversal.read_config_vt_share", "ratio", "lower"),
    ("core.traversal.self_us_per_op", "us/op", "lower"),
    ("core.client.self_us_per_op", "us/op", "lower"),
    ("core.client.retries_per_op", "retries/op", "lower"),
    ("core.server.on_message_self_us_per_msg", "us/msg", "lower"),
    ("core.reconfig.count", "count", "higher"),
    ("core.reconfig.latency_vt_p50", "vt", "lower"),
    *((f"core.reconfig.phase_vt.{phase}", "vt", "lower") for phase in _PHASES),
    *((f"dap.{kind}.handle_self_us_per_msg", "us/msg", "lower") for kind in _DAP_KINDS),
    *((f"dap.{kind}.{primitive}_vt", "vt", "lower")
      for kind in _DAP_KINDS for primitive in _PRIMITIVES),
    ("dap.treas.list_len_mean", "pairs", "lower"),
    ("common.tags.max_tag_self_us_per_op", "us/op", "lower"),
    ("common.values.payload_cache_hit_ratio", "ratio", "higher"),
    ("erasure.encode_per_op", "calls/op", "lower"),
    ("erasure.decode_per_op", "calls/op", "lower"),
    ("erasure.encode_self_us", "us/call", "lower"),
    ("erasure.decode_self_us", "us/call", "lower"),
    ("erasure.decode_cache_hit_ratio", "ratio", "higher"),
    ("consensus.paxos.propose_count", "count", "lower"),
    ("consensus.paxos.prepares_per_decision", "rounds", "lower"),
    ("consensus.paxos.handle_self_us", "us/call", "lower"),
    ("spec.stream.self_us_per_op", "us/op", "lower"),
    ("spec.open_window_peak", "ops", "lower"),
    ("spec.check_s", "s", "lower"),
    ("spec.reference_fallbacks", "count", "lower"),
    ("store.shardmap.lookup_self_us_per_op", "us/op", "lower"),
    ("store.forward_hops", "count", "lower"),
    ("workloads.deployment_build_s", "s", "lower"),
    ("sweep.per_cell_overhead_s", "s", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    *((f"trace.layer_self_share.{layer}", "ratio", "lower")
      for layer in LAYERS if layer != "bench"),
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_note(values: Sequence[float], higher_better: bool) -> str:
    """The worst sample that still has ten worse ones beyond it, as text."""
    count = len(values)
    if count < 11:
        return f"n={count}, too few for a tail with ten samples beyond it"
    ordered = sorted(values, reverse=higher_better)
    return (f"n={count}, p{100.0 * (count - 10) / count:.0f} tail "
            f"{ordered[count - 11]:.6g} (ten worse beyond it)")


def beyond_p99(count: int) -> int:
    """Samples beyond the nearest-rank p99 of ``count`` samples."""
    return count - math.ceil(0.99 * count)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def failed_ops(cells: List[CellResult]) -> int:
    """Operations that failed or never completed: every planned operation of
    a repetition that failed a check, else the ones it did not complete."""
    return sum(cell.planned_ops if cell.failures else cell.planned_ops - cell.ops
               for cell in cells)


def ops_per_s(cell: CellResult) -> float:
    """Verified client operations per wall second, set-up excluded."""
    return cell.ops / cell.run_s


def host_scale(cell: CellResult) -> float:
    """Reference host speed over the speed measured next to ``cell``."""
    return REFERENCE_HOST_RATE / cell.host_rate if cell.host_rate else 1.0


def end_to_end(cells: List[CellResult], peak_rss_mb: float) -> Dict[str, float]:
    """Every end-to-end metric (plus the failed-op ratio) of a run.

    Timings are medians over the repetitions, each scaled to the reference
    host speed (:data:`REFERENCE_HOST_RATE`).  Counts and virtual-time
    latencies are those of one repetition: all repetitions ran the same
    seed and were checked to be identical.
    """
    runs = cells[0].runs
    ops = sum(run.ops for run in runs)
    reads = [value for run in runs for value in run.read_latencies]
    writes = [value for run in runs for value in run.write_latencies]
    planned = sum(cell.planned_ops for cell in cells)
    return {
        "setup_s": statistics.median(cell.setup_s / host_scale(cell)
                                     for cell in cells),
        "ops_per_s": statistics.median(ops_per_s(cell) * host_scale(cell)
                                       for cell in cells),
        "peak_rss_mb": peak_rss_mb,
        "read_latency_p50_vt": percentile(reads, 0.50),
        "read_latency_p99_vt": percentile(reads, 0.99),
        "write_latency_p50_vt": percentile(writes, 0.50),
        "write_latency_p99_vt": percentile(writes, 0.99),
        "msgs_per_op": _ratio(sum(run.messages for run in runs), ops),
        "bytes_per_op": _ratio(sum(run.data_bytes + run.metadata_bytes
                                   for run in runs), ops),
        "storage_bytes_per_value_byte": _ratio(
            sum(run.storage_bytes for run in runs),
            sum(run.live_value_bytes for run in runs)),
        "failed_op_ratio": _ratio(failed_ops(cells), planned),
    }


def _kind_class(kind: str) -> str:
    if kind.startswith("PAXOS-"):
        return "paxos"
    for name, kinds in _KIND_CLASSES.items():
        if kind in kinds:
            return name
    return "dap"


def per_layer(tracer: Tracer, traced: List[CellResult],
              untraced_ops_per_s: float) -> Dict[str, float]:
    """Every per-layer metric from the traced repetitions.

    ``untraced_ops_per_s`` (scaled like ``ops_per_s``) is the base of
    ``trace.overhead_ratio``; ``trace.ops_per_s`` is scaled the same way.
    Layer times are raw wall time.
    """
    runs = [run for cell in traced for run in cell.runs]
    reps = len(traced)
    ops = sum(run.ops for run in runs)
    messages = sum(run.messages for run in runs)
    sent = sum(run.messages_sent for run in runs)
    counts = tracer.counts
    us = 1e6

    def self_us(name: str, per: float) -> float:
        return _ratio(tracer.span(name)[2] * us, per)

    def mean_self_us(name: str) -> float:
        calls, _, own = tracer.span(name)
        return _ratio(own * us, calls)

    def mean_vt(name: str, parents=None) -> float:
        values = tracer.vt_of(name, parents)
        return _ratio(sum(values), len(values))

    metrics: Dict[str, float] = {
        "sim.events_per_op": _ratio(sum(run.events for run in runs), ops),
        "sim.schedules_per_op": _ratio(counts["sim.schedules"], ops),
        "sim.run_self_us_per_op": self_us("sim.run", ops),
        "sim.process.deliver_self_us_per_msg": mean_self_us("sim.process.deliver"),
        "sim.process.gather_self_us_per_round": mean_self_us("sim.process.gather"),
        "sim.process.gathers_per_op": _ratio(counts["sim.process.gathers"], ops),
        "sim.futures.late_response_ratio": _ratio(
            counts["sim.futures.late_responses"], counts["sim.futures.responses"]),
    }
    by_class = {name: 0 for name in ("read_config", "dap", "reconfig", "paxos")}
    for kind, count in tracer.per_kind.items():
        by_class[_kind_class(kind)] += count
    for name, count in by_class.items():
        metrics[f"net.msgs_per_op.{name}"] = _ratio(count, ops)
    metrics.update({
        "net.bytes_per_op.data": _ratio(sum(run.data_bytes for run in runs), ops),
        "net.bytes_per_op.metadata": _ratio(sum(run.metadata_bytes for run in runs), ops),
        "net.send_self_us_per_msg": mean_self_us("net.send"),
        "net.stats_record_self_us_per_msg": mean_self_us("net.stats.record"),
        "net.latency_sample_self_us_per_msg": mean_self_us("net.latency.sample"),
        "net.dropped_ratio": _ratio(sum(run.dropped for run in runs), sent),
        "net.duplicated_ratio": _ratio(sum(run.duplicated for run in runs), sent),
        "chaos.hook_calls_per_msg": _ratio(counts["chaos.hook_calls"], sent),
        "chaos.hook_self_us_per_msg": self_us("chaos.hook", sent),
        "chaos.fault_activations": _ratio(counts["chaos.fault_activations"], reps),
        "chaos.inject_s": _ratio(tracer.span("chaos.inject")[1], reps),
    })

    client_vt = sum(sum(tracer.vt_of(name)) for name in _CLIENT_OPS)
    traversal_vt = sum(tracer.vt_of("core.traversal.read_config", _CLIENT_OPS))
    reconfig_vt = sorted(tracer.vt_of("core.reconfig.reconfig"))
    metrics.update({
        "core.traversal.read_config_per_op": _ratio(
            counts["core.traversal.read_config"], ops),
        "core.traversal.next_config_hops_per_op": _ratio(
            counts["gather:read-next-config"], ops),
        "core.traversal.read_config_vt_share": _ratio(traversal_vt, client_vt),
        "core.traversal.self_us_per_op": self_us("core.traversal.read_config", ops),
        "core.client.self_us_per_op": _ratio(
            sum(tracer.span(name)[2] for name in _CLIENT_OPS) * us, ops),
        "core.client.retries_per_op": _ratio(sum(run.retries for run in runs), ops),
        "core.server.on_message_self_us_per_msg": mean_self_us("core.server.on_message"),
        "core.reconfig.count": _ratio(counts["core.reconfig.reconfig"], reps),
        "core.reconfig.latency_vt_p50": percentile(reconfig_vt, 0.5),
        "core.reconfig.phase_vt.read-config": mean_vt(
            "core.traversal.read_config", ("core.reconfig.reconfig",)),
    })
    for phase in _PHASES[1:]:
        metrics[f"core.reconfig.phase_vt.{phase}"] = mean_vt(f"core.reconfig.{phase}")
    for kind in _DAP_KINDS:
        metrics[f"dap.{kind}.handle_self_us_per_msg"] = mean_self_us(f"dap.{kind}.handle")
        for primitive in _PRIMITIVES:
            metrics[f"dap.{kind}.{primitive}_vt"] = mean_vt(f"dap.{kind}.{primitive}")
    lengths = tracer.treas_list_lengths
    metrics["dap.treas.list_len_mean"] = _ratio(sum(lengths), len(lengths))

    payload_hits = sum(run.payload_cache.get("hits", 0) for run in runs)
    payload_misses = sum(run.payload_cache.get("misses", 0) for run in runs)
    decode_hits = sum(run.decode_cache.get("hits", 0) for run in runs)
    decode_misses = sum(run.decode_cache.get("misses", 0) for run in runs)
    proposals = counts["consensus.paxos.propose"]
    metrics.update({
        "common.tags.max_tag_self_us_per_op": self_us("common.tags.max_tag", ops),
        "common.values.payload_cache_hit_ratio": _ratio(
            payload_hits, payload_hits + payload_misses),
        "erasure.encode_per_op": _ratio(tracer.span("erasure.encode")[0], ops),
        "erasure.decode_per_op": _ratio(tracer.span("erasure.decode")[0], ops),
        "erasure.encode_self_us": mean_self_us("erasure.encode"),
        "erasure.decode_self_us": mean_self_us("erasure.decode"),
        "erasure.decode_cache_hit_ratio": _ratio(decode_hits, decode_hits + decode_misses),
        "consensus.paxos.propose_count": _ratio(proposals, reps),
        "consensus.paxos.prepares_per_decision": _ratio(
            counts["gather:paxos-prepare"], proposals),
        "consensus.paxos.handle_self_us": mean_self_us("consensus.paxos.handle"),
        "spec.stream.self_us_per_op": _ratio(
            (tracer.span("spec.stream.on_invoke")[2]
             + tracer.span("spec.stream.on_respond")[2]) * us, ops),
        "spec.open_window_peak": max(run.open_window_peak for run in runs),
        "spec.check_s": _ratio(tracer.span("spec.check")[1], reps),
        "spec.reference_fallbacks": _ratio(tracer.span("spec.reference")[0], reps),
        "store.shardmap.lookup_self_us_per_op": self_us("store.shardmap.lookup", ops),
        "store.forward_hops": _ratio(sum(run.forwarded_lookups for run in runs), reps),
        "workloads.deployment_build_s": _ratio(
            tracer.span("workloads.deployment_build")[1], reps),
        "sweep.per_cell_overhead_s": _ratio(
            tracer.span("sweep.execute_run")[1] - tracer.span("workloads.run_scenario")[1],
            tracer.span("sweep.execute_run")[0]),
    })

    wall = tracer.span("bench.cell")[1]
    traced_ops_per_s = statistics.median(ops_per_s(cell) * host_scale(cell)
                                         for cell in traced)
    metrics["trace.ops_per_s"] = traced_ops_per_s
    metrics["trace.overhead_ratio"] = _ratio(untraced_ops_per_s, traced_ops_per_s)
    layers = tracer.layer_self_seconds()
    metrics["trace.unattributed_share"] = _ratio(layers.pop("bench"), wall)
    for layer, seconds in layers.items():
        metrics[f"trace.layer_self_share.{layer}"] = _ratio(seconds, wall)
    return metrics
