"""Runtime tracing of the layers under ``src/repro``, from outside ``src``.

:class:`Tracer` wraps the public entry points of each layer at runtime
(class attributes and module functions are swapped in :meth:`Tracer.install`
and restored in :meth:`Tracer.uninstall`); no file under ``src`` changes.

* Synchronous calls get **wall-clock spans**: name, start, end, the parent
  span and the owning client operation.  A span's *self* time is its
  duration minus the time its child spans cover.
* Protocol phases are generator functions, so timing the call would only
  time the generator's creation.  They get **virtual-time spans** instead
  (simulated ``now`` at the first resume and at return) plus call counts,
  and every resume of the generator is a wall-clock span of its own, so the
  client-side protocol logic is attributed to its layer rather than to the
  simulator loop that resumed it.
* Hot paths that only need a count (event scheduling, quorum responses)
  get counters.

Spans stay in memory, aggregated per name (calls, total and self seconds)
plus a bounded raw sample; :meth:`Tracer.report` gives both.  The wrappers
read no RNG and schedule nothing, so a traced run executes exactly the same
events as an untraced one -- the benchmark checks that on every traced run.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: Raw spans kept per traced run (the aggregates cover every span).
SAMPLE_CAP = 4096

#: The layers, in report order: the first component of every span name.
LAYERS = ("bench", "sim", "net", "chaos", "core", "dap", "common", "erasure",
          "consensus", "spec", "store", "workloads", "sweep")


def _process_sim(args) -> object:
    return args[0].sim


def _dap_sim(args) -> object:
    return args[0].process.sim


class Tracer:
    """Span and counter recorder plus the patches that feed it."""

    def __init__(self) -> None:
        #: Open wall-clock frames, innermost last: ``[name, child_seconds]``.
        self.stack: List[list] = []
        #: ``name -> [calls, total_seconds, self_seconds]``.
        self.spans: Dict[str, list] = {}
        #: Plain event counters.
        self.counts: Counter = Counter()
        #: Virtual-time durations of generator spans, keyed by
        #: ``(name, parent span name)``.
        self.vt: Dict[Tuple[str, Optional[str]], List[float]] = {}
        #: Messages per kind, as seen by ``TrafficStats.record``.
        self.per_kind: Counter = Counter()
        #: ``TREAS-LIST`` reply lengths (pairs per list).
        self.treas_list_lengths: List[int] = []
        self.samples: List[tuple] = []
        #: The client operation whose work is running right now.
        self.current_op: Optional[int] = None
        self._op_ids = itertools.count(1)
        self._message_op: Dict[int, Optional[int]] = {}
        self._hooks: Dict[object, Callable] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # ------------------------------------------------------------- wrappers
    def _record(self, name: str, frame: list, start: float, end: float) -> None:
        elapsed = end - start
        record = self.spans.get(name)
        if record is None:
            record = self.spans[name] = [0, 0.0, 0.0]
        record[0] += 1
        record[1] += elapsed
        record[2] += elapsed - frame[1]
        stack = self.stack
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += elapsed
        if len(self.samples) < SAMPLE_CAP:
            self.samples.append((name, start - self.origin, end - self.origin,
                                 parent[0] if parent is not None else None,
                                 self.current_op))

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` under a wall-clock span called ``name``."""
        stack = self.stack
        clock = time.perf_counter
        record = self._record

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record(name, frame, start, end)

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a call counter called ``name`` (no span)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def phase(self, name: str, fn: Callable, sim_of: Callable,
              operation: bool = False) -> Callable:
        """Generator function ``fn`` under a virtual-time span.

        ``operation=True`` marks a client operation: it gets a fresh
        operation id that every span it causes is attributed to.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._drive(name, fn(*args, **kwargs), sim_of(args), operation)

        return wrapper

    def _drive(self, name: str, generator, sim, operation: bool):
        """Delegate to ``generator`` like ``yield from``, timing each resume."""
        self.counts[name] += 1
        op_id = next(self._op_ids) if operation else None
        stack = self.stack
        clock = time.perf_counter
        started = None
        parent = None
        value = None
        error: Optional[BaseException] = None
        while True:
            if started is None:
                started = sim.now
                parent = stack[-1][0] if stack else None
            saved_op = self.current_op
            if op_id is not None:
                self.current_op = op_id
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                if error is not None:
                    pending, error = error, None
                    yielded = generator.throw(pending)
                else:
                    yielded = generator.send(value)
            except StopIteration as stop:
                self.vt.setdefault((name, parent), []).append(sim.now - started)
                return stop.value
            finally:
                end = clock()
                stack.pop()
                self._record(name, frame, start, end)
                self.current_op = saved_op
            try:
                value = yield yielded
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as thrown:  # noqa: BLE001 - forwarded like yield from
                error = thrown
                value = None

    # -------------------------------------------------------------- patches
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        self._patch(owner, attr, make(getattr(owner, attr)))

    def _wrap_function(self, module, attr: str, make) -> None:
        """Wrap a module function in every ``repro`` module that bound it."""
        original = getattr(module, attr)
        wrapped = make(original)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(loaded, attr, None) is original:
                self._patch(loaded, attr, wrapped)

    def install(self) -> "Tracer":
        """Swap the tracing wrappers in (undo with :meth:`uninstall`)."""
        from repro.chaos.engine import ChaosEngine
        from repro.common import tags
        from repro.consensus.paxos import PaxosAcceptorState, PaxosProposer
        from repro.core.client import RegisterOpsMixin
        from repro.core.deployment import AresDeployment
        from repro.core.reconfig import ReconfigOpsMixin
        from repro.core.server import AresServer
        from repro.core.traversal import SequenceTraversalMixin
        from repro.dap.abd import AbdDapClient, AbdServerState
        from repro.dap.ldr import LdrDapClient, LdrServerState
        from repro.dap.treas import TreasDapClient, TreasServerState
        from repro.erasure.rs import ReedSolomonCode
        from repro.net import latency
        from repro.net.network import Network
        from repro.net.stats import TrafficStats
        from repro.sim.core import Simulator
        from repro.sim.futures import QuorumFuture
        from repro.sim.process import Process
        from repro.spec import linearizability
        from repro.spec.streaming import HistoryStream
        from repro.store.deployment import StoreDeployment
        from repro.store.shardmap import ShardMap
        from repro.sweep import engine
        from repro.workloads import generator, scenarios

        timed, counted, phase = self.timed, self.counted, self.phase

        # sim: the event loop, scheduling, delivery, quorum plumbing.
        self._wrap(Simulator, "run", lambda fn: timed("sim.run", fn))
        self._wrap(Simulator, "schedule_at", lambda fn: counted("sim.schedules", fn))
        self._wrap(Simulator, "call_soon", lambda fn: counted("sim.schedules", fn))
        self._wrap(Process, "deliver",
                   lambda fn: timed("sim.process.deliver", self._owned_by_message(fn)))
        self._wrap(Process, "broadcast_and_gather",
                   lambda fn: timed("sim.process.gather", self._count_gather(fn, 3)))
        self._wrap(Process, "scatter_and_gather",
                   lambda fn: timed("sim.process.gather", self._count_gather(fn, 2)))
        self._wrap(QuorumFuture, "add_response", self._count_response)

        # net: send, traffic accounting, latency sampling.
        self._wrap(Network, "send",
                   lambda fn: timed("net.send", self._tag_message(fn)))
        self._wrap(TrafficStats, "record",
                   lambda fn: timed("net.stats.record", self._count_kind(fn)))
        for model in vars(latency).values():
            if isinstance(model, type) and issubclass(model, latency.LatencyModel) \
                    and "sample" in model.__dict__:
                self._wrap(model, "sample", lambda fn: timed("net.latency.sample", fn))

        # chaos: the hooks faults install on the network, and injection.
        for kind in ("drop_filter", "delay_adjuster", "duplicator"):
            self._wrap(Network, f"add_{kind}", self._add_hook)
            self._wrap(Network, f"remove_{kind}", self._remove_hook)
        self._wrap(ChaosEngine, "inject", lambda fn: timed("chaos.inject", fn))
        for method in ("_apply", "_start", "_start_stochastic"):
            self._wrap(ChaosEngine, method,
                       lambda fn: counted("chaos.fault_activations", fn))

        # core: operations, traversal, reconfiguration phases, servers.
        self._wrap(RegisterOpsMixin, "_register_write",
                   lambda fn: phase("core.client.write", fn, _process_sim, True))
        self._wrap(RegisterOpsMixin, "_register_read",
                   lambda fn: phase("core.client.read", fn, _process_sim, True))
        self._wrap(ReconfigOpsMixin, "_register_reconfig",
                   lambda fn: phase("core.reconfig.reconfig", fn, _process_sim, True))
        for attr, step in (("_add_config", "add-config"),
                           ("_update_config", "update-config"),
                           ("_finalize_config", "finalize-config"),
                           ("_gc_config", "gc-config")):
            self._wrap(ReconfigOpsMixin, attr,
                       lambda fn, step=step: phase(f"core.reconfig.{step}", fn,
                                                   _process_sim))
        self._wrap(SequenceTraversalMixin, "read_config",
                   lambda fn: phase("core.traversal.read_config", fn, _process_sim))
        self._wrap(AresServer, "on_message",
                   lambda fn: timed("core.server.on_message", fn))

        # dap: client primitives and server handlers of each DAP.
        for kind, client, state in (("abd", AbdDapClient, AbdServerState),
                                    ("treas", TreasDapClient, TreasServerState),
                                    ("ldr", LdrDapClient, LdrServerState)):
            for primitive in ("get_tag", "get_data", "put_data"):
                self._wrap(client, primitive,
                           lambda fn, kind=kind, primitive=primitive:
                           phase(f"dap.{kind}.{primitive}", fn, _dap_sim))
            handle = (self._measure_treas_list if kind == "treas"
                      else (lambda fn: fn))
            self._wrap(state, "handle",
                       lambda fn, kind=kind, handle=handle:
                       timed(f"dap.{kind}.handle", handle(fn)))

        # common, erasure, consensus.
        self._wrap_function(tags, "max_tag", lambda fn: timed("common.tags.max_tag", fn))
        self._wrap(ReedSolomonCode, "encode", lambda fn: timed("erasure.encode", fn))
        self._wrap(ReedSolomonCode, "decode", lambda fn: timed("erasure.decode", fn))
        self._wrap(PaxosProposer, "propose",
                   lambda fn: phase("consensus.paxos.propose", fn, _dap_sim))
        self._wrap(PaxosAcceptorState, "handle",
                   lambda fn: timed("consensus.paxos.handle", fn))

        # spec: online checking, the batch checkers, the verdict.
        self._wrap(HistoryStream, "on_invoke", lambda fn: timed("spec.stream.on_invoke", fn))
        self._wrap(HistoryStream, "on_respond", lambda fn: timed("spec.stream.on_respond", fn))
        self._wrap(scenarios.ChaosRunResult, "check", lambda fn: timed("spec.check", fn))
        self._wrap_function(linearizability, "check_linearizability_reference",
                            lambda fn: timed("spec.reference", fn))

        # store, workloads, sweep.
        self._wrap(ShardMap, "configuration_for", lambda fn: timed("store.shardmap.lookup", fn))
        self._wrap(AresDeployment, "__init__",
                   lambda fn: timed("workloads.deployment_build", fn))
        self._wrap(StoreDeployment, "__init__",
                   lambda fn: timed("workloads.deployment_build", fn))
        self._wrap(generator.ClosedLoopDriver, "run", lambda fn: timed("workloads.driver", fn))
        self._wrap(scenarios, "run_scenario_instance",
                   lambda fn: timed("workloads.run_scenario", fn))
        self._wrap(engine, "execute_run", lambda fn: timed("sweep.execute_run", fn))
        self._wrap(engine, "campaign", lambda fn: timed("sweep.campaign", fn))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self._hooks.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def new_cell(self) -> None:
        """Forget per-run bookkeeping (message owners) between cells."""
        self._message_op.clear()
        self.current_op = None

    # ------------------------------------------------- behaviour-free hooks
    def _owned_by_message(self, fn):
        tracer = self

        def deliver(process, src, message):
            saved = tracer.current_op
            tracer.current_op = tracer._message_op.get(message.uid)
            try:
                return fn(process, src, message)
            finally:
                tracer.current_op = saved

        return deliver

    def _tag_message(self, fn):
        tracer = self

        def send(network, src, dest, message):
            tracer._message_op[message.uid] = tracer.current_op
            return fn(network, src, dest, message)

        return send

    def _count_gather(self, fn, label_index: int):
        """Count quorum rounds, in total and per round label (the label's
        ``[instance]`` suffix dropped); ``label_index`` is the label's
        position among the positional arguments."""
        counts = self.counts

        def gather(process, *args, **kwargs):
            if "label" in kwargs:
                label = kwargs["label"]
            elif len(args) > label_index:
                label = args[label_index]
            else:
                label = fn.__defaults__[-1]
            counts["sim.process.gathers"] += 1
            counts[f"gather:{label.split('[', 1)[0]}"] += 1
            return fn(process, *args, **kwargs)

        return gather

    def _count_response(self, fn):
        counts = self.counts

        def add_response(future, response):
            counts["sim.futures.responses"] += 1
            if future.done():
                counts["sim.futures.late_responses"] += 1
            return fn(future, response)

        return add_response

    def _count_kind(self, fn):
        per_kind = self.per_kind

        def record(stats, src, dest, kind, data_bytes, metadata_bytes):
            per_kind[kind] += 1
            return fn(stats, src, dest, kind, data_bytes, metadata_bytes)

        return record

    def _measure_treas_list(self, fn):
        lengths = self.treas_list_lengths

        def handle(state, src, message):
            response = fn(state, src, message)
            if response is not None and response.kind == "TREAS-LIST":
                lengths.append(len(response["list"]))
            return response

        return handle

    def _add_hook(self, fn):
        tracer = self

        def add(network, rule):
            counted_rule = tracer.counted("chaos.hook_calls", rule)
            wrapped = tracer.timed("chaos.hook", counted_rule)
            tracer._hooks[rule] = wrapped
            return fn(network, wrapped)

        return add

    def _remove_hook(self, fn):
        tracer = self

        def remove(network, rule):
            return fn(network, tracer._hooks.pop(rule, rule))

        return remove

    # --------------------------------------------------------------- report
    def span(self, name: str) -> Tuple[int, float, float]:
        """``(calls, total seconds, self seconds)`` of the spans ``name``."""
        calls, total, own = self.spans.get(name, (0, 0.0, 0.0))
        return calls, total, own

    def vt_of(self, name: str, parents: Optional[Tuple[str, ...]] = None) -> List[float]:
        """Virtual-time durations of ``name``, optionally by parent span."""
        out: List[float] = []
        for (span, parent), values in self.vt.items():
            if span == name and (parents is None or parent in parents):
                out.extend(values)
        return out

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time summed per layer (the first component of span names)."""
        totals = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, own) in self.spans.items():
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def report(self) -> dict:
        """JSON-ready aggregates plus the raw span sample."""
        return {
            "spans": {name: {"calls": calls, "total_s": total, "self_s": own}
                      for name, (calls, total, own) in sorted(self.spans.items())},
            "counts": dict(sorted(self.counts.items())),
            "per_kind": dict(sorted(self.per_kind.items())),
            "sample_fields": ["name", "start_s", "end_s", "parent", "op"],
            "sample": [list(span) for span in self.samples],
        }
