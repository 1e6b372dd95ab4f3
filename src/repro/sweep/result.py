"""Compact per-run records and campaign-level aggregation.

Workers return :class:`RunRecord` objects -- plain picklable scalars and
small dicts, never histories or deployments -- and :class:`SweepResult`
aggregates them into the views a report needs: the pass/fail matrix,
latency percentiles per cell, checker-method counts and per-cell wall
clock.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.series import nearest_rank
from repro.sweep.grid import format_cell_id


def latency_summary(latencies: Sequence[float]) -> Dict[str, float]:
    """Mean / p50 / p95 / p99 / max of a latency sample (empty-safe).

    Percentiles use the nearest-rank method on the sorted sample, which is
    exact, deterministic and needs no interpolation policy.
    """
    if not latencies:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    ordered = sorted(latencies)
    count = len(ordered)
    return {
        "count": count,
        "mean": round(sum(ordered) / count, 6),
        "p50": round(nearest_rank(ordered, 0.50), 6),
        "p95": round(nearest_rank(ordered, 0.95), 6),
        "p99": round(nearest_rank(ordered, 0.99), 6),
        "max": round(ordered[-1], 6),
    }


@dataclass(frozen=True)
class RunRecord:
    """Everything one sweep cell reports back across the process boundary."""

    scenario: str
    seed: int
    params: Tuple[Tuple[str, object], ...]
    ok: bool
    #: First verification failure (liveness / atomicity / tag monotonicity)
    #: or crash traceback; ``None`` when the cell passed.
    failure: Optional[str]
    #: SHA-256 of ``repr(ChaosRunResult.signature())`` -- the determinism
    #: witness compared between serial and pooled execution.
    signature_hash: str
    wall_clock_sec: float
    history_ops: int
    events: int
    messages: int
    #: Which linearizability algorithm decided (``fast`` / ``reference``;
    #: empty when the run crashed before checking).
    checker_method: str
    read_latency: Dict[str, float] = field(default_factory=dict)
    write_latency: Dict[str, float] = field(default_factory=dict)
    #: The cell's exported :class:`~repro.obs.report.MetricsReport` dict
    #: (already JSON-ready, passed through serialization verbatim) when the
    #: campaign ran with ``metrics=True``; ``None`` otherwise.  The dict may
    #: carry an extra ``slo`` entry with the scenario's SLO verdicts.
    metrics: Optional[Dict[str, object]] = None

    @property
    def cell_id(self) -> str:
        return format_cell_id(self.scenario, self.seed, self.params)

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "RunRecord":
        """Rebuild a record from its :meth:`to_json` rendering.

        The round-trip is exact for everything the checkpoint/resume gate
        compares (scenario, seed, canonically ordered params, ok flag,
        signature hash, checker method); ``wall_clock_sec`` keeps the
        original cell's measured time, not the resumed campaign's.
        """
        return cls(
            scenario=payload["scenario"],
            seed=payload["seed"],
            params=tuple(sorted(payload.get("params", {}).items())),
            ok=payload["ok"],
            failure=payload.get("failure"),
            signature_hash=payload["signature_hash"],
            wall_clock_sec=payload["wall_clock_sec"],
            history_ops=payload["history_ops"],
            events=payload["events"],
            messages=payload["messages"],
            checker_method=payload["checker_method"],
            read_latency=dict(payload.get("read_latency", {})),
            write_latency=dict(payload.get("write_latency", {})),
            metrics=payload.get("metrics"),
        )

    def to_json(self) -> Dict[str, object]:
        """JSON-serialisable rendering of this cell's record.

        The ``metrics`` key is present only when the cell collected
        metrics, so metrics-free renderings stay byte-identical to older
        journals and reports.
        """
        payload = self._base_json()
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return payload

    def _base_json(self) -> Dict[str, object]:
        return {
            "cell": self.cell_id,
            "scenario": self.scenario,
            "seed": self.seed,
            "params": dict(self.params),
            "ok": self.ok,
            "failure": self.failure,
            "signature_hash": self.signature_hash,
            "wall_clock_sec": round(self.wall_clock_sec, 4),
            "history_ops": self.history_ops,
            "events": self.events,
            "messages": self.messages,
            "checker_method": self.checker_method,
            "read_latency": self.read_latency,
            "write_latency": self.write_latency,
        }


@dataclass
class SweepResult:
    """The aggregated outcome of one campaign.

    ``jobs`` is the worker count the caller *asked* for; ``workers`` the
    pool size the engine actually used (capped at ``usable_cores()`` and
    the pending-cell count; 1 when the campaign ran serially), so a report
    for ``--jobs 16`` on an 8-core host honestly says 8.  ``chunk`` is the
    cells-per-worker-task batch size the engine used (1 when serial),
    ``pool_spinup_sec`` the measured pool start-up cost, ``resumed_cells``
    how many cells were replayed from a checkpoint journal instead of
    executed, and ``complete`` whether every cell of the grid has a record
    (``False`` after an interrupted / ``max_cells``-truncated campaign).
    """

    grid: Dict[str, object]
    jobs: int
    records: List[RunRecord]
    wall_clock_sec: float
    chunk: int = 1
    workers: int = 1
    pool_spinup_sec: float = 0.0
    resumed_cells: int = 0
    complete: bool = True

    # ----------------------------------------------------------- aggregates
    @property
    def passed(self) -> int:
        return sum(1 for record in self.records if record.ok)

    @property
    def failed(self) -> int:
        return len(self.records) - self.passed

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def pass_matrix(self) -> Dict[str, Dict[int, bool]]:
        """``scenario -> seed -> all cells passed`` (parameter cells AND-ed)."""
        matrix: Dict[str, Dict[int, bool]] = {}
        for record in self.records:
            row = matrix.setdefault(record.scenario, {})
            row[record.seed] = row.get(record.seed, True) and record.ok
        return matrix

    def checker_method_counts(self) -> Dict[str, int]:
        """How many cells each linearizability algorithm decided."""
        return dict(Counter(record.checker_method for record in self.records))

    def signature_map(self) -> Dict[str, str]:
        """``cell id -> signature hash`` (the serial-vs-parallel gate input)."""
        return {record.cell_id: record.signature_hash for record in self.records}

    def failures(self) -> List[RunRecord]:
        """The failed cells' records, in grid-expansion order."""
        return [record for record in self.records if not record.ok]

    # ------------------------------------------------------------- rendering
    def render_matrix(self) -> str:
        """ASCII pass/fail matrix: one row per scenario, one column per seed."""
        matrix = self.pass_matrix()
        seeds = sorted({seed for row in matrix.values() for seed in row})
        width = max((len(name) for name in matrix), default=8)
        lines = [" " * width + "  " + " ".join(f"s{seed:<4}" for seed in seeds)]
        for name, row in matrix.items():
            cells = " ".join(
                f"{'ok' if row[seed] else 'FAIL':<5}" if seed in row else f"{'-':<5}"
                for seed in seeds)
            lines.append(f"{name:<{width}}  {cells}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        """JSON-serialisable report (the ``cells`` list keeps expansion order)."""
        slowest = max(self.records, key=lambda r: r.wall_clock_sec, default=None)
        return {
            "grid": self.grid,
            "jobs": self.jobs,
            "workers": self.workers,
            "chunk": self.chunk,
            "complete": self.complete,
            "resumed_cells": self.resumed_cells,
            "cells_total": len(self.records),
            "cells_passed": self.passed,
            "cells_failed": self.failed,
            "wall_clock_sec": round(self.wall_clock_sec, 4),
            "pool_spinup_sec": round(self.pool_spinup_sec, 4),
            "cell_wall_clock_sum_sec": round(
                sum(record.wall_clock_sec for record in self.records), 4),
            "slowest_cell": None if slowest is None else slowest.cell_id,
            "checker_methods": self.checker_method_counts(),
            "cells": [record.to_json() for record in self.records],
        }

    def render_html(self) -> str:
        """Self-contained HTML campaign report (no external dependencies).

        Pass/fail matrix, degradation curves over the grid's ``fault_rate``
        axis and per-cell virtual-time sparklines (when the campaign
        collected metrics); see :mod:`repro.sweep.html`.  Works identically
        on a result re-read from ``--output`` JSON, since it renders from
        :meth:`to_json`.
        """
        from repro.sweep.html import render_campaign_html

        return render_campaign_html(self.to_json())
