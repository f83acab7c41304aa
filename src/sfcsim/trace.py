"""Structured audit log: per-event records, utilization samples, CSV emission.

One TraceLog collects everything a single run produces.  Records carry the
lifecycle outcomes (accepted / rejected / released / migrated / terminated)
and utilization is sampled at every event boundary, one block of per-node
usage each, so all run metrics can be recomputed from the log alone.
"""

import csv
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from .mano import FailureReason, ResourceLedger

# Record kinds: the three engine events plus per-SFC sub-records emitted while
# a topology change is being resolved, and solver-contract discrepancy notes.
KIND_ARRIVAL = "arrival"
KIND_DEPARTURE = "departure"
KIND_TOPO_CHANGE = "topo_change"
KIND_MIGRATION = "migration"
KIND_DISCREPANCY = "discrepancy"

EVENT_KINDS = (KIND_ARRIVAL, KIND_DEPARTURE, KIND_TOPO_CHANGE)

OUTCOME_ACCEPTED = "accepted"
OUTCOME_REJECTED = "rejected"
OUTCOME_RELEASED = "released"
OUTCOME_MIGRATED = "migrated"
OUTCOME_TERMINATED = "terminated"


@dataclass(frozen=True)
class TraceRecord:
    time: float
    seq: int
    kind: str
    sfc_id: int | None = None
    outcome: str | None = None
    reason: FailureReason | None = None
    plan_nodes: tuple[int, ...] | None = None  # VNF placement summary


@dataclass(frozen=True)
class UtilizationSample:
    time: float
    node: int
    cpu_used: Fraction
    cpu_capacity: Fraction
    ram_used: Fraction
    ram_capacity: Fraction


class _UtilizationBlock(NamedTuple):
    """Node usage at one event boundary in integer units, with the snapshot's capacity tuples."""

    time: float
    cpu_capacity: tuple[Fraction, ...]
    ram_capacity: tuple[Fraction, ...]
    cpu_used: tuple[int, ...]
    ram_used: tuple[int, ...]
    cpu_scale: int
    ram_scale: int


def _fmt(x, scale=1) -> str:
    """``x / scale`` as a fixed-format decimal for CSV cells (6 places).

    The quotient of two ints rounds as float() of their Fraction does.  Every
    accepted capacity converts to a finite float, and no usage exceeds a
    capacity it was booked under, so no cell overflows.
    """
    return f"{float(x) if scale == 1 else x / scale:.6f}"


def write_csv(path: Path, header: list, rows) -> Path:
    """Write ``header`` and then ``rows`` as a CSV file; overwrites."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    return path


class TraceLog:
    """Append-only sink the engine writes to while a run executes."""

    def __init__(self):
        self.records: list[TraceRecord] = []
        self._blocks: list[_UtilizationBlock] = []

    def record(self, time: float, kind: str, sfc_id: int | None = None,
               outcome: str | None = None, reason: FailureReason | None = None,
               plan_nodes: tuple[int, ...] | None = None) -> None:
        self.records.append(TraceRecord(time=time, seq=len(self.records), kind=kind,
                                        sfc_id=sfc_id, outcome=outcome, reason=reason,
                                        plan_nodes=plan_nodes))

    def sample_utilization(self, time: float, ledger: ResourceLedger) -> None:
        snap = ledger.snapshot
        self._blocks.append(_UtilizationBlock(time, snap.node_cpu_capacity,
                                              snap.node_ram_capacity, *ledger.node_usage()))

    @property
    def utilization(self) -> list[UtilizationSample]:
        """One sample per node per event boundary, in sampling order."""
        return [UtilizationSample(b.time, node, Fraction(cpu, b.cpu_scale), cpu_cap,
                                  Fraction(ram, b.ram_scale), ram_cap)
                for b in self._blocks
                for node, (cpu, cpu_cap, ram, ram_cap) in enumerate(zip(
                    b.cpu_used, b.cpu_capacity, b.ram_used, b.ram_capacity))]

    # -- derived metrics

    def arrival_count(self) -> int:
        return sum(1 for r in self.records if r.kind == KIND_ARRIVAL)

    def accepted_count(self) -> int:
        return sum(1 for r in self.records if r.outcome == OUTCOME_ACCEPTED)

    def rejected_count(self) -> int:
        return sum(1 for r in self.records if r.outcome == OUTCOME_REJECTED)

    def terminated_count(self) -> int:
        return sum(1 for r in self.records if r.outcome == OUTCOME_TERMINATED)

    def acceptance_ratio(self) -> float:
        """Accepted arrivals over total arrivals; defined as 1.0 when idle."""
        arrivals = self.arrival_count()
        if arrivals == 0:
            return 1.0
        return self.accepted_count() / arrivals

    def failure_breakdown(self) -> dict[FailureReason, int]:
        """Counts per failure reason over rejected and early-terminated SFCs."""
        counts: dict[FailureReason, int] = {}
        for r in self.records:
            if r.outcome in (OUTCOME_REJECTED, OUTCOME_TERMINATED):
                counts[r.reason] = counts.get(r.reason, 0) + 1
        return counts

    def running_count_series(self) -> list[tuple[float, int]]:
        """(time, active SFC count) sampled immediately after every event.

        Reconstructed purely from the records: sub-records (migration,
        discrepancy) fold into the engine event that produced them.
        """
        series: list[tuple[float, int]] = []
        active = 0
        open_time: float | None = None
        for rec in self.records:
            if rec.kind in EVENT_KINDS:
                if open_time is not None:
                    series.append((open_time, active))
                open_time = rec.time
            if rec.outcome == OUTCOME_ACCEPTED:
                active += 1
            elif rec.outcome in (OUTCOME_RELEASED, OUTCOME_TERMINATED):
                active -= 1
        if open_time is not None:
            series.append((open_time, active))
        return series

    # -- CSV emission

    def emit_csv(self, out_dir) -> list[Path]:
        """Write events/utilization/running_count/summary CSVs; overwrites."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        events = write_csv(out / "events.csv",
                           ["time", "seq", "kind", "sfc_id", "outcome", "reason"],
                           ([_fmt(r.time), r.seq, r.kind, "" if r.sfc_id is None else r.sfc_id,
                             r.outcome or "", r.reason.value if r.reason else ""]
                            for r in self.records))

        utilization = out / "utilization.csv"
        with open(utilization, "w", newline="") as f:
            f.write("time,node,cpu_used,cpu_capacity,ram_used_mb,ram_capacity_mb\n")
            # A node's text after the time column depends only on its four
            # values and the block's scales, so it is formatted again only when
            # one of them differs from the previous block's; a block on another
            # substrate or on other scales is formatted afresh.  A block equal
            # to the previous one past its time takes its texts whole; the
            # tuple compare tests each item for identity before equality, and
            # the ledger hands out the same usage tuples until they change.
            # No cell needs csv quoting: they are ints and fixed-point decimals.
            keys = texts = scales = []
            last = None
            for b in self._blocks:
                values = b[1:]
                if values != last:
                    new_keys = list(zip(b.cpu_used, b.cpu_capacity, b.ram_used, b.ram_capacity))
                    if len(new_keys) != len(keys) or scales != (b.cpu_scale, b.ram_scale):
                        keys = texts = [None] * len(new_keys)
                        scales = b.cpu_scale, b.ram_scale
                    texts = [text if key == old else
                             f"{node},{_fmt(key[0], b.cpu_scale)},{_fmt(key[1])},"
                             f"{_fmt(key[2], b.ram_scale)},{_fmt(key[3])}"
                             for node, (key, old, text) in enumerate(zip(new_keys, keys, texts))]
                    keys = new_keys
                    last = values
                prefix = _fmt(b.time) + ","
                f.write(prefix + ("\n" + prefix).join(texts) + "\n")

        running = write_csv(out / "running_count.csv", ["time", "count"],
                            ([_fmt(t), count] for t, count in self.running_count_series()))

        totals = [self.arrival_count(), self.accepted_count(), self.rejected_count(),
                  self.terminated_count(), _fmt(self.acceptance_ratio())]
        breakdown = self.failure_breakdown()
        summary = write_csv(out / "summary.csv", ["arrivals", "accepted", "rejected",
                                                  "terminated_early", "acceptance_ratio"],
                            chain([totals, ["reason", "count", "", "", ""]],
                                  ([reason.value, breakdown.get(reason, 0), "", "", ""]
                                   for reason in FailureReason)))
        return [events, utilization, running, summary]
