"""SFC requests and the VNF template catalog with inter-VNF bandwidth demands."""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .topology import (SubstrateTopology, _is_number, _num, as_float, as_fraction, as_integer,
                       as_list, as_record, edge_key, read_at, read_items)


@dataclass(frozen=True)
class VnfTemplate:
    vnf_id: int
    cpu_demand: Fraction
    ram_demand: Fraction

    def __post_init__(self):
        for name in ("cpu_demand", "ram_demand"):  # as a scenario file reads it: 0.3 is 3/10
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.cpu_demand <= 0:
            raise ValueError(f"vnf {self.vnf_id}: cpu_demand must be > 0")
        if self.ram_demand <= 0:
            raise ValueError(f"vnf {self.vnf_id}: ram_demand must be > 0")


class VnfCatalog:
    """VNF template pool plus the bandwidth each template pair exchanges."""

    def __init__(self, templates, link_band_demand=None):
        self.templates: dict[int, VnfTemplate] = {}
        for t in templates:
            if t.vnf_id in self.templates:
                raise ValueError(f"duplicate vnf_id {t.vnf_id}")
            self.templates[t.vnf_id] = t
        self.link_band_demand: dict[tuple[int, int], Fraction] = {}
        for (a, b), band in (link_band_demand or {}).items():
            self.add_link_demand(a, b, band)

    def add_link_demand(self, a: int, b: int, band) -> None:
        if a not in self.templates or b not in self.templates:
            raise ValueError(f"link demand ({a},{b}) references an unknown template")
        band = as_fraction(band)
        if band <= 0:
            raise ValueError(f"link demand ({a},{b}) must be > 0")
        key = edge_key(a, b)
        if key in self.link_band_demand and self.link_band_demand[key] != band:
            raise ValueError(f"conflicting demand for template pair {key}")
        self.link_band_demand[key] = band

    def band_demand(self, a: int, b: int) -> Fraction | None:
        """Bandwidth demand between two templates; None when undefined."""
        return self.link_band_demand.get(edge_key(a, b))

    def __contains__(self, vnf_id: int) -> bool:
        return vnf_id in self.templates


@dataclass(frozen=True)
class SfcRequest:
    """One service chain request: lifecycle, anchoring endpoints, VNF order, QoS."""

    sfc_id: int
    start_time: float
    end_time: float
    ingress: int
    egress: int
    vnf_chain: tuple[int, ...]
    qos_max_latency: float

    def __post_init__(self):
        if len(self.vnf_chain) < 1:
            raise ValueError(f"sfc {self.sfc_id}: empty vnf_chain")


@dataclass(frozen=True)
class ValidationIssue:
    sfc_id: int
    reason: str
    detail: str


@dataclass
class ValidationReport:
    checked: int = 0
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        if self.ok:
            return f"{self.checked} requests, all valid"
        lines = [f"{self.checked} requests, {len(self.issues)} problem(s):"]
        lines += [f"  sfc {i.sfc_id}: {i.reason} ({i.detail})" for i in self.issues]
        return "\n".join(lines)


def validate_workload(requests, catalog: VnfCatalog,
                      topo: SubstrateTopology) -> ValidationReport:
    """Check every request against the catalog and substrate.

    A workload that passes here cannot make the engine trip over malformed
    input: lifecycles are finite, ordered and inside the topology's time range,
    endpoints exist, every chain VNF has a template, and every consecutive
    chain pair has a declared bandwidth demand.
    """
    report = ValidationReport(checked=len(requests))
    seen: set[int] = set()
    n = topo.node_count
    for req in requests:
        bad = report.issues.append
        if type(req.sfc_id) is not int:  # tested before it is hashed
            bad(ValidationIssue(req.sfc_id, "BadSfcId", f"sfc_id {req.sfc_id!r} is not an int"))
        elif req.sfc_id in seen:
            bad(ValidationIssue(req.sfc_id, "DuplicateSfcId", "sfc_id used twice"))
        else:
            seen.add(req.sfc_id)
        if not (_is_number(req.start_time) and _is_number(req.end_time)):
            bad(ValidationIssue(req.sfc_id, "BadLifecycle",
                                f"start {req.start_time!r} and end {req.end_time!r} "
                                f"must be numbers"))
        elif not req.start_time < req.end_time < math.inf:  # false for NaN too
            bad(ValidationIssue(req.sfc_id, "BadLifecycle",
                                f"start {req.start_time} must precede a finite end {req.end_time}"))
        elif req.start_time < topo.start_time:
            bad(ValidationIssue(req.sfc_id, "BadLifecycle",
                                f"start {req.start_time} precedes topology start {topo.start_time}"))
        for node, role in ((req.ingress, "ingress"), (req.egress, "egress")):
            if type(node) is not int or not 0 <= node < n:  # 1.0 and True index no node
                bad(ValidationIssue(req.sfc_id, "BadEndpoint",
                                    f"{role} {node!r} is not a node in 0..{n - 1}"))
        if not (_is_number(req.qos_max_latency) and 0 < req.qos_max_latency < math.inf):
            bad(ValidationIssue(req.sfc_id, "BadQos",
                                f"qos_max_latency {req.qos_max_latency!r} must be finite and > 0"))
        unknown = [v for v in req.vnf_chain if type(v) is not int or v not in catalog]
        if unknown:
            bad(ValidationIssue(req.sfc_id, "UnknownVnf",
                                f"templates {unknown} not in catalog"))
            continue
        for a, b in zip(req.vnf_chain, req.vnf_chain[1:]):
            if catalog.band_demand(a, b) is None:
                bad(ValidationIssue(req.sfc_id, "MissingLinkDemand",
                                    f"no bandwidth demand for pair ({a},{b})"))
    return report


# --- JSON (de)serialization -------------------------------------------------

def catalog_from_json(doc: dict) -> VnfCatalog:
    as_record(doc, ("templates",))
    templates = [VnfTemplate(vnf_id=read_at(f"templates[{i}].id", as_integer, t["id"]),
                             cpu_demand=read_at(f"templates[{i}].cpu", as_fraction, t["cpu"]),
                             ram_demand=read_at(f"templates[{i}].ram_mb", as_fraction, t["ram_mb"]))
                 for i, t in enumerate(read_items("templates", as_record, doc["templates"],
                                                  ("id", "cpu", "ram_mb")))]
    catalog = VnfCatalog(templates)
    for i, link in enumerate(read_items("links", as_record, doc.get("links", []),
                                        ("a", "b", "band_mbps"))):
        catalog.add_link_demand(read_at(f"links[{i}].a", as_integer, link["a"]),
                                read_at(f"links[{i}].b", as_integer, link["b"]),
                                read_at(f"links[{i}].band_mbps", as_fraction, link["band_mbps"]))
    return catalog


def catalog_to_json(catalog: VnfCatalog) -> dict:
    return {
        "templates": [{"id": t.vnf_id, "cpu": _num(t.cpu_demand), "ram_mb": _num(t.ram_demand)}
                      for t in sorted(catalog.templates.values(), key=lambda t: t.vnf_id)],
        "links": [{"a": a, "b": b, "band_mbps": _num(band)}
                  for (a, b), band in sorted(catalog.link_band_demand.items())],
    }


def requests_from_json(docs: list[dict]) -> list[SfcRequest]:
    def request(i: int, d: dict) -> SfcRequest:
        def read(key: str, convert):
            return read_at(f"sfcs[{i}].{key}", convert, d[key])
        return SfcRequest(sfc_id=read("id", as_integer), start_time=read("start", as_float),
                          end_time=read("end", as_float), ingress=read("ingress", as_integer),
                          egress=read("egress", as_integer),
                          vnf_chain=read_items(f"sfcs[{i}].chain", as_integer, d["chain"]),
                          qos_max_latency=read("qos_latency_ms", as_float))
    return [request(i, d) for i, d in enumerate(read_items("sfcs", as_record, docs, (
        "id", "start", "end", "ingress", "egress", "chain", "qos_latency_ms")))]


def requests_to_json(requests) -> list[dict]:
    return [{"id": r.sfc_id, "start": _num(r.start_time), "end": _num(r.end_time),
             "ingress": r.ingress, "egress": r.egress, "chain": list(r.vnf_chain),
             "qos_latency_ms": _num(r.qos_max_latency)}
            for r in requests]


def workload_from_json(doc: dict) -> tuple[list[SfcRequest], VnfCatalog]:
    return requests_from_json(doc["sfcs"]), catalog_from_json(doc["catalog"])


def workload_to_json(requests, catalog: VnfCatalog) -> dict:
    return {"sfcs": requests_to_json(requests), "catalog": catalog_to_json(catalog)}
