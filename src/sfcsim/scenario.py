"""Scenario loading and generators: dynamic satellite/air/ground substrates
and Poisson SFC workloads.

The substrate generator models a small space-air-ground network over a
spherical Earth: satellites on circular orbits (Kepler angular rate from the
altitude), UAVs flying seeded waypoint loops at low altitude inside a compact
operations region, and fixed ground stations in the same region.  Geometry is
deliberately simple; the point is plausible, reproducible connectivity churn
across snapshots, not orbital fidelity.  Every geometric constant is a
parameter with a default.
"""

import json
import math
import random
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from pathlib import Path

from .solver import SOLVERS
from .topology import (INPUT_ERRORS, SubstrateSnapshot, SubstrateTopology, _is_number, as_float,
                       as_fraction, as_integer, as_object, topology_from_json)
from .workload import (SfcRequest, VnfCatalog, catalog_from_json,
                       requests_from_json, validate_workload)

EARTH_MU_KM3_S2 = 398600.4418     # gravitational parameter
LIGHT_KM_PER_MS = 299.792458
# Most nodes x snapshots, UAVs x waypoints or SFCs x chain length one generator may draw.
MAX_GENERATED = 10**7


class ParseError(ValueError):
    """Scenario file is not valid JSON or misses required structure."""


class ValidationError(ValueError):
    """Scenario content is inconsistent; the message names the location."""


class InvalidParams(ValueError):
    """Generator parameters violate their invariants."""


def _finite(x) -> bool:
    """Whether the number ``x`` converts to a finite float; one beyond float
    range does not."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class SaginParams:
    """Knobs of the space-air-ground substrate generator."""

    orbit_count: int
    sats_per_orbit: int
    altitude_km: float
    uav_count: int
    ground_count: int
    sat_cpu: Fraction
    uav_cpu: Fraction
    ground_cpu: Fraction
    node_ram_mb: Fraction
    isl_band_mbps: Fraction
    sg_band_mbps: Fraction
    duration_s: float
    snapshot_interval_s: float
    elevation_min_deg: float = 10.0
    seed: int = 0
    # Geometry constants, overridable per scenario.
    inclination_deg: float = 53.0
    earth_radius_km: float = 6371.0
    uav_altitude_km: float = 2.0
    air_range_km: float = 100.0
    region_radius_km: float = 50.0
    uav_loop_period_s: float = 3600.0
    uav_waypoints: int = 4

    def __post_init__(self):
        for f in fields(self):  # first, so no check below compares a str or a NaN
            x = getattr(self, f.name)
            if f.type is int and type(x) is not int:
                raise InvalidParams(f"{f.name} must be an int, got {x!r}")
            if f.type is not int and not _is_number(x):
                raise InvalidParams(f"{f.name} must be a number, got {x!r}")
            if f.type is not int and not _finite(x):
                raise InvalidParams(f"{f.name} must be finite")
            if f.type is Fraction:  # as a scenario file reads it: 0.3 is 3/10
                object.__setattr__(self, f.name, as_fraction(x))
        if self.orbit_count < 1 or self.sats_per_orbit < 1:
            raise InvalidParams("need at least one orbit with one satellite")
        if self.uav_count < 0 or self.ground_count < 0:
            raise InvalidParams("uav_count and ground_count cannot be negative")
        radius = self.earth_radius_km + self.altitude_km  # its cube sets the orbital rate
        if not _finite(radius * radius * radius):
            raise InvalidParams("the orbit radius (earth_radius_km + altitude_km) cubed"
                                " must be finite")
        if self.duration_s <= 0 or self.snapshot_interval_s <= 0:
            raise InvalidParams("duration and snapshot interval must be > 0")
        steps = self.duration_s / self.snapshot_interval_s
        if not _finite(steps) or abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
            raise InvalidParams("snapshot_interval_s must divide duration_s")
        if not 0 <= self.elevation_min_deg < 90:
            raise InvalidParams("elevation_min_deg must be in [0, 90)")
        # Below these bounds a resource is void or the geometry can divide by zero.
        for name in ("sat_cpu", "uav_cpu", "ground_cpu", "node_ram_mb", "isl_band_mbps",
                     "sg_band_mbps", "altitude_km", "earth_radius_km", "uav_loop_period_s"):
            if not getattr(self, name) > 0:
                raise InvalidParams(f"{name} must be > 0")
        for name, low in (("uav_altitude_km", 0), ("uav_waypoints", 1)):
            if not getattr(self, name) >= low:
                raise InvalidParams(f"{name} must be >= {low}")
        if max(self.node_count * self.snapshot_count,
               self.uav_count * self.uav_waypoints) > MAX_GENERATED:
            raise InvalidParams(f"node x snapshot or UAV x waypoint count above {MAX_GENERATED}")

    @property
    def snapshot_count(self) -> int:
        return round(self.duration_s / self.snapshot_interval_s) + 1

    @property
    def node_count(self) -> int:
        return self.orbit_count * self.sats_per_orbit + self.uav_count + self.ground_count


def _latlon_to_cart(lat_deg: float, lon_deg: float, radius: float):
    lat, lon = math.radians(lat_deg), math.radians(lon_deg)
    return (radius * math.cos(lat) * math.cos(lon),
            radius * math.cos(lat) * math.sin(lon),
            radius * math.sin(lat))


def _above_mask(sin_el: float, sin_min: float, elevation_min_deg: float) -> bool:
    """Whether a satellite at ``sin_el`` (the sine of its elevation) clears the
    mask: ``degrees(asin(clamp(sin_el))) >= elevation_min_deg``.

    ``sin_min`` is ``sin(radians(elevation_min_deg))``.  Outside ±1e-9 of it
    the sign of ``sin_el - sin_min`` decides, since rounding moves either side
    of the exact test far less; within that band, and for NaN (which fails
    both comparisons), the exact test runs.
    """
    if sin_el < sin_min - 1e-9:
        return False
    if sin_el > sin_min + 1e-9:
        return True
    return math.degrees(math.asin(max(-1.0, min(1.0, sin_el)))) >= elevation_min_deg


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _line_of_sight(p, q, earth_radius: float) -> bool:
    """True when the segment p-q clears the Earth sphere."""
    px, py, pz = p
    dx, dy, dz = q[0] - px, q[1] - py, q[2] - pz
    dd = dx * dx + dy * dy + dz * dz
    if dd == 0:
        return True
    t = -(px * dx + py * dy + pz * dz) / dd
    if not 0 < t < 1:
        return True  # closest approach outside the segment; endpoints are above ground
    cx, cy, cz = px + t * dx, py + t * dy, pz + t * dz
    return math.sqrt(cx * cx + cy * cy + cz * cz) >= earth_radius


def generate_sagin(params: SaginParams) -> SubstrateTopology:
    """Materialize the dynamic substrate described by ``params``.

    Node order: satellites orbit-major, then UAVs, then ground stations.
    Intra-orbit neighbor satellites are always linked; each satellite also
    links to its nearest satellite in another plane when line-of-sight holds.
    Surface/air nodes link to satellites above the minimum elevation and to
    each other within ``air_range_km``.  Capacities are constant across
    snapshots; only edges and latencies vary.
    """
    p = params
    rng = random.Random(p.seed)
    sat_n = p.orbit_count * p.sats_per_orbit
    n = p.node_count

    # Seeded, time-independent draws: operations region, ground sites, UAV loops.
    # Without Earth rotation the orbit ground tracks are fixed great circles,
    # so the region is anchored near a random point of a random orbit's track;
    # satellite passes then sweep over it and visibility comes and goes.
    track_orbit = rng.randrange(p.orbit_count)
    track_phase = rng.uniform(0.0, 2 * math.pi)
    raan = 2 * math.pi * track_orbit / p.orbit_count
    incl = math.radians(p.inclination_deg)
    ux, uy = math.cos(track_phase), math.sin(track_phase)
    uy, uz = uy * math.cos(incl), uy * math.sin(incl)
    ux, uy = ux * math.cos(raan) - uy * math.sin(raan), ux * math.sin(raan) + uy * math.cos(raan)
    center_lat = math.degrees(math.asin(max(-1.0, min(1.0, uz))))
    center_lon = math.degrees(math.atan2(uy, ux))

    def region_point():
        r = p.region_radius_km * math.sqrt(rng.random())
        ang = rng.uniform(0, 2 * math.pi)
        dlat = (r * math.cos(ang)) / 111.0
        dlon = (r * math.sin(ang)) / (111.0 * max(0.1, math.cos(math.radians(center_lat))))
        return center_lat + dlat, center_lon + dlon

    ground_sites = [region_point() for _ in range(p.ground_count)]
    uav_loops = [[region_point() for _ in range(p.uav_waypoints)]
                 for _ in range(p.uav_count)]

    def uav_position(uav: int, t: float):
        loop = uav_loops[uav]
        k = len(loop)
        u = (t % p.uav_loop_period_s) / p.uav_loop_period_s * k
        i = int(u) % k
        f = u - int(u)
        (la1, lo1), (la2, lo2) = loop[i], loop[(i + 1) % k]
        lat = la1 + (la2 - la1) * f
        lon = lo1 + (lo2 - lo1) * f
        return _latlon_to_cart(lat, lon, p.earth_radius_km + p.uav_altitude_km)

    # Satellite constants, in the operations and order of the orbit formula
    # theta = (2π·slot/m + 2π·orbit/(O·m)) + ω·t, so every position keeps its bits.
    m = p.sats_per_orbit
    a = p.earth_radius_km + p.altitude_km
    omega = math.sqrt(EARTH_MU_KM3_S2 / a ** 3)  # rad/s, circular orbit
    cos_incl, sin_incl = math.cos(incl), math.sin(incl)
    sat_phases = []  # (theta at t=0, cos RAAN, sin RAAN) per satellite
    planes = []  # (first satellite, slot 0's phase, frame axes e1, e2) per orbit
    normals = []  # unit normal e1 × e2 per orbit
    for orbit in range(p.orbit_count):
        plane_raan = 2 * math.pi * orbit / p.orbit_count
        cos_raan, sin_raan = math.cos(plane_raan), math.sin(plane_raan)
        plane_phase = 2 * math.pi * orbit / (p.orbit_count * m)
        sat_phases += [(2 * math.pi * slot / m + plane_phase, cos_raan, sin_raan)
                       for slot in range(m)]
        # A satellite at orbit angle θ sits at a·(cos θ·e1 + sin θ·e2).
        planes.append((orbit * m, plane_phase, (cos_raan, sin_raan, 0.0),
                       (-cos_incl * sin_raan, cos_incl * cos_raan, sin_incl)))
        normals.append((sin_incl * sin_raan, -sin_incl * cos_raan, cos_incl))

    def sat_positions(t: float):
        """Positions, and each satellite's (a·cos θ, a·sin θ) in its own plane."""
        wt = omega * t
        pos, in_plane = [], []
        for phase, cos_raan, sin_raan in sat_phases:
            theta = phase + wt
            x, y = a * math.cos(theta), a * math.sin(theta)
            in_plane.append((x, y))
            # rotate orbital plane: inclination about x, then RAAN about z
            y, z = y * cos_incl, y * sin_incl
            pos.append((x * cos_raan - y * sin_raan, x * sin_raan + y * cos_raan, z))
        return pos, in_plane

    times = tuple(float(k * p.snapshot_interval_s) for k in range(p.snapshot_count))
    # Both satellite lookups below pick a few slots of a plane by where a point
    # projects onto the plane's circle, and trust the slot lattice: satellite
    # j of a plane sits at angle 2π·j/m + phase + ω·t.  Rounding moves a
    # computed position off that lattice by at most a·angle_err (θ rounds to
    # within ulp(θ) ≤ 2^-52·θ_max; cos, sin and the two rotations add a few
    # ulps more).  Where a margin below is not far larger, the lookup scans.
    angle_err = 2.0 ** -50 * (2 * math.pi + omega * times[-1] + 8)
    slots_per_rad = m / (2 * math.pi)

    # Cross-plane nearest neighbour.  Projected onto plane o2, a point of
    # plane o lies at radius ρ ≥ a·|n_o·n_o2| (n the unit normals), and its
    # distance to the slot at angle Δ from its projection is
    # d² = 2a² − 2aρ·cos Δ.  The two slots that bracket the projection hold
    # one within half a slot, and every other slot is at least one slot away,
    # so each skipped slot's d² exceeds the bracket's best by at least
    # gap·a², gap = 2·|n_o·n_o2|·(cos(π/m) − cos(2π/m)).  Each distance
    # computed from rounded positions is off by under 8a²·angle_err in d²,
    # so the lookup needs gap above 10^6 times twice that; then the slot
    # coordinate is also off by under 1e-7 slot, too little to move the
    # bracket or shrink the gap noticeably.  Rings of three or fewer, planes
    # near perpendicular (polar planes 90° apart) and times so late that
    # angle_err nears the gap scan all m slots of the other plane.
    slot_gap = math.cos(math.pi / m) - math.cos(2 * math.pi / m)
    cross = []  # per orbit: (other orbit, projection or None)
    for o, (_, _, e1, e2) in enumerate(planes):
        row = []
        for o2, (_, _, f1, f2) in enumerate(planes):
            if o2 == o:
                continue
            gap = 2 * abs(_dot(normals[o], normals[o2])) * slot_gap
            # (x, y) in plane o maps to (x·xx + y·xy, x·yx + y·yy) in plane o2.
            proj = (_dot(e1, f1), _dot(e2, f1), _dot(e1, f2), _dot(e2, f2))
            row.append((o2, proj if m > 3 and gap > 1.6e7 * angle_err else None))
        cross.append(row)

    cpu = tuple([p.sat_cpu] * sat_n + [p.uav_cpu] * p.uav_count
                + [p.ground_cpu] * p.ground_count)
    ram = tuple([p.node_ram_mb] * n)
    sin_min = math.sin(math.radians(p.elevation_min_deg))

    # Elevation mask by arcs.  For a node at radius r < a the elevation of a
    # satellite falls as the central angle γ between them grows, so the
    # satellites above eps_lo = asin(sin_min − 1e-6) are those with
    # cos γ ≥ c_lo = cos(acos(r·cos eps_lo / a) − eps_lo).  In a plane whose
    # circle the node projects onto at angle φ and radius ρ·r,
    # cos γ = ρ·cos(θ − φ): that is a run of slots within acos(c_lo/ρ) of φ,
    # empty when ρ < c_lo.  The lookup tests that run and one slot more on
    # each side, ascending, with the exact per-pair formula.  A skipped slot
    # lies a whole slot beyond the run.  Rounding of φ (under 2^-50/ρ) and of
    # the lattice (angle_err) moves the run's edges by far less than a slot;
    # rounding of c_lo, ρ and the half-width moves cos γ at an edge by about
    # 1e-15, and sin_el moves by at most (a/|S−G|)² ≤ 10^6 times that, since
    # |S−G| ≥ a − r ≥ 1e-3·a.  So a skipped satellite has sin_el below
    # sin_min − 1e-6 + 1e-9, and the parent's computed sin_el, off by under
    # 5e-16·a/|S−G| + 1e-15, stays below sin_min − 1e-9, where _above_mask
    # rejects without the exact test.  A node within 0.1 % of the shell
    # radius or above it scans every satellite, as does every node when one
    # slot is not 10^6 times angle_err; a plane whose pole lies within
    # ρ < 1e-3 of the node, or that the run covers whole, is scanned whole.
    eps_lo = math.asin(sin_min - 1e-6)
    cos_lo = math.cos(eps_lo)
    arcs = 2 * math.pi / m > 1e6 * angle_err
    all_sats = (range(sat_n),)

    def mask_candidates(gx: float, gy: float, gz: float, gr: float, wt: float):
        """Runs of satellites that may clear the mask for the node at (gx, gy, gz)."""
        if not arcs or gr >= a * (1 - 1e-3):
            return all_sats
        c_lo = math.cos(math.acos(gr * cos_lo / a) - eps_lo)
        runs = []
        for base, phase, f1, f2 in planes:
            px = gx * f1[0] + gy * f1[1]
            py = gx * f2[0] + gy * f2[1] + gz * f2[2]
            rho = math.hypot(px, py) / gr
            if rho < c_lo:
                continue
            if rho < 1e-3:  # near the plane's pole
                runs.append(range(base, base + m))
                continue
            half = math.acos(c_lo / rho) * slots_per_rad
            centre = (math.atan2(py, px) - phase - wt) * slots_per_rad
            lo = math.ceil(centre - half) - 1
            count = math.floor(centre + half) + 2 - lo
            if count >= m:
                runs.append(range(base, base + m))
                continue
            k = lo % m
            if k + count > m:  # wraps past the last slot
                runs.append(range(base, base + k + count - m))
                count = m - k
            runs.append(range(base + k, base + k + count))
        return runs

    def snapshot_at(t: float) -> SubstrateSnapshot:
        wt = omega * t
        pos, in_plane = sat_positions(t)
        pos += [uav_position(u, t) for u in range(p.uav_count)]
        pos += [_latlon_to_cart(la, lo, p.earth_radius_km) for la, lo in ground_sites]

        links = [{} for _ in range(n)]

        def add_edge(u: int, v: int, band_mbps: Fraction):
            d = math.dist(pos[u], pos[v])
            if d <= 0:
                return
            links[u][v] = links[v][u] = (d / LIGHT_KM_PER_MS, band_mbps)

        # Intra-orbit rings.
        for orbit in range(p.orbit_count):
            base = orbit * m
            if m >= 2:
                for j in range(m if m > 2 else 1):
                    add_edge(base + j, base + (j + 1) % m, p.isl_band_mbps)

        # Nearest cross-plane neighbor, line-of-sight permitting: the
        # smallest distance, and of equal ones the smallest index, as the
        # first minimum of an ascending scan would find.  Only these writes
        # link two planes, so a nearest already linked to u chose u and has
        # written the pair: an edge exists when either end sees the other.
        if p.orbit_count >= 2:
            offsets = [phase + wt for _, phase, _, _ in planes]
            for u in range(sat_n):
                pu = pos[u]
                x, y = in_plane[u]
                best, nearest = math.inf, -1
                for o2, proj in cross[u // m]:
                    base2 = o2 * m
                    if proj is None:
                        slots = range(base2, base2 + m)
                    else:  # the two slots that bracket u's projection onto o2
                        xx, xy, yx, yy = proj
                        k = math.floor((math.atan2(x * yx + y * yy, x * xx + y * xy)
                                        - offsets[o2]) * slots_per_rad)
                        slots = (base2 + k % m, base2 + (k + 1) % m)
                    for v in slots:
                        d = math.dist(pu, pos[v])
                        if d < best or d == best and v < nearest:
                            best, nearest = d, v
                if nearest not in links[u] and \
                        _line_of_sight(pu, pos[nearest], p.earth_radius_km):
                    add_edge(u, nearest, p.isl_band_mbps)

        # Surface/air to satellite, by elevation mask: the angle of the
        # satellite above the node's local horizon.  The three-term sums are
        # written out left to right, so the result does not depend on how
        # the Python version's sum() rounds.
        for g in range(sat_n, n):
            gx, gy, gz = pos[g]
            gr = math.sqrt(gx * gx + gy * gy + gz * gz)
            for run in mask_candidates(gx, gy, gz, gr, wt):
                for s in run:
                    sx, sy, sz = pos[s]
                    dx, dy, dz = sx - gx, sy - gy, sz - gz
                    sin_el = ((dx * gx + dy * gy + dz * gz)
                              / (math.sqrt(dx * dx + dy * dy + dz * dz) * gr))
                    if _above_mask(sin_el, sin_min, p.elevation_min_deg):
                        add_edge(g, s, p.sg_band_mbps)

        # UAV-UAV and UAV-ground, by range.  Ground stations do not
        # interconnect directly (the terrestrial backhaul is assumed gone).
        for u in range(sat_n, sat_n + p.uav_count):
            for v in range(u + 1, n):
                if math.dist(pos[u], pos[v]) <= p.air_range_km:
                    add_edge(u, v, p.sg_band_mbps)

        return SubstrateSnapshot(n, links, cpu, ram)

    return SubstrateTopology(time_points=times,
                             snapshots={t: snapshot_at(t) for t in times})


def generate_poisson_workload(topo: SubstrateTopology, catalog: VnfCatalog,
                              sfc_count: int, mean_lifetime_s: float,
                              chain_len: int, qos_ms: float,
                              seed: int = 0) -> list[SfcRequest]:
    """Draw ``sfc_count`` requests with exponential inter-arrivals and lifetimes.

    Arrivals form a Poisson process over the topology horizon (rate chosen so
    the expected count fills it); lifetimes are exponential with the given
    mean, clamped to the horizon length.  Endpoints are uniform nodes and
    chains are uniform walks over template pairs that declare a bandwidth
    demand.
    """
    for name, x in (("sfc_count", sfc_count), ("chain_len", chain_len), ("seed", seed)):
        if type(x) is not int:
            raise InvalidParams(f"{name} must be an int, got {x!r}")
    for name, x in (("sfc_count", sfc_count), ("chain_len", chain_len)):
        if x < 1:
            raise InvalidParams(f"{name} must be finite and > 0")
    for name, x in (("mean_lifetime_s", mean_lifetime_s), ("qos_ms", qos_ms)):
        if not _is_number(x):
            raise InvalidParams(f"{name} must be a number, got {x!r}")
        if not (_finite(x) and x > 0):
            raise InvalidParams(f"{name} must be finite and > 0")
    if sfc_count * chain_len > MAX_GENERATED:
        raise InvalidParams(f"sfc_count x chain_len above {MAX_GENERATED}")
    if not catalog.templates:
        raise InvalidParams("catalog has no templates")
    horizon = topo.time_points[-1] - topo.start_time
    if horizon <= 0:
        raise InvalidParams("topology horizon is a single instant; cannot spread arrivals")

    partners: dict[int, list[int]] = {v: [] for v in catalog.templates}
    for a, b in catalog.link_band_demand:
        partners[a].append(b)
        if a != b:
            partners[b].append(a)
    for v in partners:
        partners[v].sort()
    if chain_len == 1:
        first_choices = sorted(catalog.templates)
    else:
        first_choices = sorted(v for v in catalog.templates if partners[v])
        if not first_choices:
            raise InvalidParams("no template pair declares a bandwidth demand")

    rng = random.Random(seed)
    rate = sfc_count / horizon
    n = topo.node_count
    t = topo.start_time
    requests = []
    for sfc_id in range(sfc_count):
        t += rng.expovariate(rate)
        life = min(max(rng.expovariate(1.0 / mean_lifetime_s), 1e-9), horizon)
        ingress = rng.randrange(n)
        egress = rng.randrange(n)
        chain = [rng.choice(first_choices)]
        for _ in range(chain_len - 1):
            chain.append(rng.choice(partners[chain[-1]]))
        requests.append(SfcRequest(sfc_id=sfc_id, start_time=t, end_time=t + life,
                                   ingress=ingress, egress=egress,
                                   vnf_chain=tuple(chain), qos_max_latency=qos_ms))
    return requests


# --- scenario bundles ---------------------------------------------------------

@dataclass
class Scenario:
    """A fully materialized, validated simulation input bundle."""

    topo: SubstrateTopology
    requests: list[SfcRequest]
    catalog: VnfCatalog
    solver_name: str
    seed: int
    workload_generator: dict | None = None

    def regenerate_workload(self, sfc_count: int | None = None,
                            seed: int | None = None) -> list[SfcRequest]:
        """Re-draw the workload (sweeps/repeats), by default with the scenario's seed."""
        if self.workload_generator is None:
            raise ValidationError("workload is inline; cannot vary sfc_count or seed")
        cfg = dict(self.workload_generator)
        if sfc_count is not None:
            cfg["sfc_count"] = sfc_count
        seed = self.seed if seed is None else seed
        return _poisson_from_config(self.topo, self.catalog, cfg, seed)


@contextmanager
def _section(where: str, errors=INPUT_ERRORS):
    """Re-raise ``errors`` as a ValidationError naming ``where``; a located one passes."""
    try:
        yield
    except ValidationError:
        raise
    except errors as exc:
        raise ValidationError(f"{where}: {exc}") from None


_SAGIN_TYPES = {f.name: {int: as_integer, float: as_float, Fraction: as_fraction}[f.type]
                for f in fields(SaginParams)}
_SAGIN_DEFAULTS = {f.name: f.default for f in fields(SaginParams) if f.default is not MISSING}
_POISSON_TYPES = {"sfc_count": as_integer, "mean_lifetime_s": as_float,
                  "chain_len": as_integer, "qos_ms": as_float, "seed": as_integer}


def _generator(doc: dict, name: str, kind: str) -> tuple[dict, dict | None]:
    """The object ``doc[name]`` and its ``kind`` generator config, None without one."""
    with _section(name):
        section = as_object(doc[name])
    if "generator" not in section:
        return section, None
    with _section(f"{name}.generator"):
        gen = as_object(section["generator"])
        if kind not in gen:
            raise ValueError(f"only {kind!r} is supported")
    with _section(f"{name}.generator.{kind}"):
        return section, as_object(gen[kind])


def _params(cfg: dict, types: dict, defaults: dict, where: str) -> dict:
    """``defaults`` overlaid with the generator config ``cfg``, each field read
    by its ``types`` entry; an unknown or a missing field is named."""
    cfg = {**defaults, **cfg}
    for fault, keys in (("unknown", cfg.keys() - types.keys()),
                        ("missing", types.keys() - cfg.keys())):
        if keys:
            raise ValidationError(f"{where}: {fault} fields {sorted(keys)}")
    params = {}
    for key, convert in types.items():
        with _section(f"{where}.{key}"):
            params[key] = convert(cfg[key])
    return params


def _sagin_from_config(cfg: dict) -> SubstrateTopology:
    where = "substrate.generator.sagin"
    with _section(where):
        params = SaginParams(**_params(cfg, _SAGIN_TYPES, _SAGIN_DEFAULTS, where))
    with _section(where, InvalidParams):
        return generate_sagin(params)


def _poisson_from_config(topo, catalog, cfg: dict, seed: int = 0) -> list[SfcRequest]:
    params = _params(cfg, _POISSON_TYPES, {"seed": seed}, "workload.generator.poisson")
    with _section("workload.generator.poisson", InvalidParams):
        return generate_poisson_workload(topo, catalog, **params)


def scenario_from_json(doc: dict) -> Scenario:
    """Build and validate a scenario from its parsed JSON document."""
    with _section("scenario"):
        as_object(doc)
    for key in ("substrate", "workload", "catalog", "solver"):
        if key not in doc:
            raise ValidationError(f"scenario: missing top-level field {key!r}")
    with _section("seed"):
        seed = as_integer(doc.get("seed", 0))
    with _section("catalog"):
        catalog = catalog_from_json(as_object(doc["catalog"]))

    sub, substrate_generator = _generator(doc, "substrate", "sagin")
    if substrate_generator is not None:
        topo = _sagin_from_config(substrate_generator)
    else:
        with _section("substrate"):
            topo = topology_from_json(sub)

    wl, workload_generator = _generator(doc, "workload", "poisson")
    if workload_generator is not None:
        requests = _poisson_from_config(topo, catalog, workload_generator, seed)
    else:
        with _section("workload.sfcs"):
            requests = requests_from_json(wl["sfcs"])

    solver_name = doc["solver"]
    if not isinstance(solver_name, str):
        raise ValidationError(f"solver: expected a solver name, got {solver_name!r}")
    if solver_name not in SOLVERS:
        raise ValidationError(
            f"solver: UnknownSolver {solver_name!r}; available: {sorted(SOLVERS)}")

    report = validate_workload(requests, catalog, topo)
    if not report.ok:
        first = report.issues[0]
        raise ValidationError(
            f"workload: sfc {first.sfc_id}: {first.reason} ({first.detail})"
            + (f"; {len(report.issues) - 1} more issue(s)" if len(report.issues) > 1 else ""))

    return Scenario(topo=topo, requests=requests, catalog=catalog,
                    solver_name=solver_name, seed=seed,
                    workload_generator=workload_generator)


def load_scenario(path) -> Scenario:
    """Load a scenario bundle from a JSON file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, too deep, too long an int
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    return scenario_from_json(doc)
