"""Domain model: topology, traffic, modulation formats and physical constants.

All physics is computed in SI units (W, Hz, s, m) internally; the input files
and the constant tables use the customary engineering units (dB/km, fs^2/m,
GHz, Gb/s, km).  Conversion happens exactly once, at construction of the
derived coefficients, so that no factor of 1e9 can sneak in downstream.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

PLANCK_H = 6.62607015e-34  # J s, exact in the SI since 2019


class InstanceError(Exception):
    """Raised when an input file or a constructed instance is inconsistent."""


# --------------------------------------------------------------------------
# topology
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Link:
    """One directed fiber link."""
    id: int
    begin: str
    end: str
    length_km: float


@dataclass(frozen=True)
class NetworkTopology:
    nodes: tuple[str, ...]
    links: tuple[Link, ...]

    def __post_init__(self):
        known = set(self.nodes)
        if len(known) != len(self.nodes):
            raise InstanceError("duplicate node ids")
        for link in self.links:
            if link.begin not in known or link.end not in known:
                raise InstanceError(f"link {link.id} references unknown node")
            if link.begin == link.end:
                raise InstanceError(f"link {link.id} is a self-loop")
            if not link.length_km > 0:
                raise InstanceError(f"link {link.id} has nonpositive length")


def span_count(length_km: float, span_km: float) -> int:
    """Number of amplified spans covering a link (full-length coverage)."""
    return max(1, math.ceil(length_km / span_km - 1e-12))


# --------------------------------------------------------------------------
# traffic
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TrafficDemand:
    source: str
    dest: str
    rate_bps: float

    def __post_init__(self):
        if self.source == self.dest:
            raise InstanceError("demand source equals destination")
        if not self.rate_bps > 0:
            raise InstanceError("demand rate must be positive")


@dataclass(frozen=True)
class ConnectionRequest:
    """A unit of traffic served by one transponder."""
    id: int
    source: str
    dest: str
    rate_bps: float

    def __post_init__(self):
        if self.source == self.dest or not self.rate_bps > 0:
            raise InstanceError(f"invalid request {self.id}")


def partition_traffic(demands, capacity_bps: float) -> tuple[ConnectionRequest, ...]:
    """Split demands into transponder-sized requests.

    A demand of volume R becomes ceil(R/C) requests with the same endpoints:
    floor(R/C) full-capacity ones plus, if R is not a multiple of C, one
    carrying the remainder.  The parts always sum to R.
    """
    if not capacity_bps > 0:
        raise InstanceError("transponder capacity must be positive")
    requests = []
    for demand in demands:
        n_full, rest = divmod(demand.rate_bps, capacity_bps)
        rates = [capacity_bps] * int(round(n_full))
        if rest > 1e-6:  # guard against float dust from the division
            rates.append(rest)
        for rate in rates:
            requests.append(ConnectionRequest(len(requests), demand.source,
                                              demand.dest, rate))
    return tuple(requests)


def select_requests(requests, num_requests, seed: int) -> tuple[ConnectionRequest, ...]:
    """Draw a reproducible subset of requests and renumber them 0..n-1."""
    if num_requests is None or num_requests >= len(requests):
        return tuple(replace(r, id=i) for i, r in enumerate(requests))
    rng = np.random.default_rng(seed)
    picked = sorted(rng.choice(len(requests), size=num_requests, replace=False))
    return tuple(replace(requests[j], id=i) for i, j in enumerate(picked))


# --------------------------------------------------------------------------
# modulation formats
# --------------------------------------------------------------------------

# (spectral efficiency bit/s/Hz, minimum required OSNR as a linear ratio)
DEFAULT_MODULATIONS = ((2.0, 3.52), (4.0, 7.03), (6.0, 17.59),
                       (8.0, 32.60), (10.0, 64.91), (12.0, 127.51))


@dataclass(frozen=True)
class ModulationTable:
    entries: tuple[tuple[float, float], ...] = DEFAULT_MODULATIONS

    def __post_init__(self):
        if not self.entries:
            raise InstanceError("modulation table is empty")
        object.__setattr__(self, "entries", tuple(
            (float(_number(c, "modulation efficiency", 0, strict=True)),
             float(_number(o, "modulation OSNR", 0, strict=True)))
            for c, o in self.entries))
        effs = [e for e, _ in self.entries]
        osnrs = [o for _, o in self.entries]
        if any(b <= a for a, b in zip(effs, effs[1:])) or \
           any(b <= a for a, b in zip(osnrs, osnrs[1:])):
            raise InstanceError("modulation table must be strictly increasing")

    @property
    def efficiencies(self) -> tuple[float, ...]:
        return tuple(e for e, _ in self.entries)

    def required_osnr(self, eff: float) -> float:
        """The one table-entry test: the OSNR of the entry within 1e-9."""
        for e, o in self.entries:
            if math.isclose(e, eff, rel_tol=0, abs_tol=1e-9):
                return o
        raise InstanceError(f"spectral efficiency {eff} is not a table entry")


# --------------------------------------------------------------------------
# constants
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PhysicsConstants:
    """Fiber, amplifier and transponder constants (engineering units)."""
    dispersion_fs2_m: float = 20393.0     # |beta2|
    attenuation_db_km: float = 0.22
    span_km: float = 80.0
    light_freq_thz: float = 193.55
    emission_factor: float = 1.58         # n_sp of the amplifiers
    nonlinear_per_w_km: float = 1.3       # Kerr nonlinear coefficient
    guard_ghz: float = 20.0
    band_thz: float = 2.0
    capacity_gbps: float = 100.0
    round_step: float = 0.1               # precision used when fixing efficiencies

    def __post_init__(self):
        for f in fields(self):
            # rounding widths are rounded to 1e-12, which a finer step
            # cannot resolve
            least, strict = (1e-12, False) if f.name == "round_step" \
                else (0, True)
            _number(getattr(self, f.name), f"constant {f.name}", least, strict)

    # SI views -------------------------------------------------------------
    @property
    def attenuation_per_m(self) -> float:
        """Power attenuation in nepers per metre."""
        return self.attenuation_db_km * math.log(10.0) / 10.0 / 1e3

    @property
    def dispersion_s2_m(self) -> float:
        return self.dispersion_fs2_m * 1e-30

    @property
    def nonlinear_per_w_m(self) -> float:
        return self.nonlinear_per_w_km / 1e3

    @property
    def light_freq_hz(self) -> float:
        return self.light_freq_thz * 1e12

    @property
    def guard_hz(self) -> float:
        return self.guard_ghz * 1e9

    @property
    def band_hz(self) -> float:
        return self.band_thz * 1e12

    @property
    def capacity_bps(self) -> float:
        return self.capacity_gbps * 1e9


@dataclass(frozen=True)
class DerivedConstants:
    """Coefficients of the noise model, in SI.

    kerr       scales both nonlinear interference integrals,
               3*gamma^2 / (2*alpha*pi*|beta2|)            [1/(W^2 s^2)]
    sci_shape  argument scale of the self-interference asinh,
               pi^2*|beta2| / (2*alpha)                    [s^2]
    ase        amplifier noise density added per span,
               (e^(alpha*L) - 1) * h * nu * n_sp           [W/Hz]
    """
    kerr: float
    sci_shape: float
    ase: float


def derived_constants(phys: PhysicsConstants) -> DerivedConstants:
    alpha = phys.attenuation_per_m
    beta2 = phys.dispersion_s2_m
    gamma = phys.nonlinear_per_w_m
    kerr = 3.0 * gamma ** 2 / (2.0 * alpha * math.pi * beta2)
    sci_shape = math.pi ** 2 * beta2 / (2.0 * alpha)
    ase = (math.exp(alpha * phys.span_km * 1e3) - 1.0) * \
        PLANCK_H * phys.light_freq_hz * phys.emission_factor
    return DerivedConstants(kerr=kerr, sci_shape=sci_shape, ase=ase)


RTO_METHODS = ("spr", "scpr", "scprr")


@dataclass(frozen=True)
class ScenarioConfig:
    """Run configuration: goal weights, margin, stage selections, seeds."""
    weight_spectrum: float = 1e-12   # per Hz of occupied-band upper edge
    weight_power: float = 1e3        # per W of transmit power
    weight_margin: float = 0.1       # times sum of inverse OSNR margins
    weight_spacing: float = 1e9      # Hz, times sum of inverse channel spacings
    min_margin: float = 1.0
    rto_method: str = "spr"
    formulation: int = 1
    traffic_scale_gbps: float = 10.0  # Gb/s carried by one traffic-matrix unit
    num_requests: int | None = None   # subset size; None keeps everything
    seed: int = 0
    clamp_efficiency: bool = True     # keep relaxed efficiencies inside the table span
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iterations: int = 200

    def __post_init__(self):
        if self.rto_method not in RTO_METHODS:
            raise InstanceError(f"unknown rto_method {self.rto_method!r}")
        if not isinstance(self.clamp_efficiency, bool):
            raise InstanceError("clamp_efficiency must be true or false")
        integers = ("formulation", "max_iterations")
        if self.num_requests is not None:
            integers += ("num_requests",)
        # fields, least value, strictly above it, integer
        for names, least, strict, integer in (
                (("weight_spectrum", "weight_power", "weight_margin",
                  "weight_spacing"), 0, False, False),
                (("min_margin",), 1, False, False),
                (("traffic_scale_gbps", "gap_tol", "feas_tol"), 0, True, False),
                (integers, 1, False, True), (("seed",), 0, False, True)):
            for name in names:
                object.__setattr__(self, name, _number(
                    getattr(self, name), name, least, strict, integer))
        if self.formulation > 6:
            raise InstanceError("formulation must be 1..6")


def _number(value, what: str, least: float, strict: bool = False,
            integer: bool = False):
    """`value` checked as a finite real, not a bool, of at least `least`
    (above it if `strict`); an `integer` is returned as an int, 10.0 as 10."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value) \
            or not (value > least if strict else value >= least) \
            or (integer and value != int(value)):
        kind = "an integer" if integer else "a finite number"
        bound = "above" if strict else "of at least"
        raise InstanceError(f"{what} must be {kind} {bound} {least:g}, "
                            f"got {value!r}")
    return int(value) if integer else value


@dataclass(frozen=True)
class NetworkInstance:
    topology: NetworkTopology
    demands: tuple[TrafficDemand, ...]
    physics: PhysicsConstants = field(default_factory=PhysicsConstants)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    modulations: ModulationTable = field(default_factory=ModulationTable)

    @property
    def derived(self) -> DerivedConstants:
        return derived_constants(self.physics)


# --------------------------------------------------------------------------
# file I/O
# --------------------------------------------------------------------------

def load_topology(path) -> NetworkTopology:
    """Read a topology file.

    Format: one record per line, '#' starts a comment.
      node <id>
      link <begin> <end> <length_km> [oneway]
    A link record creates both directions unless marked oneway.
    """
    nodes: list[str] = []
    links: list[Link] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            kind = parts[0].lower()
            try:
                if kind == "node" and len(parts) == 2:
                    nodes.append(parts[1])
                elif kind == "link" and len(parts) in (4, 5):
                    length = float(parts[3])
                    oneway = len(parts) == 5 and parts[4].lower() == "oneway"
                    links.append(Link(len(links), parts[1], parts[2], length))
                    if not oneway:
                        links.append(Link(len(links), parts[2], parts[1], length))
                else:
                    raise ValueError
            except ValueError:
                raise InstanceError(f"{path}:{lineno}: bad record {line!r}") from None
    return NetworkTopology(tuple(nodes), tuple(links))


def save_topology(topology: NetworkTopology, path) -> None:
    """Write a topology in canonical form (symmetric pairs collapsed)."""
    done = set()
    with open(path, "w") as fh:
        for node in topology.nodes:
            fh.write(f"node {node}\n")
        by_pair = {(l.begin, l.end): l for l in topology.links}
        for link in topology.links:
            key = (link.begin, link.end)
            if key in done:
                continue
            rev = by_pair.get((link.end, link.begin))
            if rev is not None and rev.length_km == link.length_km:
                done.add(key)
                done.add((link.end, link.begin))
                fh.write(f"link {link.begin} {link.end} {link.length_km:g}\n")
            else:
                done.add(key)
                fh.write(f"link {link.begin} {link.end} {link.length_km:g} oneway\n")


def load_traffic(path) -> np.ndarray:
    """Read a dense traffic matrix (row = source node, in file order)."""
    try:
        matrix = np.loadtxt(path, ndmin=2)
    except ValueError as exc:
        raise InstanceError(f"{path}: not a numeric matrix: {exc}") from None
    if matrix.shape[0] != matrix.shape[1]:
        raise InstanceError(f"{path}: traffic matrix must be square, "
                            f"got {matrix.shape}")
    if (matrix < 0).any():
        raise InstanceError(f"{path}: traffic entries must be nonnegative")
    return matrix


def save_traffic(matrix: np.ndarray, path) -> None:
    np.savetxt(path, matrix, fmt="%g")


def demands_from_matrix(matrix: np.ndarray, topology: NetworkTopology,
                        scale_gbps: float) -> tuple[TrafficDemand, ...]:
    n = matrix.shape[0]
    if n != len(topology.nodes):
        raise InstanceError(f"traffic matrix is {n}x{n} but topology has "
                            f"{len(topology.nodes)} nodes")
    if np.diagonal(matrix).any():
        raise InstanceError("traffic matrix has nonzero diagonal entries")
    demands = []
    for i in range(n):
        for j in range(n):
            if i != j and matrix[i, j] > 0:
                demands.append(TrafficDemand(topology.nodes[i], topology.nodes[j],
                                             matrix[i, j] * scale_gbps * 1e9))
    return tuple(demands)


def _merge_section(current, mapping, what: str):
    if not isinstance(mapping, dict):
        raise InstanceError(f"bad {what} section: not an object")
    known = {f.name for f in fields(current)}
    unknown = set(mapping) - known
    if unknown:
        raise InstanceError(f"unknown {what} keys: {sorted(unknown)}")
    try:
        return replace(current, **mapping)
    except TypeError as exc:
        raise InstanceError(f"bad {what} section: {exc}") from None


def load_config(path, base=None
                ) -> tuple[PhysicsConstants, ScenarioConfig, ModulationTable]:
    """Layer a config file onto `base`, a (physics, scenario, modulations)
    triple that defaults to the built-in values.

    The file is JSON with optional physics/scenario/modulations sections;
    whatever it leaves out keeps its `base` value.
    """
    if base is None:
        base = PhysicsConstants(), ScenarioConfig(), ModulationTable()
    phys, scen, table = base
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InstanceError(f"{path}: top level must be an object")
    extra = set(raw) - {"physics", "scenario", "modulations"}
    if extra:
        raise InstanceError(f"{path}: unknown sections {sorted(extra)}")
    phys = _merge_section(phys, raw.get("physics", {}), "physics")
    scen = _merge_section(scen, raw.get("scenario", {}), "scenario")
    if "modulations" in raw:
        try:
            table = ModulationTable(tuple(raw["modulations"]))
        except (TypeError, ValueError):
            raise InstanceError(f"{path}: modulations must be a list of "
                                "[efficiency, osnr] pairs") from None
    return phys, scen, table


def save_config(phys: PhysicsConstants, scen: ScenarioConfig, path) -> None:
    payload = {
        "physics": {f.name: getattr(phys, f.name) for f in fields(phys)},
        "scenario": {f.name: getattr(scen, f.name) for f in fields(scen)},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(topology_file, traffic_file, config=None
                  ) -> NetworkInstance:
    """Assemble a network instance from its input files.

    `config` is a (physics, scenario, modulations) triple such as
    `load_config` returns; it defaults to the built-in values.
    """
    if config is None:
        config = PhysicsConstants(), ScenarioConfig(), ModulationTable()
    phys, scen, table = config
    topology = load_topology(topology_file)
    demands = demands_from_matrix(load_traffic(traffic_file), topology,
                                  scen.traffic_scale_gbps)
    return NetworkInstance(topology=topology, demands=demands, physics=phys,
                           scenario=scen, modulations=table)
