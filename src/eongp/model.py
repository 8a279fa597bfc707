"""Domain model: topology, traffic, modulation formats and physical constants.

All physics is computed in SI units (W, Hz, s, m) internally; the input files
and the constant tables use the customary engineering units (dB/km, fs^2/m,
GHz, Gb/s, km).  Conversion happens exactly once, when `PhysicsConstants` is
built, so that no factor of 1e9 can sneak in downstream.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import numbers
import sys
from dataclasses import dataclass, field, fields

import numpy as np

PLANCK_H = 6.62607015e-34  # J s, exact in the SI since 2019


class InstanceError(Exception):
    """Raised when an input file or a constructed instance is inconsistent."""


# --------------------------------------------------------------------------
# topology
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Link:
    """One directed fiber link, identified by its position in the topology."""
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
        for l, link in enumerate(self.links):
            if link.begin not in known or link.end not in known:
                raise InstanceError(f"link {l} references unknown node")
            if link.begin == link.end:
                raise InstanceError(f"link {l} is a self-loop")
            if not 0 < link.length_km < math.inf:
                raise InstanceError(f"link {l} has nonpositive or "
                                    f"non-finite length {link.length_km}")


def span_count(length_km: float, span_km: float) -> int:
    """Number of amplified spans covering a link (full-length coverage)."""
    return max(1, math.ceil(length_km / span_km - 1e-12))


# --------------------------------------------------------------------------
# traffic
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TrafficDemand:
    """Traffic between two nodes; a transponder-sized one is a request, and
    its position in the request tuple is its id."""
    source: str
    dest: str
    rate_bps: float

    def __post_init__(self):
        if self.source == self.dest:
            raise InstanceError("demand source equals destination")
        if not 0 < self.rate_bps < math.inf:
            raise InstanceError(f"demand {self.source}->{self.dest} rate must "
                                f"be positive and finite, got {self.rate_bps}")


# The most requests a partition builds: the largest run measured, 268
# requests, has 3369 variables (10 s, 210 MB), and the pair variables grow
# with the square of the request count.
MAX_REQUESTS = 10_000


def partition_traffic(demands, capacity_bps: float, num_requests=None,
                      seed: int = 0) -> tuple[TrafficDemand, ...]:
    """Split demands into transponder-sized requests, ids 0..n-1 by position.

    A demand of volume R becomes ceil(R/C) requests with the same endpoints:
    floor(R/C) full-capacity ones plus, if R is not a multiple of C, one
    carrying the remainder.  The parts always sum to R.  A `num_requests`
    below the total draws that many, reproducibly from `seed`: the requests
    are counted first and only the drawn ones are built.  A total beyond
    int64, or more than `MAX_REQUESTS` to build, is refused.
    """
    if not capacity_bps > 0:
        raise InstanceError("transponder capacity must be positive")
    splits = [divmod(d.rate_bps, capacity_bps) for d in demands]
    full = [int(min(n_full, 2.0 ** 63)) for n_full, _ in splits]
    # a remainder of float dust from the division carries nothing
    starts = list(itertools.accumulate(
        (n + (rest > 1e-6) for n, (_, rest) in zip(full, splits)), initial=0))
    total = starts[-1]
    if total >= 2 ** 63:
        raise InstanceError(f"demands split into more requests than int64 "
                            f"holds at capacity {capacity_bps!r} b/s")
    size = total if num_requests is None else min(num_requests, total)
    if size > MAX_REQUESTS:
        raise InstanceError(f"{size} requests exceed the {MAX_REQUESTS} "
                            "that one run can take")
    picked = range(total)
    if size < total:
        rng = np.random.default_rng(seed)
        picked = sorted(rng.choice(total, size=size, replace=False))
    requests = []
    for j in picked:
        d = bisect.bisect_right(starts, j) - 1
        rate = capacity_bps if j - starts[d] < full[d] else splits[d][1]
        requests.append(TrafficDemand(demands[d].source, demands[d].dest,
                                      rate))
    return tuple(requests)


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
    """Fiber, amplifier and transponder constants (engineering units).

    Building one also derives the SI values the noise model reads, each
    checked finite and positive; they are attributes, not fields:

    kerr       scales both nonlinear interference integrals,
               3*gamma^2 / (2*alpha*pi*|beta2|)            [1/(W^2 s^2)]
    sci_shape  argument scale of the self-interference asinh,
               pi^2*|beta2| / (2*alpha)                    [s^2]
    ase        amplifier noise density added per span,
               (e^(alpha*L) - 1) * h * nu * n_sp           [W/Hz]
    guard_hz, band_hz   the guard band and the usable band  [Hz]
    """
    dispersion_fs2_m: float = 20393.0     # |beta2|
    attenuation_db_km: float = 0.22
    span_km: float = 80.0
    light_freq_thz: float = 193.55
    emission_factor: float = 1.58         # n_sp of the amplifiers
    nonlinear_per_w_km: float = 1.3       # Kerr nonlinear coefficient
    guard_ghz: float = 20.0
    band_thz: float = 2.0
    capacity_gbps: float = 100.0

    def __post_init__(self):
        for f in fields(self):
            _number(getattr(self, f.name), f"constant {f.name}", 0, True)
        alpha = self.attenuation_db_km * math.log(10.0) / 10.0 / 1e3  # Np/m
        beta2 = self.dispersion_fs2_m * 1e-30                          # s^2/m
        gamma = self.nonlinear_per_w_km / 1e3                          # 1/(W m)
        for name, derive in (
                ("kerr", lambda: 3.0 * gamma ** 2
                 / (2.0 * alpha * math.pi * beta2)),
                ("sci_shape", lambda: math.pi ** 2 * beta2 / (2.0 * alpha)),
                ("ase", lambda: (math.exp(alpha * self.span_km * 1e3) - 1.0)
                 * PLANCK_H * (self.light_freq_thz * 1e12)
                 * self.emission_factor),
                ("guard_hz", lambda: self.guard_ghz * 1e9),
                ("band_hz", lambda: self.band_thz * 1e12)):
            try:
                value = derive()
            except ArithmeticError as exc:
                raise InstanceError(f"constant {name} is beyond float range: "
                                    f"{exc}") from None
            if not 0 < value < math.inf:
                raise InstanceError(f"constant {name} must be finite and "
                                    f"positive, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def capacity_bps(self) -> float:
        return self.capacity_gbps * 1e9


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

    def __post_init__(self):
        if self.rto_method not in RTO_METHODS:
            raise InstanceError(f"unknown rto_method {self.rto_method!r}")
        integers = ("formulation",)
        if self.num_requests is not None:
            integers += ("num_requests",)
        # fields, least value, strictly above it, integer
        for names, least, strict, integer in (
                (("weight_spectrum", "weight_power", "weight_margin",
                  "weight_spacing"), 0, False, False),
                (("min_margin",), 1, False, False),
                (("traffic_scale_gbps",), 0, True, False),
                (integers, 1, False, True), (("seed",), 0, False, True)):
            for name in names:
                object.__setattr__(self, name, _number(
                    getattr(self, name), name, least, strict, integer))
        if self.formulation > 6:
            raise InstanceError("formulation must be 1..6")


def _number(value, what: str, least: float, strict: bool = False,
            integer: bool = False):
    """`value` checked as a real in float range, not a bool, of at least `least`
    (above it if `strict`); an `integer` is returned as an int, 10.0 as 10."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not abs(value) <= sys.float_info.max \
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


# --------------------------------------------------------------------------
# file I/O
# --------------------------------------------------------------------------

def load_topology(path) -> NetworkTopology:
    """Read a topology file.

    Format: one record per line, '#' starts a comment.
      node <id>
      link <begin> <end> <length_km> [oneway]
    A link record creates both directions unless marked oneway; a fifth
    token other than `oneway` makes a bad record.
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
            oneway = parts[-1].lower() == "oneway"
            try:
                if kind == "node" and len(parts) == 2:
                    nodes.append(parts[1])
                elif kind == "link" and len(parts) == 4 + oneway:
                    length = float(parts[3])
                    links.append(Link(parts[1], parts[2], length))
                    if not oneway:
                        links.append(Link(parts[2], parts[1], length))
                else:
                    raise ValueError
            except ValueError:
                raise InstanceError(f"{path}:{lineno}: bad record {line!r}") from None
    return NetworkTopology(tuple(nodes), tuple(links))


def load_traffic(path) -> np.ndarray:
    """Read a dense traffic matrix (row = source node, in file order)."""
    try:
        matrix = np.loadtxt(path, ndmin=2)
    except ValueError as exc:
        raise InstanceError(f"{path}: not a numeric matrix: {exc}") from None
    if matrix.shape[0] != matrix.shape[1]:
        raise InstanceError(f"{path}: traffic matrix must be square, "
                            f"got {matrix.shape}")
    if not (np.isfinite(matrix) & (matrix >= 0)).all():
        raise InstanceError(f"{path}: traffic entries must be finite and "
                            "nonnegative")
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
    for i, row in enumerate(matrix.tolist()):
        for j, units in enumerate(row):
            if i != j and units > 0:
                demands.append(TrafficDemand(topology.nodes[i], topology.nodes[j],
                                             units * scale_gbps * 1e9))
    return tuple(demands)


def _build_section(cls, mapping, what: str):
    if not isinstance(mapping, dict):
        raise InstanceError(f"bad {what} section: not an object")
    known = {f.name for f in fields(cls)}
    unknown = set(mapping) - known
    if unknown:
        raise InstanceError(f"unknown {what} keys: {sorted(unknown)}")
    try:
        return cls(**mapping)
    except TypeError as exc:
        raise InstanceError(f"bad {what} section: {exc}") from None


def load_config(path=None) -> tuple[PhysicsConstants, ScenarioConfig,
                                    ModulationTable]:
    """Read a config file as a (physics, scenario, modulations) triple.

    The file is JSON with optional physics/scenario/modulations sections;
    whatever it leaves out keeps its built-in value, so no file at all
    gives the built-in triple.
    """
    raw = {}
    if path is not None:
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
    phys = _build_section(PhysicsConstants, raw.get("physics", {}), "physics")
    scen = _build_section(ScenarioConfig, raw.get("scenario", {}), "scenario")
    table = ModulationTable()
    if "modulations" in raw:
        try:
            table = ModulationTable(tuple(raw["modulations"]))
        except (TypeError, ValueError):
            raise InstanceError(f"{path}: modulations must be a list of "
                                "[efficiency, osnr] pairs") from None
    return phys, scen, table


def load_instance(topology_file, traffic_file, config=None
                  ) -> NetworkInstance:
    """Assemble a network instance from its input files.

    `config` is a (physics, scenario, modulations) triple such as
    `load_config` returns; it defaults to the built-in values.
    """
    phys, scen, table = load_config() if config is None else config
    topology = load_topology(topology_file)
    demands = demands_from_matrix(load_traffic(traffic_file), topology,
                                  scen.traffic_scale_gbps)
    return NetworkInstance(topology=topology, demands=demands, physics=phys,
                           scenario=scen, modulations=table)
