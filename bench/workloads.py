"""The benchmark's workloads: inputs drawn from the seed, the calls into
eongp, and the checks on what comes back.

Every workload runs on the bundled Cost239 mesh with the Table-2 traffic
and shortest-path routing.  The seed deals Table-2's transponder-sized
requests (up to 100 Gb/s) into subsets; the program receives only the
resulting traffic matrices.  A deal is kept only when each subset's
program has a stated size: the number of ordered request pairs whose
shortest paths share a link sets the variable count (4q + 1 + pairs for
formulation 1) and so the cost of a Newton step.  Across random
90-request deals it ranges from 773 to 967 variables, and the run time by
a factor of 1.6.  The deal is computed here from the input files alone,
so a change to the program cannot change the inputs.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import networkx as nx
import numpy as np

from eongp import cli, heuristic, model, psa, routing, validate

TOPOLOGY = Path("src/eongp/data/cost239_topology.txt")
TRAFFIC = Path("src/eongp/data/cost239_traffic.txt")
UNITS_PER_REQUEST = 10  # 100 Gb/s transponders, 10 Gb/s per matrix unit
MAX_DEALS = 100_000


def load_base() -> model.NetworkInstance:
    """The bundled instance under default physics and scenario."""
    return model.load_instance(TOPOLOGY, TRAFFIC)


class Table2:
    """Table-2 traffic split into requests, with their shortest paths."""

    def __init__(self, base: model.NetworkInstance):
        self.base = base
        self.matrix = model.load_traffic(TRAFFIC)
        self.units: list[float] = []
        self.cells: list[tuple[int, int]] = []
        graph = nx.DiGraph()
        for link in base.topology.links:
            graph.add_edge(link.begin, link.end, weight=link.length_km)
        nodes = base.topology.nodes
        self.edges: list[set] = []
        for (i, j), volume in np.ndenumerate(self.matrix):
            if volume <= 0:
                continue
            path = nx.dijkstra_path(graph, nodes[i], nodes[j])
            edges = set(zip(path, path[1:]))
            full, rest = divmod(float(volume), UNITS_PER_REQUEST)
            for units in [UNITS_PER_REQUEST] * int(full) + ([rest] if rest
                                                            else []):
                self.units.append(units)
                self.cells.append((i, j))
                self.edges.append(edges)
        n = len(self.units)
        self.shares = np.array([[a != b and bool(self.edges[a] & self.edges[b])
                                 for b in range(n)] for a in range(n)])

    def pairs(self, subset) -> int:
        """Ordered pairs of requests in `subset` whose paths share a link."""
        idx = np.asarray(subset)
        return int(self.shares[np.ix_(idx, idx)].sum())

    def full_rate(self) -> list[int]:
        return [r for r, u in enumerate(self.units) if u == UNITS_PER_REQUEST]

    def busiest(self, subset) -> int:
        """Requests in `subset` on the most used link."""
        return max(Counter(e for r in subset for e in self.edges[r]).values())

    def traffic(self, subset) -> np.ndarray:
        """Traffic matrix carrying exactly the requests in `subset`."""
        out = np.zeros_like(self.matrix)
        for r in subset:
            out[self.cells[r]] += self.units[r]
        return out

    def instance(self, subset) -> model.NetworkInstance:
        """The bundled instance with its traffic cut down to `subset`."""
        demands = model.demands_from_matrix(
            self.traffic(subset), self.base.topology,
            self.base.scenario.traffic_scale_gbps)
        return replace(self.base, demands=demands)

    def deal(self, rng, size, pairs, tol, parts=1, pool=None, busiest=None):
        """`parts` disjoint random subsets of `size` requests from `pool`,
        each within `tol` of `pairs` link-sharing pairs and, if `busiest`
        is given, with that many requests on its most used link."""
        pool = np.arange(len(self.units)) if pool is None else np.asarray(pool)
        for _ in range(MAX_DEALS):
            perm = rng.permutation(pool)
            subsets = [sorted(perm[k * size:(k + 1) * size].tolist())
                       for k in range(parts)]
            if all(abs(self.pairs(sub) - pairs) <= tol
                   and (busiest is None or self.busiest(sub) == busiest)
                   for sub in subsets):
                return subsets
        raise RuntimeError("no deal of the stated size found")


@dataclass
class Outcome:
    """What one operation produced: its objective and failed checks."""
    objective: float
    problems: list[str] = field(default_factory=list)


# Each workload builds its inputs from the seed and lists its operations:
# calls into eongp that the harness times and checks one by one.  A pass
# runs every operation once; several distinct instances per pass average
# out how hard any one draw happens to be.  `warmup` is the same call on a
# small instance, run once before timing starts.

WARMUP_REQUESTS = 8

class FullScale:
    """heuristic.run plus validate.validate on 90 requests, formulation 1,
    default weights: both halves of one deal of the 180 Table-2 requests.
    The two halves together carry all of Table 2, so the summed objective
    measures the same traffic on every seed."""

    REQUESTS = 90
    PAIRS = 500   # 861 variables per half
    TOL = 15

    def __init__(self, table: Table2, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        halves = table.deal(rng, self.REQUESTS, self.PAIRS, self.TOL, parts=2)
        self.operations = [functools.partial(self.allocate,
                                             table.instance(half))
                           for half in halves]
        self.warmup = functools.partial(
            self.allocate, table.instance(halves[0][:WARMUP_REQUESTS]))

    @staticmethod
    def allocate(inst: model.NetworkInstance) -> Outcome:
        routed, allocation, _ = heuristic.run(inst)
        report = validate.validate(allocation, routed, inst)
        out = Outcome(allocation.objective)
        if not report.admissible:
            out.problems.append(f"{len(report.violations)} violations")
        return out


class RelaxRound:
    """`eongp compare-gpsa` on five independent draws of 24 full-rate
    requests with weight_spectrum=1e-10, so every formulation takes three to
    nine rounding rounds.  Each draw also fixes the load of the busiest
    link, which sets the spectrum edge that dominates the objective at this
    weight."""

    INSTANCES = 5
    REQUESTS = 24
    PAIRS = 32
    TOL = 2
    BUSIEST = 4
    WEIGHT_SPECTRUM = 1e-10

    def __init__(self, table: Table2, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        workdir.mkdir(parents=True, exist_ok=True)
        config = workdir / "config.json"
        config.write_text(json.dumps(
            {"scenario": {"weight_spectrum": self.WEIGHT_SPECTRUM}}))
        parts = [table.deal(rng, self.REQUESTS, self.PAIRS, self.TOL,
                            pool=table.full_rate(), busiest=self.BUSIEST)[0]
                 for _ in range(self.INSTANCES)]
        self.operations = [self._call(table, part, workdir, config, str(k))
                           for k, part in enumerate(parts)]
        self.warmup = self._call(table, parts[0][:WARMUP_REQUESTS], workdir,
                                 config, "_warmup")

    def _call(self, table, part, workdir, config, tag):
        traffic = workdir / f"traffic{tag}.txt"
        model.save_traffic(table.traffic(part), traffic)
        argv = ["compare-gpsa", "--topology", str(TOPOLOGY),
                "--traffic", str(traffic), "--config", str(config),
                "--out", str(workdir / f"out{tag}")]
        return functools.partial(self.compare, argv)

    def compare(self, argv) -> Outcome:
        out_dir = Path(argv[-1])
        for stale in ("curves.csv", "validation.json"):
            (out_dir / stale).unlink(missing_ok=True)
        code = cli.main(argv)
        if code != 0:
            return Outcome(math.nan, [f"compare-gpsa exited {code}"])
        _, rows = cli.read_artifact_csv(out_dir / "curves.csv")
        runs = json.loads((out_dir / "validation.json").read_text())["runs"]
        out = Outcome(sum(float(row["objective"]) for row in rows))
        if len(rows) != len(psa.FORMULATION_FIT) or len(runs) != len(rows):
            out.problems.append(f"{len(rows)} curves.csv rows, "
                                f"{len(runs)} reports")
        for row, detail in zip(rows, runs):
            if not detail["report"]["admissible"]:
                out.problems.append(f"formulation {row['formulation']}: "
                                    "not admissible")
            if detail["rounding_rounds"] > self.REQUESTS:
                out.problems.append(f"formulation {row['formulation']}: "
                                    f"{detail['rounding_rounds']} rounds")
        return out


class Oracle:
    """validate.brute_force_psa on ten independent draws of two
    full-rate requests whose paths share a link: 6^2 = 36 small programs
    each.  The heuristic runs on the same routing; the oracle is a lower
    bound on its objective."""

    INSTANCES = 10
    REQUESTS = 2

    def __init__(self, table: Table2, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        pairs = self.REQUESTS * (self.REQUESTS - 1)
        self.operations = []
        for _ in range(self.INSTANCES):
            (part,) = table.deal(rng, self.REQUESTS, pairs, 0,
                                 pool=table.full_rate())
            self.operations.append(
                functools.partial(self.search, table.instance(part)))
        # an operation is already small: warm up on the first one
        self.warmup = self.operations[0]

    @staticmethod
    def search(inst: model.NetworkInstance) -> Outcome:
        requests = model.partition_traffic(inst.demands,
                                           inst.physics.capacity_bps)
        routed = routing.solve_routing(inst.topology, requests,
                                       inst.scenario.rto_method,
                                       span_km=inst.physics.span_km)
        best, _ = validate.brute_force_psa(routed, inst.physics,
                                           inst.scenario, inst.modulations)
        allocation, _ = heuristic.assign(routed, inst.physics, inst.scenario,
                                         inst.modulations)
        out = Outcome(best.objective)
        if not validate.validate(best, routed, inst).admissible:
            out.problems.append("oracle allocation not admissible")
        if best.objective > allocation.objective * (1 + 1e-6):
            out.problems.append(f"oracle {best.objective:.9g} above "
                                f"heuristic {allocation.objective:.9g}")
        return out


WORKLOADS = {"full_scale": FullScale, "relax_round": RelaxRound,
             "oracle": Oracle}
