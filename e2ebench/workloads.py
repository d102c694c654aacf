"""The benchmark's three closed-loop workloads.

Each workload is one client in one process: it sends its next op only after
the previous one returned.  Inputs come from a ``random.Random`` seeded with
the workload name and ``--seed``; the program sees only the generated
inputs.  Every workload

* draws its next pool input with :meth:`next_input` (never timed),
* builds its long-lived objects with :meth:`build` (part of set-up),
* starts each replay round of its pool with :meth:`start_round` and turns
  a pool input into fresh objects with :meth:`prepare` (neither timed),
* runs one op with :meth:`op` (timed; ``rec`` is a
  :class:`spans.SpanRecorder` on traced ops, else ``None``),
* checks that op with :meth:`check` (not timed) and returns an
  :class:`OpRecord`,
* runs its sampled, slower checks once with :meth:`final_checks` after the
  timed phase.

Why each workload exists, and which layers it stresses, is in README.md.
"""

from __future__ import annotations

import importlib
import json
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

#: Every ``repro`` module the benchmark calls or patches, by short name.
REPRO_MODULES = {
    "platform": "repro.simgrid.platform",
    "host": "repro.simgrid.host",
    "link": "repro.simgrid.link",
    "costs": "repro.core.costs",
    "solver": "repro.core.solver",
    "closed_form": "repro.core.closed_form",
    "heuristic": "repro.core.heuristic",
    "incremental": "repro.core.incremental",
    "app": "repro.tomo.app",
    "jsonl": "repro.serve.jsonl",
    "service": "repro.serve.service",
    "runtime": "repro.mpi.runtime",
    "chaos": "repro.analysis.chaos",
    "generators": "repro.workloads.generators",
    "table1": "repro.workloads.table1",
    "events": "repro.obs.events",
    "metrics": "repro.obs.metrics",
    "oracles": "repro.verify.oracles",
}


def import_repro() -> SimpleNamespace:
    return SimpleNamespace(
        **{short: importlib.import_module(full) for short, full in REPRO_MODULES.items()}
    )


@dataclass
class OpRecord:
    """What one op produced, as the run loop aggregates it."""

    ok: bool
    #: Makespan of the plan this op produced; None when it produced none
    #: (a served repeat returns an earlier plan).
    makespan: Optional[float]
    items_scattered: int
    items_computed: int
    #: Latency mode the op belongs to (see README.md, "Latency modes").
    mode: str = "op"
    #: Per-layer counts for this op (traced runs report their means).
    counts: Dict[str, float] = field(default_factory=dict)


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class _Workload:
    """Defaults shared by the workloads."""

    m: SimpleNamespace

    def start_round(self) -> None:
        """Forget what the previous round left in process-wide caches, so
        a replayed op does the same work as its first execution."""
        self.m.costs.get_default_cost_cache().clear()

    def prepare(self, item: Any) -> Any:
        return item


class GridPipeline(_Workload):
    """Platform file -> problem -> closed-form plan -> simulated app, p=64."""

    name = "grid-pipeline"
    hosts = 64
    n = 817_101
    #: Inputs replayed per round (the run measures about seven rounds).
    pool = 30
    #: Ops per tracing block (traced runs alternate untraced/traced blocks).
    block = 1
    stressed = (
        "simgrid.platform.from_dict",
        "simgrid.platform.to_problem",
        "core.rounding.round_paper",
        "core.closed_form.solve_rational",
        "tomo.app.run_seismic_app",
    )

    def __init__(self, m: SimpleNamespace, seed: int) -> None:
        self.m = m
        self.rng = random.Random(f"{self.name}:{seed}")

    def next_input(self) -> Tuple[dict, str]:
        """A platform file and its root, the best-connected host.

        A link costs the slower of its two hosts' access rates, so the
        root's own rate would otherwise set every link and swing the
        makespan ~2x between platforms; from the best-connected host the
        makespan varies far less (see README.md, "Noise").
        """
        plat = self.m.generators.random_star_platform(self.rng, self.hosts)
        names = plat.host_names

        def outgoing(host: str) -> float:
            return sum(float(plat.link_cost(host, v)(1)) for v in names if v != host)

        return plat.to_dict(), min(names, key=outgoing)

    def build(self) -> None:
        """No long-lived objects: every op starts from the platform file."""

    def op(self, item: Tuple[dict, str], rec: Any) -> Any:
        data, root = item
        m = self.m
        plat = m.platform.Platform.from_dict(data)
        problem = plat.to_problem(self.n, root, order="bandwidth-desc")
        plan = m.solver.plan_scatter(problem)
        hosts = [proc.name for proc in plan.problem.processors]
        log = m.events.EventLog() if rec is not None else None
        app = m.app.run_seismic_app(
            plat, hosts, plan.counts, observers=[log] if log is not None else None
        )
        return plan, app, log

    def check(self, item: Tuple[dict, str], out: Any) -> OpRecord:
        plan, app, log = out
        computed = sum(app.run.results)
        ok = (
            plan.algorithm == "closed-form"
            and sum(plan.counts) == self.n
            and _rel_close(app.makespan, plan.makespan, 1e-9)
        )
        counts = {"simgrid.engine.events": len(log)} if log is not None else {}
        return OpRecord(ok, app.makespan, self.n, computed, counts=counts)

    def final_checks(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


class ServeJsonl(_Workload):
    """One client feeding a sequential PlanService, a line at a time.

    Each round replays the same stream into a fresh service (and planner),
    so every round has the same hits and misses.  After a first table1
    line, the stream comes in blocks of ten lines, shuffled within the block:
    seven exact repeats of earlier lines (cache hits), one fresh
    ``platform: table1`` request (closed form, p=16) and two fresh explicit
    affine requests (LP heuristic, p in 16..24, n near 2e4, compute rates
    scaled to one aggregate speed).  Each block
    has the same mix, so p50 always lands in the hit mode and p90 in the
    LP mode.  LP sizes are drawn from shuffled cycles of 16..24, so every
    nine blocks solve each size exactly twice: LP time grows ~4x from
    p=16 to p=24, and a pool of any other size mix would move p90 and
    ops/s from seed to seed.
    """

    name = "serve-jsonl"
    #: Lines replayed per round: the first line and nine blocks.
    pool = 91
    block = 10
    mix = ("repeat",) * 7 + ("table1",) + ("lp",) * 2
    lp_sizes = tuple(range(16, 25))
    #: Aggregate compute speed (sum of 1/alpha, items per second) of every
    #: LP request: that of 20 processors at the mean alpha.  Without it the
    #: requests' Eq. 1 makespans spread ~20% (see README.md, "Noise").
    lp_speed = 20 / 5.5e-3
    #: Fresh lines whose plan is re-solved cold after the timed phase.
    cold_sample = 6
    stressed = (
        "serve.jsonl.parse_request",
        "core.ordering.apply_policy",
        "serve.fingerprint.problem_fingerprint",
        "core.incremental.plan",
    )

    def __init__(self, m: SimpleNamespace, seed: int) -> None:
        self.m = m
        self.rng = random.Random(f"{self.name}:{seed}")
        self.distinct: List[Tuple[str, int]] = []  # (line, n) of fresh lines
        self.table1_ns: set = set()
        self.pending: List[str] = []
        self.sizes: List[int] = []  # shuffled cycles of lp_sizes
        self.first_counts: Dict[int, List[int]] = {}
        self.sampled: Dict[int, float] = {}  # key -> served makespan
        self.service: Any = None
        self.closed_stats = (0, 0)  # cache (hits, misses) of closed services

    # -- input stream ------------------------------------------------------
    def next_input(self) -> Tuple[str, int, int]:
        """``(kind, key, n)``: key indexes :attr:`distinct`."""
        if not self.distinct:
            return self._fresh("table1")
        if not self.pending:
            self.pending = list(self.mix)
            self.rng.shuffle(self.pending)
        kind = self.pending.pop()
        if kind == "repeat":
            key = self.rng.randrange(len(self.distinct))
            return "repeat", key, self.distinct[key][1]
        return self._fresh(kind)

    def _fresh(self, kind: str) -> Tuple[str, int, int]:
        rng = self.rng
        key = len(self.distinct)
        if kind == "table1":
            n = rng.randint(100_000, 900_000)
            while n in self.table1_ns:
                n = rng.randint(100_000, 900_000)
            self.table1_ns.add(n)
            doc: Dict[str, Any] = {"id": f"r{key}", "n": n, "platform": "table1"}
        else:
            if not self.sizes:
                self.sizes = list(self.lp_sizes)
                rng.shuffle(self.sizes)
            p = self.sizes.pop()
            n = rng.randint(19_000, 21_000)
            procs = []
            for j in range(p):
                root = j == p - 1
                procs.append({
                    "name": f"w{j}",
                    "alpha": rng.uniform(1e-3, 1e-2),
                    "beta": 0.0 if root else rng.uniform(1e-5, 1e-4),
                    "comp_intercept": rng.uniform(1e-3, 5e-2),
                    "comm_intercept": 0.0 if root else rng.uniform(1e-4, 2e-2),
                })
            scale = sum(1 / proc["alpha"] for proc in procs) / self.lp_speed
            for proc in procs:
                proc["alpha"] *= scale
            doc = {"id": f"r{key}", "n": n, "processors": procs}
        self.distinct.append((json.dumps(doc), n))
        return kind, key, n

    # -- ops ---------------------------------------------------------------
    def build(self) -> None:
        self.planner = self.m.incremental.IncrementalPlanner()
        self.service = self.m.service.PlanService(planner=self.planner)

    def start_round(self) -> None:
        super().start_round()
        self.close()
        self.build()

    def op(self, item: Tuple[str, int, int], rec: Any) -> Dict[str, Any]:
        line = self.distinct[item[1]][0]
        # The service reads ``planner`` on every dispatch: traced ops go
        # through a timed view of the same planner.
        self.service.planner = (
            _TimedPlanner(self.planner, rec) if rec is not None else self.planner
        )
        (response,) = self.m.jsonl.serve_jsonl([line], self.service, window=1)
        return response

    def check(self, item: Tuple[str, int, int], resp: Dict[str, Any]) -> OpRecord:
        kind, key, n = item
        if not resp.get("ok"):
            return OpRecord(False, None, n, 0, mode="error")
        counts = resp["counts"]
        ok = sum(counts) == n and resp["cached"] == (kind == "repeat")
        if kind == "repeat":
            ok = ok and counts == self.first_counts.get(key)
            mode = "hit"
        else:
            # A replayed fresh line must be planned as in its first round.
            ok = ok and self.first_counts.setdefault(key, counts) == counts
            mode = kind
            if key % 4 == 1 and len(self.sampled) < self.cold_sample:
                self.sampled.setdefault(key, resp["makespan"])
        makespan = None if kind == "repeat" else resp["makespan"]
        return OpRecord(ok, makespan, n, sum(counts), mode=mode)

    def final_checks(self) -> List[str]:
        """Sampled misses must match a cold ``plan_scatter`` exactly."""
        errors = []
        for key, makespan in sorted(self.sampled.items()):
            _, problem = self.m.jsonl.parse_request(self.distinct[key][0])
            cold = self.m.solver.plan_scatter(problem)
            if cold.makespan != makespan:
                errors.append(
                    f"served makespan {makespan!r} != cold {cold.makespan!r}"
                )
        return errors

    def hit_stats(self) -> Tuple[int, int]:
        """Cache ``(hits, misses)`` summed over every service so far."""
        hits, misses = self.closed_stats
        if self.service is None:
            return hits, misses
        cache = self.service.stats()["cache"]
        return hits + cache["hits"], misses + cache["misses"]

    def close(self) -> None:
        if self.service is not None:
            self.closed_stats = self.hit_stats()
            self.service.close()
            self.service = None


class _TimedPlanner:
    """The service's ``planner=`` hook with a span around each solve."""

    def __init__(self, planner: Any, rec: Any) -> None:
        self.plan = rec.wrap(planner.plan, "core.incremental.plan")
        self.invalidate_cost = planner.invalidate_cost


class FtKnee(_Workload):
    """Fault-tolerant scatter on 8 hosts with piecewise-linear (knee) costs.

    One op: a fresh IncrementalPlanner plans the healthy platform (a cold
    dp-fast solve), a healthy run fixes the receive timeout, then the chaos
    program runs under the nested kill sets of rates 0.25 and 0.5 and the
    survivors re-plan warm through the same planner.
    """

    name = "ft-knee"
    hosts = 8
    n = 5_000
    rates = (0.25, 0.5)
    retries = 2
    #: ``chaos_sweep``'s fixed 0.05 s backoff outlasts the receivers'
    #: patience on these ~20 ms platforms (see README.md, "Known defect"),
    #: so the backoff is derived from the healthy makespan instead.
    backoff_share = 1 / 64
    #: Ops whose survivor re-plans are checked against cold solves.
    oracle_ops = (0, 1)
    #: Platforms replayed per round (the run measures about six rounds).
    pool = 24
    block = 1
    stressed = (
        "core.dp_fast.solve",
        "core.incremental.replan",
        "mpi.runtime.run_spmd",
    )

    def __init__(self, m: SimpleNamespace, seed: int) -> None:
        self.m = m
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops = 0
        self.replans: List[Tuple[Any, Any]] = []  # (problem, result)

    def _knee(self, rng: random.Random, lo: float, hi: float) -> Any:
        n = self.n
        x1 = rng.randint(n // 10, n // 2)
        r1, r2 = rng.uniform(lo, hi), rng.uniform(lo, hi)
        return self.m.costs.PiecewiseLinearCost(
            [(0, 0), (x1, r1 * x1), (n, r1 * x1 + r2 * (n - x1))]
        )

    def next_input(self) -> int:
        """The seed of one platform and its kill sets."""
        return self.rng.randrange(2**31)

    def prepare(self, item: int) -> Tuple[Any, List[str], int]:
        """A fresh platform for every execution, so a replay finds no state
        an earlier execution left on the cost objects."""
        m = self.m
        rng = random.Random(item)
        plat = m.platform.Platform("knee-star")
        names = [f"k{i}" for i in range(self.hosts)]
        # Compute dominates transfer by ~20x, so every worker gets items
        # and chaos_plan's horizon (the serialized send time) is positive.
        for name in names:
            plat.add_host(m.host.Host(name, self._knee(rng, 1e-5, 4e-5)))
        for name in names[:-1]:
            plat.connect(names[-1], name, m.link.Link(self._knee(rng, 2e-7, 2e-6)))
        return plat, names, rng.randrange(2**31)

    def build(self) -> None:
        """No long-lived objects: each op starts a fresh planner."""

    def op(self, item: Tuple[Any, List[str], int], rec: Any) -> Any:
        plat, hosts, kill_seed = item
        m = self.m
        root_rank = len(hosts) - 1
        planner = m.incremental.IncrementalPlanner()
        plan_fn = planner.plan if rec is None else rec.wrap(
            planner.plan, "core.incremental.plan"
        )
        replan: Any = planner if rec is None else rec.wrap(
            planner, "core.incremental.replan"
        )
        if self.ops in self.oracle_ops:
            replan = _Recording(replan, self.replans)
        self.ops += 1
        log = m.events.EventLog() if rec is not None else None
        observers = [log] if log is not None else None
        rows0 = self._row_counters()
        plan = plan_fn(plat.to_problem(self.n, hosts[-1], order=hosts[:-1]))
        counts = list(plan.counts)
        data = range(self.n)
        healthy = m.runtime.run_spmd(
            plat, hosts, m.chaos.chaos_program, data, counts, root_rank,
            None, self.retries, 1.0, replan, observers=observers,
        )
        timeout = healthy.duration
        backoff = timeout * self.backoff_share
        # Every crash lands inside the first transfer (chaos_plan staggers
        # them over the first half of the horizon), so each death is found
        # while its chunk is still being delivered (see README.md, "Late
        # deaths lose items").
        horizon = 2 * float(plat.link_cost(hosts[-1], hosts[0])(counts[0]))
        runs = [
            m.runtime.run_spmd(
                plat, hosts, m.chaos.chaos_program, data, counts, root_rank,
                timeout, self.retries, backoff, replan,
                faults=m.chaos.chaos_plan(hosts, rate, seed=kill_seed, horizon=horizon),
                observers=observers,
            )
            for rate in self.rates
        ]
        return plan, planner, healthy, runs, log, rows0

    def _row_counters(self) -> Tuple[int, int]:
        metrics = self.m.metrics.METRICS
        return (
            metrics.counter("core.incremental.warm_rows").value,
            metrics.counter("core.incremental.rows_computed").value,
        )

    def check(self, item: Any, out: Any) -> OpRecord:
        plan, planner, healthy, runs, log, rows0 = out
        rows1 = self._row_counters()
        root_rank = self.hosts - 1
        ok = min(plan.counts[:-1]) > 0
        scattered = computed = 0
        counts = {
            "core.costs.table_builds": planner.cache.stats()["misses"],
            "core.incremental.warm_rows": rows1[0] - rows0[0],
            "core.incremental.rows_computed": rows1[1] - rows0[1],
            "mpi.collectives.replans": 0,
            "mpi.collectives.retries": 0,
            "mpi.collectives.redistributed_items": 0,
        }
        if log is not None:
            counts["simgrid.engine.events"] = len(log)
        for run in [healthy, *runs]:
            outcome, done = run.results[root_rank]
            items = sum(v for v in done.values() if v)
            ok = ok and outcome.lost_items == 0 and items == self.n
            scattered += self.n
            computed += items
            counts["mpi.collectives.replans"] += outcome.replans
            counts["mpi.collectives.retries"] += outcome.retries
            counts["mpi.collectives.redistributed_items"] += outcome.redistributed_items
        return OpRecord(ok, healthy.duration, scattered, computed, counts=counts)

    def final_checks(self) -> List[str]:
        """Recorded survivor re-plans must equal cold solves of the same
        problems, and the problems must pass ``incremental-matches-cold``."""
        errors = []
        if not self.replans:
            errors.append("no survivor re-plan recorded on the oracle ops")
        for problem, warm in self.replans:
            cold = self.m.solver.plan_scatter(problem, order_policy=None)
            for attr in ("counts", "makespan", "makespan_exact", "algorithm"):
                if getattr(warm, attr) != getattr(cold, attr):
                    errors.append(
                        f"re-plan {attr} {getattr(warm, attr)!r} != "
                        f"cold {getattr(cold, attr)!r}"
                    )
            (report,) = self.m.oracles.run_oracles(
                problem, {}, only=["incremental-matches-cold"]
            )
            errors.extend(report.violations)
        return errors

    def close(self) -> None:
        pass


class _Recording:
    """A re-plan hook that keeps every problem it plans with its result."""

    def __init__(self, planner: Any, sink: List[Tuple[Any, Any]]) -> None:
        self.planner = planner
        self.sink = sink

    def __call__(self, problem: Any) -> Any:
        result = self.planner(problem)
        self.sink.append((problem, result))
        return result


WORKLOADS = {w.name: w for w in (GridPipeline, ServeJsonl, FtKnee)}


def table1_check(m: SimpleNamespace) -> List[str]:
    """The paper's Table 1 instance against EXPERIMENTS.md (Figs. 2 and 3)."""
    plat = m.table1.table1_platform()
    hosts = m.table1.table1_rank_hosts("bandwidth-desc")
    n = m.table1.PAPER_RAY_COUNT
    errors = []
    for algorithm, expected in (("uniform", 829.17), ("auto", 403.98)):
        counts = m.app.plan_counts(plat, hosts, n, algorithm=algorithm)
        makespan = m.app.run_seismic_app(plat, hosts, counts).makespan
        if abs(makespan - expected) > 0.005:
            errors.append(f"Table 1 {algorithm}: {makespan:.4f} s != {expected} s")
    return errors
