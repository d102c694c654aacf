#!/usr/bin/env python3
"""End-to-end benchmark of the scatter planner (see README.md).

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload {grid-pipeline,serve-jsonl,ft-knee} \
        --seed N --seconds S --trace {0,1}

One client runs ops back to back for ``--seconds`` seconds: it replays a
fixed pool of seeded inputs in rounds, and an op's latency is the fastest
of its executions (see README.md, "Noise").  Set-up (a cold ``import
repro``, the workload's long-lived objects and its first op) is measured
once before the ops and again, in a fresh interpreter (``--setup-once``),
every few seconds between them; ``setup_s`` is the fastest of these.
Every execution is checked outside its timed region.  The last line of
standard output is the result object; the line before it stamps the
environment.
``--trace 1`` alternates untraced and traced blocks of ops and reports
the per-layer metrics instead of the end-to-end ones.
"""

import os

# One thread per BLAS/OpenMP pool, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Seconds between cold set-ups during the timed phase.  Spreading them
#: over the run samples the machine's fast and slow phases, and
#: ``setup_s`` reports the fastest (see README.md, "Noise").
SETUP_EVERY_S = 6.0

#: Layers whose time is reported, as ``<layer>_s`` in seconds per traced op.
LAYER_TIMES = (
    "simgrid.platform.from_dict",
    "simgrid.platform.to_problem",
    "core.rounding.round_paper",
    "core.closed_form.solve_rational",
    "tomo.app.run_seismic_app",
    "serve.jsonl.parse_request",
    "core.ordering.apply_policy",
    "serve.fingerprint.problem_fingerprint",
    "core.incremental.plan",
    "core.heuristic.solve_lp_rational",
    "lp.simplex.solve",
    "core.dp_fast.solve",
    "mpi.runtime.run_spmd",
)

#: Per-layer counts, reported as means per traced op.
LAYER_COUNTS = (
    "simgrid.engine.events",
    "core.costs.table_builds",
    "core.incremental.warm_rows",
    "core.incremental.rows_computed",
    "mpi.collectives.replans",
    "mpi.collectives.retries",
    "mpi.collectives.redistributed_items",
)


def env_stamp(seed: int) -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def cold_setup(workloads, cls, seed: int):
    """One set-up, in a process that has not imported ``repro`` yet.

    Returns its seconds, the workload, the first op's input and its check
    record.
    """
    t0 = time.perf_counter()
    m = workloads.import_repro()
    t1 = time.perf_counter()
    wl = cls(m, seed)
    first = wl.next_input()  # input generation is not set-up
    live = wl.prepare(first)
    t2 = time.perf_counter()
    wl.build()
    out = wl.op(live, None)
    t3 = time.perf_counter()
    record = wl.check(live, out)
    return (t1 - t0) + (t3 - t2), wl, first, record


def child_setup(workload: str, seed: int):
    """One cold set-up in a fresh interpreter: ``(seconds, error)``.

    The parent waits for the child, so the two never run at once.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-once"],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        return None, f"set-up exited {proc.returncode}: {proc.stderr[-500:]}"
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], None if out["ok"] else "set-up op failed its check"


def quantile(values, q: float) -> float:
    """``q``-quantile with linear interpolation between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def mode_ranges(latencies, records) -> dict:
    by_mode: dict = {}
    for lat, rec in zip(latencies, records):
        by_mode.setdefault(rec.mode, []).append(lat)
    return {
        mode: {"ops": len(v), "min": min(v), "median": statistics.median(v), "max": max(v)}
        for mode, v in sorted(by_mode.items())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-once", action="store_true",
                        help="time one cold set-up, print it and exit")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; know "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    stamp = env_stamp(args.seed)  # imports numpy, which is not set-up
    errors = []

    seconds, wl, first, first_record = cold_setup(workloads, cls, args.seed)
    if args.setup_once:
        wl.close()
        print(json.dumps({"setup_s": seconds, "ok": first_record.ok}))
        return 0
    setups = [seconds]
    if not first_record.ok:
        errors.append("set-up op failed its check")
    m = wl.m
    rec = spans.SpanRecorder(spans.layer_targets(m)) if args.trace else None
    hits0 = wl.hit_stats() if hasattr(wl, "hit_stats") else None

    # The pool of inputs is replayed in rounds, in the same order, until
    # the time is up; the set-up op's input is its first slot.
    pool = [first]

    # Per pool slot: its fastest latency and the check record of its
    # first completed execution.  ``execs`` keeps every execution.
    best, first_records, execs = {}, {}, []
    failed = 0
    slot = rounds = 0
    gc.collect()
    start = last_setup = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        if not args.trace and time.perf_counter() - last_setup >= SETUP_EVERY_S:
            seconds, error = child_setup(args.workload, args.seed)
            if error is None:
                setups.append(seconds)
            else:
                errors.append(error)
            last_setup = time.perf_counter()
        if slot == 0:
            wl.start_round()
        if slot == len(pool):
            pool.append(wl.next_input())
        live = wl.prepare(pool[slot])
        on = rec is not None and (slot // cls.block + rounds) % 2 == 1
        if on:
            rec.install()
        t0 = time.perf_counter()
        try:
            out = wl.op(live, rec if on else None)
        except Exception as exc:  # an op that raises counts as failed
            errors.append(f"round {rounds} op {slot}: {type(exc).__name__}: {exc}")
            failed += 1
            out = None
        finally:
            if on:
                rec.uninstall()
        latency = time.perf_counter() - t0
        if out is not None:
            record = wl.check(live, out)
            execs.append((latency, on, record))
            best[slot] = min(best.get(slot, latency), latency)
            first_records.setdefault(slot, record)
        slot += 1
        if slot == cls.pool:
            slot = 0
            rounds += 1

    for check in (wl.final_checks, lambda: workloads.table1_check(m)):
        try:
            errors.extend(check())
        except Exception as exc:  # a check that raises is a failed check
            errors.append(f"check raised {type(exc).__name__}: {exc}")
    wl.close()
    records = [r for _, _, r in execs]
    best_s = list(best.values())
    first_records = list(first_records.values())
    attempted = len(execs) + failed
    passed = sum(r.ok for r in records)
    failed += len(records) - passed
    scattered = sum(r.items_scattered for r in records)
    computed = sum(r.items_computed for r in records)
    correct = not errors and failed == 0 and attempted > 0

    print(json.dumps({
        "env": stamp,
        "workload": args.workload,
        "pool": len(best),
        "rounds": rounds,
        "executions": len(execs),
        "setup_reps_s": setups,
        "latency_modes_s": mode_ranges(best_s, first_records) if best else {},
        "errors": errors[:20],
    }))

    if not best:
        print("error: no op completed; no result", file=sys.stderr)
        return 1
    if not args.trace:
        metrics = {
            "setup_s": (min(setups), "s"),
            "ops_per_s": (len(best_s) / sum(best_s), "1/s"),
            "latency_p50_s": (quantile(best_s, 0.5), "s"),
            "latency_p90_s": (quantile(best_s, 0.9), "s"),
            "correct_frac": (passed / attempted, "frac"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
            "makespan_s": (statistics.median(
                r.makespan for r in first_records if r.makespan is not None), "s"),
            "delivered_frac": (computed / scattered, "frac"),
        }
    else:
        metrics = layer_metrics(rec, cls, execs, wl, hits0)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(rec, cls, execs, wl, hits0) -> dict:
    on = [lat for lat, t, _ in execs if t]
    off = [lat for lat, t, _ in execs if not t]
    on_records = [r for _, t, r in execs if t]
    busy = sum(on)
    n_on = len(on)
    out = {}
    for name in LAYER_TIMES:
        out[f"{name}_s"] = (rec.covered([name]) / n_on if n_on else 0.0, "s/op")
    for name in LAYER_COUNTS:
        total = sum(r.counts.get(name, 0) for r in on_records)
        out[name] = (total / n_on if n_on else 0.0, "count/op")
    replans = rec.durations("core.incremental.replan")
    out["core.incremental.replan_p50_s"] = (
        quantile(replans, 0.5) if replans else 0.0, "s")
    out["core.incremental.replan_p90_s"] = (
        quantile(replans, 0.9) if replans else 0.0, "s")
    hit_frac = 0.0
    if hits0 is not None:
        hits1 = wl.hit_stats()
        lookups = (hits1[0] - hits0[0]) + (hits1[1] - hits0[1])
        hit_frac = (hits1[0] - hits0[0]) / lookups if lookups else 0.0
    out["serve.cache.hit_frac"] = (hit_frac, "frac")
    rate_on = n_on / busy if busy else 0.0
    rate_off = len(off) / sum(off) if off else 0.0
    out["trace.ops_per_s_traced"] = (rate_on, "1/s")
    out["trace.ops_per_s_untraced"] = (rate_off, "1/s")
    out["trace.overhead_frac"] = (rate_off / rate_on - 1 if rate_on else 0.0, "frac")
    out["trace.stressed_share"] = (rec.covered(cls.stressed) / busy if busy else 0.0, "frac")
    return out


if __name__ == "__main__":
    sys.exit(main())
