"""In-memory spans around calls into the planner's layers (traced runs only).

The benchmark does not instrument ``src/``: it replaces, for the length of
a traced block, the attribute each caller actually looks up with a timing
wrapper, and puts the original back afterwards.  Functions bound at import
time (``from .rounding import round_paper``) are patched in the importing
module, and a keyword default (``solve_heuristic(rounding=round_paper)``)
in the function's ``__kwdefaults__``.

A span is ``(name, start, end)``.  Spans stay in memory; the run
aggregates them into per-layer metrics: a layer's busy time is the union
of its spans (nested calls of one layer count once), and the op's own
time comes from the run loop's latencies.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, List, Tuple

Span = Tuple[str, float, float]


def layer_targets(m: Any) -> List[Tuple[Any, str, str]]:
    """``(owner, attribute, layer name)`` for every patched call site.

    ``m`` is the namespace of freshly imported ``repro`` modules built by
    :func:`workloads.import_repro`.  A layer listed more than once is
    looked up by more than one caller; every site reports under one name.
    """
    return [
        (m.platform.Platform, "from_dict", "simgrid.platform.from_dict"),
        (m.platform.Platform, "to_problem", "simgrid.platform.to_problem"),
        (m.closed_form, "round_paper", "core.rounding.round_paper"),
        (m.heuristic.solve_heuristic.__kwdefaults__, "rounding",
         "core.rounding.round_paper"),
        (m.closed_form, "solve_rational", "core.closed_form.solve_rational"),
        (m.app, "run_seismic_app", "tomo.app.run_seismic_app"),
        (m.jsonl, "parse_request", "serve.jsonl.parse_request"),
        (m.service, "apply_policy", "core.ordering.apply_policy"),
        (m.platform, "apply_policy", "core.ordering.apply_policy"),
        (m.solver, "apply_policy", "core.ordering.apply_policy"),
        (m.incremental, "apply_policy", "core.ordering.apply_policy"),
        (m.service, "problem_fingerprint", "serve.fingerprint.problem_fingerprint"),
        (m.heuristic, "solve_lp_rational", "core.heuristic.solve_lp_rational"),
        (m.heuristic, "solve_simplex", "lp.simplex.solve"),
        (m.incremental, "solve_dp_fast", "core.dp_fast.solve"),
        (m.solver, "solve_dp_fast", "core.dp_fast.solve"),
        (m.runtime, "run_spmd", "mpi.runtime.run_spmd"),
        (m.app, "run_spmd", "mpi.runtime.run_spmd"),
    ]


def _get(owner: Any, attr: str) -> Any:
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def _set(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class SpanRecorder:
    """Collects spans; :meth:`install` / :meth:`uninstall` toggle patching."""

    def __init__(self, targets: List[Tuple[Any, str, str]]) -> None:
        self.spans: List[Span] = []
        self._originals = [(owner, attr, _get(owner, attr)) for owner, attr, _ in targets]
        self._wrapped = [
            (owner, attr, self._wrap_descriptor(_get(owner, attr), name))
            for owner, attr, name in targets
        ]

    def _wrap_descriptor(self, value: Any, name: str) -> Any:
        # Class attributes keep their binding kind: a classmethod stays one.
        if isinstance(value, classmethod):
            return classmethod(self.wrap(value.__func__, name))
        return self.wrap(value, name)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        spans = self.spans

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, start, time.perf_counter()))

        return timed

    def install(self) -> None:
        for owner, attr, wrapped in self._wrapped:
            _set(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in self._originals:
            _set(owner, attr, original)

    # -- aggregation -------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end in self.spans if n == name]

    def covered(self, names: Iterable[str]) -> float:
        """Wall time covered by at least one span of the given names
        (nested spans of one layer are counted once)."""
        wanted = set(names)
        return _union(
            (start, end) for n, start, end in self.spans if n in wanted
        )


def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
