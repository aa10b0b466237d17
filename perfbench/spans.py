"""In-memory spans at the layer boundaries of mannrates, and their per-layer totals.

The tracer wraps public callables under the names the calling module bound
them to (``mannrates.cli.build_worst_case_witness``, ``scipy.optimize.linprog``,
``StageEvaluator.surrogate`` ...).  Nothing under ``src/`` is edited: the
wrappers are set as module or class attributes for the traced passes only and
the original objects are put back afterwards.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Union


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    run: int
    failed: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


SpanName = Union[str, Callable[[tuple, dict], str]]


class Tracer:
    """Records nested spans of one thread; ``run`` tags the spans of one pass."""

    def __init__(self):
        self.spans: List[Span] = []
        self.run = 0
        self._stack: List[int] = []
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)  # reserved, so ids follow start order
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        ok = False
        start = time.perf_counter()
        try:
            yield
            ok = True
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, parent, name, start, end, self.run, not ok)

    def wrap(self, fn: Callable, name: SpanName) -> Callable:
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self, points: Iterable[tuple]):
        """Replace each ``(owner, attribute, span name)`` by a traced wrapper.

        ``owner`` is a module or a class.  The originals are restored when the
        block exits, also when it raises.
        """
        try:
            for owner, attr, name in points:
                original = vars(owner)[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)


def _minimize_span(args, kwargs) -> str:
    method = kwargs.get("method")
    return {"SLSQP": "optimize.slsqp", "Nelder-Mead": "optimize.nm"}.get(
        method, f"optimize.minimize.{method}")


def layer_points():
    """The layer boundaries of mannrates, as bound in each calling module."""
    import scipy.optimize

    from mannrates import cli, distances, optimize, witness

    return [
        (cli, "main", "cli"),
        (cli, "write_csv", "reporting"),
        (cli, "write_sidecar", "reporting"),
        (cli, "optimize_sequential", "optimize.run"),
        (cli, "optimize_scheme", "optimize.run"),
        (cli, "optimize_fixed_horizon", "optimize.run"),
        (cli, "build_distance_table", "distances.table"),
        (cli, "build_worst_case_witness", "witness"),
        (witness, "build_worst_case_witness", "witness"),
        (witness, "build_distance_table", "distances.table"),
        (distances, "build_distance_table", "distances.table"),
        (distances, "check_monotone", "schemes.check_monotone"),
        (distances, "greedy_monotone_transport", "transport.greedy"),
        (distances, "solve_transport", "transport.simplex"),
        (optimize, "build_distance_table", "distances.table"),
        (optimize, "pair_distance", "distances.pair"),
        (optimize, "minimize", _minimize_span),
        (optimize.StageEvaluator, "surrogate", "optimize.surrogate"),
        (optimize.StageEvaluator, "exact", "optimize.exact"),
        (scipy.optimize, "linprog", "optimize.lp"),
    ]


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def totals(spans: List[Span]) -> Dict[str, float]:
    """``<name>.calls``, ``.s``, ``.self_s`` and ``.failed`` per span name.

    ``.s`` counts only spans with no enclosing span of the same name, so a
    layer that re-enters itself is not counted twice.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    out: Dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for s in spans:
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.self_s", selfs[s.id])
        add(f"{s.name}.failed", int(s.failed))
        p = s.parent
        while p is not None and by_id[p].name != s.name:
            p = by_id[p].parent
        if p is None:
            add(f"{s.name}.s", s.duration)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass; layers that did not run read 0."""
    t = totals(spans)
    get = lambda key: t.get(key, 0)
    out = {}
    for layer in ("transport.simplex", "transport.greedy", "distances.table",
                  "distances.pair", "schemes.check_monotone", "optimize.slsqp",
                  "optimize.nm", "optimize.surrogate", "optimize.exact",
                  "optimize.lp", "optimize.run", "witness", "cli", "reporting"):
        for stat in ("calls", "s", "self_s"):
            out[f"{layer}.{stat}"] = get(f"{layer}.{stat}")
    greedy = get("transport.greedy.calls")
    rejects = get("transport.greedy.failed")
    out["transport.greedy.rejects"] = rejects
    out["transport.greedy.hit_ratio"] = _ratio(greedy - rejects, greedy)
    out["optimize.surrogate_per_exact"] = _ratio(get("optimize.surrogate.calls"),
                                                 get("optimize.exact.calls"))
    out["optimize.self_s"] = out["optimize.run.self_s"]
    return out


def fastest(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    """Each metric's least value over the traced passes.  Counts and ratios
    repeat exactly from pass to pass; times take the least-disturbed pass, as
    the end-to-end ``wall_s`` does."""
    return {k: min(m[k] for m in per_pass) for k in per_pass[0]}


def by_run(spans: List[Span]) -> Dict[int, List[Span]]:
    out: Dict[int, List[Span]] = {}
    for s in spans:
        out.setdefault(s.run, []).append(s)
    return out
