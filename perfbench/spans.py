"""In-memory span recording around the public entry points of sdheat's layers.

While installed, the tracer replaces module and class attributes of the
library with timing wrappers and puts the originals back afterwards;
nothing under ``src/`` knows about it.  It keeps two kinds of record:

* spans, for calls that do enough work to be worth one record each
  (Bessel batches, ladders, Gamma assembly, Picard solves, oracle
  runs): name, start, end, parent span and solve id;
* leaf counters, for calls made up to hundreds of thousands of times
  (scalar Bessel values, bound evaluators, oracle generator
  applications): calls and seconds, added to the enclosing span.

Wrappers see only calls that look the name up on the module or class.
A name bound elsewhere by ``from .x import f`` before installation is
not seen; its time stays in the caller's self time, and the solve
root's self time is what ``trace.coverage`` leaves unattributed.
"""

from __future__ import annotations

import functools
import inspect
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Bound helpers the other evaluators call once per value; their time is
#: counted inside the caller's leaf, and wrapping them as well would add
#: one wrapper call per inner call.
_BOUNDS_INNER = ("lorentz_tilde", "pang_F")


@dataclass
class Span:
    id: int
    parent: int | None
    solve: int
    kind: str  # "solve" for timed work, "check" for oracle comparisons
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    leaves: dict = field(default_factory=dict)  # leaf name -> [calls, seconds]
    child_s: float = 0.0  # summed duration of direct child spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - sum(s for _, s in self.leaves.values())


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._in_leaf = False
        self._patches: list[tuple[object, str, object]] = []
        # solver -> ladder horizons already built, to tell builds from cache hits
        self._built: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str, kind: str | None = None, solve: int | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        sp = Span(id=len(self.spans), parent=parent.id if parent else None,
                  solve=solve if parent is None else parent.solve,
                  kind=kind if parent is None else parent.kind,
                  name=name, start=time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += sp.duration

    @contextmanager
    def root(self, kind: str, label: str, solve: int):
        """A solve (timed) or the check of one (oracle); ``solve`` is its id."""
        sp = self._open(label, kind, solve)
        try:
            yield sp
        finally:
            self._close(sp)

    def _span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before(span, args)`` and
        ``after(span, args, kwargs, result)`` record attributes."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            sp = self._open(name)
            if before:
                before(sp, args)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                sp.attrs["error"] = True
                raise
            finally:
                self._close(sp)
            if after:
                after(sp, args, kwargs, out)
            return out
        return wrapper

    def _leaf(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_leaf or not self._stack:
                return fn(*args, **kwargs)
            self._in_leaf = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._in_leaf = False
                rec = self._stack[-1].leaves.setdefault(name, [0, 0.0])
                rec[0] += 1
                rec[1] += dt
        return wrapper

    # -- span attributes ---------------------------------------------------------

    @staticmethod
    def _batch_values(sp, args, kwargs, out):
        sp.attrs["values"] = int(out.size)  # (nmax + 1) * len(r)

    def _ladder_before(self, sp, args):
        sp.attrs["built"] = float(args[1]) not in self._built.setdefault(args[0], set())

    def _ladder_after(self, sp, args, kwargs, out):
        if sp.attrs["built"]:
            self._built[args[0]].add(float(args[1]))
            sp.attrs["m_max"] = int(out.m_max)

    @staticmethod
    def _picard_counts(sp, args, kwargs, out):
        report = kwargs.get("report")
        if report is not None:
            sp.attrs["picard_iters"] = report.picard_iters
            sp.attrs["panels"] = report.panels

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    @contextmanager
    def installed(self):
        """Wrap the layer entry points; restore them on exit."""
        from sdheat import bessel, bounds, oracle, parametrix, solver

        solver_cls = parametrix.ParametrixSolver
        try:
            self._patch(bessel, "iv_scaled_matrix",
                        self._span("bessel.batch", bessel.iv_scaled_matrix,
                                   after=self._batch_values))
            self._patch(bessel, "iv_scaled", self._leaf("bessel.scalar", bessel.iv_scaled))
            self._patch(solver_cls, "ladder",
                        self._span("parametrix.ladder", solver_cls.ladder,
                                   self._ladder_before, self._ladder_after))
            for name in ("gamma_column", "gamma_operator", "gamma_matrix", "gamma_apply"):
                self._patch(solver_cls, name,
                            self._span("parametrix.gamma", getattr(solver_cls, name)))
            for name in ("solve_with_potential", "solve_inhomogeneous"):
                self._patch(solver, name,
                            self._span("solver.picard", getattr(solver, name),
                                       after=self._picard_counts))
            for name in ("gamma_oracle", "evolve_with_potential", "expm_apply"):
                self._patch(oracle, name, self._span("oracle.check", getattr(oracle, name)))
            self._patch(oracle.Generator, "apply",
                        self._leaf("oracle.apply", oracle.Generator.apply))
            for name, fn in list(vars(bounds).items()):
                if inspect.isfunction(fn) and fn.__module__ == bounds.__name__ \
                        and not name.startswith("_") and name not in _BOUNDS_INNER:
                    self._patch(bounds, name, self._leaf("bounds", fn))
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    # -- reports -------------------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer totals over the recorded spans.

        Times of the solver, parametrix and Bessel layers come from
        ``solve`` spans only; the oracle metrics come from ``check``
        spans, which lie outside the timed wall.
        """
        m: dict[str, float] = defaultdict(int)
        covered = 0.0
        for sp in self.spans:
            leaves = sp.leaves
            if sp.kind == "check":
                if sp.name == "oracle.check":
                    m["oracle.check_s"] += sp.self_s + leaves.get("oracle.apply", (0, 0.0))[1]
                    m["oracle.apply_calls"] += leaves.get("oracle.apply", (0, 0.0))[0]
                continue
            if sp.parent is not None:
                covered += sp.self_s
            covered += sum(s for _, s in leaves.values())
            for leaf, prefix in (("bessel.scalar", "bessel.scalar_"), ("bounds", "bounds.")):
                calls, secs = leaves.get(leaf, (0, 0.0))
                m[prefix + "calls"] += calls
                m[prefix + "s"] += secs
            if sp.name == "bessel.batch":
                m["bessel.batch_s"] += sp.self_s
                m["bessel.batch_calls"] += 1
                m["bessel.batch_values"] += sp.attrs.get("values", 0)
            elif sp.name == "parametrix.ladder":
                m["parametrix.ladder_s"] += sp.duration
                m["parametrix.ladder_self_s"] += sp.self_s
                m["parametrix.ladder_builds"] += int(sp.attrs["built"])
                m["parametrix.orders"] += sp.attrs.get("m_max", 0)
            elif sp.name == "parametrix.gamma":
                m["parametrix.gamma_s"] += sp.self_s
                m["parametrix.gamma_calls"] += 1
            elif sp.name == "solver.picard":
                m["solver.picard_s"] += sp.self_s
                m["solver.picard_iters"] += sp.attrs.get("picard_iters", 0)
                m["solver.panels"] += sp.attrs.get("panels", 0)
        m["trace.coverage"] = covered / wall_s
        return dict(m)

    def tree_lines(self) -> list[str]:
        """The span tree folded by name path: calls, inclusive and self seconds."""
        paths: dict[int, tuple] = {}
        agg: dict[tuple, list] = {}  # insertion ordered: parents before children

        def add(path: tuple, calls: int, incl: float, own: float) -> None:
            rec = agg.setdefault(path, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += incl
            rec[2] += own

        for sp in self.spans:
            base = paths[sp.parent] if sp.parent is not None else (f"{sp.kind} {sp.solve}",)
            path = paths[sp.id] = base + (sp.name,)
            add(path, 1, sp.duration, sp.self_s)
            for leaf, (calls, secs) in sp.leaves.items():
                add(path + (leaf,), calls, secs, secs)
        lines = []
        for path, (calls, incl, own) in agg.items():
            name = f"[{path[0]}] {path[1]}" if len(path) == 2 else path[-1]
            lines.append(f"{'  ' * (len(path) - 2)}{name}: calls={calls} "
                         f"incl={incl:.4f}s self={own:.4f}s")
        return lines

    def dump(self) -> list[dict]:
        return [{"id": sp.id, "parent": sp.parent, "solve": sp.solve, "kind": sp.kind,
                 "name": sp.name, "start": sp.start, "end": sp.end, "self_s": sp.self_s,
                 "attrs": sp.attrs, "leaves": sp.leaves} for sp in self.spans]
