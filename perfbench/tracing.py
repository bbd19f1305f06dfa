"""Spans around the package's public functions, installed for the traced run only.

Each wrapped function gets one wrapper, set on its defining module and on
every other name bound to the same function object (the `from .x import y`
names in `cli` and `groundstate`, and the package namespace), so calls are
traced whichever name they go through.  Spans are kept in memory; a layer's
self time is its span's duration minus the time covered by its child spans.
Wrappers record only while an operation is running, so set-up and checker
calls into the package leave no spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

from rootcheck import root_is_exact

# Traced layer name -> (module, attribute) of the function it wraps.
LAYERS = (
    ("cli.main", "cli", "main"),
    ("atom.solve_g", "atom", "solve_g"),
    ("atom.radial_solution", "atom", "radial_solution"),
    ("atom.normalize_radial", "atom", "normalize_radial"),
    ("atom.radial_ode_residual", "atom", "radial_ode_residual"),
    ("heun.series_coefficients", "heun", "series_coefficients"),
    ("heun.termination_degree", "heun", "termination_degree"),
    ("oracle.quadrature", "oracle", "quadrature"),
    ("oracle.radial_eigensolve", "oracle", "radial_eigensolve"),
    ("groundstate.density_profile_numeric", "groundstate", "density_profile_numeric"),
    ("groundstate.density_numeric", "groundstate", "density_numeric"),
)

# Span fields: [layer, parent index, op index, start, end, failed]
_NAME, _PARENT, _START, _END, _FAILED = 0, 1, 3, 4, 5


def package_modules() -> dict:
    import screened_hookium
    from screened_hookium import atom, cli, groundstate, heun, oracle

    return {"cli": cli, "atom": atom, "heun": heun, "oracle": oracle,
            "groundstate": groundstate, "screened_hookium": screened_hookium}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.roots: list[tuple] = []  # (N, l_r, b, d, [g, ...]) per solve_g call
        self.ops = 0
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        extras = {"atom.solve_g": self._record_roots,
                  "oracle.radial_eigensolve": self._count_grid}
        for layer, module, attr in LAYERS:
            fn = getattr(self.modules[module], attr, None)
            if fn is not None:
                self._rebind(fn, self._span_wrapper(layer, fn, extras.get(layer)))
        quad = getattr(self.modules["oracle"], "quad", None)
        if quad is not None:
            self._rebind(quad, self._quad_counter(quad), only=("oracle",))

    def _rebind(self, fn, wrapper, only=None) -> None:
        for key, module in self.modules.items():
            if only is not None and key not in only:
                continue
            for name in [n for n, v in vars(module).items() if v is fn]:
                self._patches.append((module, name, fn))
                setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patches):
            setattr(module, name, fn)
        self._patches.clear()

    # -- recording ------------------------------------------------------------

    def run_op(self, op):
        """Run one operation with recording on, under a root span named "op"."""
        root = ["op", None, self.ops, time.perf_counter(), None, True]
        self.spans.append(root)
        self._stack.append(len(self.spans) - 1)
        self.active = True
        try:
            result = op()
            root[_FAILED] = False
            return result
        finally:
            root[_END] = time.perf_counter()
            self.active = False
            self._stack.pop()
            self.ops += 1

    def _span_wrapper(self, layer, fn, on_result):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [layer, tracer._stack[-1], tracer.ops, time.perf_counter(), None, True]
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
                span[_FAILED] = False
            finally:
                span[_END] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_result(bound.arguments, result)
            return result

        return wrapper

    def _quad_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def quad(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.active:
                tracer.counts["oracle.quad.calls"] += 1
                if kwargs.get("full_output") and len(out) >= 3:
                    tracer.counts["oracle.quad.neval"] += int(out[2]["neval"])
            return out

        return quad

    def _record_roots(self, arguments, roots) -> None:
        N, l_r, b, d = list(arguments.values())[:4]
        self.roots.append((N, l_r, b, d, [float(g) for g in roots]))

    def _count_grid(self, arguments, pairs) -> None:
        grid = getattr(pairs[0], "grid", None) if pairs else None
        n = getattr(grid, "n_points", 0)
        # Richardson extrapolation re-solves on the half-spacing grid (2n - 1 points).
        refined = 2 * n - 1 if n and arguments.get("richardson", True) else 0
        self.counts["oracle.radial_eigensolve.grid_points"] += n + refined
        self.counts["oracle.radial_eigensolve.grid_warnings"] += int(
            any(getattr(p, "grid_warning", False) for p in pairs))

    # -- summary --------------------------------------------------------------

    def summary(self) -> dict:
        """Per-op self times (ms) and exact counts over everything recorded."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] is not None:
                child[span[_PARENT]] += span[_END] - span[_START]
        self_s: Counter = Counter()
        calls: Counter = Counter(self.counts)
        for i, span in enumerate(self.spans):
            name = span[_NAME]
            if name == "op":
                continue
            self_s[name] += span[_END] - span[_START] - child[i]
            calls[f"{name}.calls"] += 1
            calls[f"{name}.failed"] += int(span[_FAILED])
        returned = sum(len(gs) for *_, gs in self.roots)
        exact = sum(root_is_exact(N, l_r, g, b, d) for N, l_r, b, d, gs in self.roots for g in gs)
        ops = max(1, self.ops)
        return {
            "self_ms": {name: 1e3 * t / ops for name, t in self_s.items()},
            "counts": dict(calls),
            "roots_returned": returned,
            "roots_exact": exact,
        }

    def dump(self) -> list[list]:
        return [list(span) for span in self.spans]
