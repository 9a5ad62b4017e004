"""Spans around fsx's public functions and numpy's FFT and contraction calls.

The tracer replaces each public function of each fsx module with a wrapper,
in every fsx namespace that imported it, so a call counts once whichever
name it went through.  Spans nest on a stack: a span's self time is its
duration minus the time of the spans it caused.  Spans are folded into
per-name totals as they close, one table per phase (set-up, then each
round), and nothing is written until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

import numpy as np

from workloads import DESK_SUITES

NUMPY_SPANS = {
    "numpy.fft.fftn": (np.fft, "fftn"),
    "numpy.fft.ifftn": (np.fft, "ifftn"),
    "numpy.tensordot": (np, "tensordot"),
    "numpy.einsum": (np, "einsum"),
}
BLOCKS = ("dyadic.delta_dot", "dyadic.delta_inhom", "dyadic.low_pass")


def _fsx_modules():
    import fsx

    names = sorted(m.name for m in pkgutil.iter_modules(fsx.__path__))
    return {name: importlib.import_module(f"fsx.{name}") for name in names}


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list[list] = []  # [name, child seconds]
        self.phases: list[dict] = []
        self.table: dict = {}

    def new_phase(self) -> None:
        """Start a fresh table of per-name [calls, seconds, self seconds]."""
        self.table = defaultdict(lambda: [0, 0.0, 0.0])
        self.phases.append(self.table)

    def install(self) -> None:
        modules = _fsx_modules()
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_clear"):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
        suites = modules["suites"].SUITES
        for name, fn in suites.items():
            suites[name] = wrappers.get(id(fn), fn)
        for span, (owner, attr) in NUMPY_SPANS.items():
            setattr(owner, attr, self._wrap(span, getattr(owner, attr)))

    def _wrap(self, name: str, fn):
        tracer = self

        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            tracer._count_extras(name, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                row = tracer.table[name]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[1]
            if name.startswith("numpy.fft."):
                tracer.table["extra.fft.points"][0] += int(np.size(out))
            return out

        return span

    def _count_extras(self, name, args, kwargs) -> None:
        if name == "norms.lp_norm":
            p = args[1] if len(args) > 1 else kwargs["p"]
            domain = args[2] if len(args) > 2 else kwargs.get("domain", "whole")
            if p == 2.0 and domain in ("whole", "halfspace_zero"):
                self.table["extra.lp_norm.p2_whole"][0] += 1
        elif name in BLOCKS and not any(f[0] in BLOCKS for f in self.stack):
            self.table["extra.dyadic.blocks"][0] += 1


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

CALLS, SECONDS, SELF = 0, 1, 2

FFT = ["numpy.fft.fftn", "numpy.fft.ifftn"]


def _layer_table() -> list[tuple[str, str, object, int]]:
    """(metric, unit, span names or module prefix, column)."""
    rows = [
        ("fft.calls", "count", FFT, CALLS),
        ("fft.points", "count", ["extra.fft.points"], CALLS),
        ("fft.self_s", "s", FFT, SELF),
        ("contract.self_s", "s", ["numpy.tensordot", "numpy.einsum"], SELF),
    ]
    for fn in ("sample_grid", "sample_slices", "project_bandlimited"):
        rows.append((f"lattice.{fn}.calls", "count", [f"lattice.{fn}"], CALLS))
        rows.append((f"lattice.{fn}.self_s", "s", [f"lattice.{fn}"], SELF))
    rows += [
        ("multipliers.calls", "count", "multipliers.", CALLS),
        ("multipliers.self_s", "s", "multipliers.", SELF),
        ("dyadic.blocks", "count", ["extra.dyadic.blocks"], CALLS),
        ("dyadic.self_s", "s", "dyadic.", SELF),
        ("norms.lp_norm.calls", "count", ["norms.lp_norm"], CALLS),
        ("norms.lp_norm.self_s", "s", ["norms.lp_norm"], SELF),
        ("norms.lp_norm.p2_whole", "count", ["extra.lp_norm.p2_whole"], CALLS),
    ]
    for fn in ("besov_norm", "triebel_norm", "sobolev_norm", "halfspace_product_integral"):
        rows.append((f"norms.{fn}.self_s", "s", [f"norms.{fn}"], SELF))
    rows += [
        ("interp.split_candidates.self_s", "s", ["interp.split_candidates"], SELF),
        ("interp.k_curve.self_s", "s", ["interp.k_curve_upper", "interp.k_curve_exact_hilbert"], SELF),
        ("halfspace.extend_reflect.calls", "count", ["halfspace.extend_reflect"], CALLS),
    ]
    for fn in ("extend_reflect", "reflect_parity", "project_zero", "restriction_norm"):
        rows.append((f"halfspace.{fn}.self_s", "s", [f"halfspace.{fn}"], SELF))
    rows += [
        ("halfspace.indicator_multiply.calls", "count", ["halfspace.indicator_multiply"], CALLS),
        ("halfspace.indicator_multiply.self_s", "s", ["halfspace.indicator_multiply"], SELF),
        ("poisson.materialize_poisson.self_s", "s", ["poisson.materialize_poisson"], SELF),
        ("poisson.poisson_besov_norm.self_s", "s", ["poisson.poisson_besov_norm"], SELF),
        ("solvers.resolvent_halfspace.self_s", "s", ["solvers.resolvent_halfspace"], SELF),
        ("solvers.resolvent_estimate_check.self_s", "s", ["solvers.resolvent_estimate_check"], SELF),
        ("solvers.bvp.self_s", "s", ["solvers.bvp_dirichlet", "solvers.bvp_neumann"], SELF),
        ("corpus.generate_corpus.self_s", "s", ["corpus.generate_corpus"], SELF),
    ]
    rows += [(f"suites.{s}.s", "s", [f"suites.suite_{s}"], SECONDS) for s in DESK_SUITES]
    rows.append(("report.write_report.self_s", "s", ["report.write_report"], SELF))
    return rows


LAYER_TABLE = _layer_table()


def _value(table: dict, spans, column: int) -> float:
    if isinstance(spans, str):
        return sum(row[column] for name, row in table.items() if name.startswith(spans))
    return sum(table[name][column] for name in spans if name in table)


def layer_metrics(setup: dict, rounds: list[dict]) -> dict:
    """Set-up plus one round: counts from the last round, times as the median round."""
    out = {}
    for metric, unit, spans, column in LAYER_TABLE:
        per_round = sorted(_value(r, spans, column) for r in rounds)
        if column == CALLS:
            body = _value(rounds[-1], spans, column)
        else:
            mid = len(per_round) // 2
            body = per_round[mid] if len(per_round) % 2 else 0.5 * (
                per_round[mid - 1] + per_round[mid]
            )
        out[metric] = {"value": _value(setup, spans, column) + body, "unit": unit}
    return out
