"""The benchmark's workloads: inputs made from the seed, operations and checks.

Every workload first loads fsx (``load``), then builds its inputs
(``prepare``); both count as set-up.  A round runs the workload's fixed list
of operations once, timing each and checking its output against
``reference`` outside the timed region.  Every round repeats the same
operations, so a run is a whole number of rounds.
"""

from __future__ import annotations

import cmath
import contextlib
import importlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import reference as ref

L = 2.0 * math.pi
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
DESK_ARGS = ["--dim", "2", "--bandlimit", "32", "--size", "8"]
# The registered suites, in registry order, less the two whose verdict
# depends on the seed at this config: `poisson` fails `extension_bounded` at
# seed 256 (20.085 against 20) and `resolvent` fails `uniformity_ray1.571` at
# seed 205 (1.5008 against 1.5).  A verdict that flips with the seed would
# make the share of failed operations differ between runs.
DESK_SUITES = (
    "lp_partition", "reconstruction", "plancherel", "norm_equiv", "holder",
    "embedding", "interp_real", "strichartz_indicator", "reflection",
    "projection", "trace", "bvp", "scaling",
)

# Sector rays and moduli of the resolvent suite.
RAYS = (0.0, math.pi / 4.0, math.pi / 2.0, 0.74 * math.pi)
MODULI = (0.1, 1.0, 10.0, 100.0)


@dataclass
class Op:
    """One timed call and the check of its output."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    group: tuple | None = None  # block norms of one field, nonincreasing in q
    q: float = 0.0


@dataclass
class Outcome:
    name: str
    seconds: float
    failed: bool  # raised, or its output failed the check
    wrong: bool  # returned an output that failed the check


@dataclass
class Round:
    seconds: float
    outcomes: list[Outcome] = field(default_factory=list)


def _once(compute: Callable[[], Any]) -> Callable[[], Any]:
    """Compute a reference on first use and keep it for later rounds."""
    cache = []

    def get():
        if not cache:
            cache.append(compute())
        return cache[0]

    return get


class Workload:
    # untimed rounds run after set-up, before measuring
    warmup_rounds = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def load(self) -> None:
        self.fsx = {
            name: importlib.import_module(f"fsx.{name}")
            for name in ("lattice", "corpus", "norms", "interp", "poisson", "halfspace",
                         "solvers", "dyadic", "cli")
        }

    def prepare(self) -> None:
        raise NotImplementedError

    def round(self, tracer) -> Round:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# desk_verify
# ---------------------------------------------------------------------------


class DeskVerify(Workload):
    """``fsx verify`` at the desk config, one suite per CLI call and operation.

    One untimed round runs first.  The first round in a process runs about
    40% slower than later ones (numpy's FFT plans and the allocator warm up),
    so without it a run's rounds would differ in kind.
    """

    warmup_rounds = 1

    def load(self) -> None:
        super().load()
        # every lru cache of fsx, emptied before each round: a CLI run starts cold
        self.caches = [
            obj.cache_clear
            for mod in self.fsx.values()
            for obj in vars(mod).values()
            if hasattr(obj, "cache_clear") and str(getattr(obj, "__module__", "")).startswith("fsx.")
        ]

    def prepare(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)

    def round(self, tracer) -> Round:
        for clear in self.caches:
            clear()
        out = Round(0.0)
        for name in DESK_SUITES:
            path = os.path.join(OUT_DIR, f"desk_verify-{self.seed}-{name}.json")
            argv = ["verify", "--suite", name, *DESK_ARGS, "--seed", str(self.seed), "--out", path]
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.fsx["cli"].main(argv)
            except Exception:
                code = None
            dt = time.perf_counter() - t0
            if tracer:
                tracer.active = False
            wrong = code == 0 and not self._report_passed(path)
            out.outcomes.append(Outcome(f"suite:{name}", dt, code != 0 or wrong, wrong))
            out.seconds += dt
        return out

    @staticmethod
    def _report_passed(path: str) -> bool:
        """The report the call wrote says that the suite passed."""
        try:
            with open(path) as fh:
                return json.load(fh)["passed"] is True
        except (OSError, ValueError, KeyError, TypeError):
            return False


# ---------------------------------------------------------------------------
# Streams of independent operations
# ---------------------------------------------------------------------------


class Stream(Workload):
    """Independent operations on fields made at set-up.

    A query service answers many calls in one process, so one round runs
    before measuring: it lets first-call costs settle and computes the
    checks' reference values.
    """

    LATTICES: tuple = ()
    warmup_rounds = 1

    def prepare(self) -> None:
        self.lattices = {nk: self.fsx["lattice"].make_lattice(*nk) for nk in self.LATTICES}
        self.fields = self.make_fields()
        self.warm()
        self.ops = self.make_ops()

    def warm(self) -> None:
        """Fill the lattice and dyadic caches that the operations read."""
        lat_mod, dyadic, norms = self.fsx["lattice"], self.fsx["dyadic"], self.fsx["norms"]
        for lat in self.warm_lattices():
            lat_mod.k_axis(lat.K)
            lat_mod.xi_norm(lat)
            lat_mod.xi_axes(lat)
            fam = norms.get_family(lat)
            for j in range(min(fam.j_min, 0), fam.j_max + 2):
                dyadic.lowpass_values(lat, j)
            for j in fam.j_range:
                dyadic.annulus_values(lat, j)

    def warm_lattices(self) -> list:
        return list(self.lattices.values())

    def round(self, tracer) -> Round:
        out = Round(0.0)
        values = []
        for op in self.ops:
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                value = op.run()
            except Exception:
                value = None
            dt = time.perf_counter() - t0
            if tracer:
                tracer.active = False
            wrong = value is not None and not self._checked(op, value)
            out.outcomes.append(Outcome(op.name, dt, value is None or wrong, wrong))
            out.seconds += dt
            values.append(value)
        self._check_groups(out, values)
        return out

    @staticmethod
    def _checked(op: Op, value) -> bool:
        try:
            return bool(op.check(value))
        except Exception:
            return False

    def _check_groups(self, out: Round, values: list) -> None:
        groups: dict[tuple, list[int]] = {}
        for i, op in enumerate(self.ops):
            if op.group is not None:
                groups.setdefault(op.group, []).append(i)
        for idx in groups.values():
            ordered = sorted(idx, key=lambda i: self.ops[i].q)
            vals = [values[i] for i in ordered]
            if None not in vals and not ref.nonincreasing(vals):
                for i in idx:
                    out.outcomes[i].failed = out.outcomes[i].wrong = True

    def make_ops(self) -> list[Op]:
        ops = []
        for nk in self.LATTICES:
            ops += self._lattice_ops(nk, self.fields[nk])
        return ops

    def corpus(self, kind: str, nk: tuple, size: int):
        return self.fsx["corpus"].generate_corpus(self.seed, kind, size, self.lattices[nk]).fields


# ---------------------------------------------------------------------------
# norm_queries
# ---------------------------------------------------------------------------

# (family, p, domain) of single norms, per lattice
SINGLE = (
    ("Lp", 4.0 / 3.0, "whole"), ("Lp", 2.0, "whole"), ("Lp", 4.0, "whole"),
    ("Lp", math.inf, "whole"), ("Lp", 2.0, "halfspace"), ("Lp", 4.0, "halfspace"),
    ("Hdot", 2.0, "whole"), ("H", 2.0, "whole"), ("Hdot", 4.0, "whole"),
    ("H", 4.0 / 3.0, "whole"), ("Hdot", 2.0, "halfspace"),
)
# (family, p, domain) of block norms, each evaluated at q = 1, 2, inf
BLOCK = (("Bdot", 2.0, "whole"), ("Bdot", 4.0, "whole"), ("B", 2.0, "whole"),
         ("Bdot", 2.0, "halfspace"))
S_VALUES = (-0.5, 0.3, 0.7, 1.2)
HILBERT_PAIRS = ((-0.5, 0.7), (0.0, 1.0))
THETAS = (0.25, 0.5, 0.75)


def _fmt(p: float) -> str:
    return "inf" if math.isinf(p) else f"{p:.3g}"


class NormQueries(Stream):
    """Norm evaluations of random band-limited fields: sample, transform, reduce."""

    LATTICES = ((2, 16), (2, 32), (2, 64), (3, 8))
    PER_LATTICE = 4  # fields per lattice

    def make_fields(self):
        return {nk: self.corpus("random_bandlimited", nk, self.PER_LATTICE) for nk in self.LATTICES}

    def _lattice_ops(self, nk, fields) -> list[Op]:
        norms, interp, poisson = self.fsx["norms"], self.fsx["interp"], self.fsx["poisson"]
        tag = f"n{nk[0]}K{nk[1]}"
        pick = self.rng.choice
        ops = []
        for i, (family, p, domain) in enumerate(SINGLE):
            u = fields[i % len(fields)]
            s = 0.0 if family == "Lp" else pick(S_VALUES)
            spec = norms.SpaceSpec(family, s=s, p=p, domain=domain)
            want = _once(lambda c=u.coef, f=family, s=s, p=p, d=domain:
                         ref.lp_interval(ref.potential(c, L, f, s), L, p, d))
            ops.append(Op(f"norm:{family}:p{_fmt(p)}:{domain}:{tag}",
                          lambda u=u, spec=spec: norms.space_norm(u, spec),
                          lambda v, want=want: ref.within(v, want())))
        for i, (family, p, domain) in enumerate(BLOCK):
            u = fields[i % len(fields)]
            s = pick(S_VALUES)
            for q in (1.0, 2.0, math.inf):
                spec = norms.SpaceSpec(family, s=s, p=p, q=q, domain=domain)
                want = _once(lambda c=u.coef, f=family, s=s, p=p, q=q, d=domain:
                             ref.besov_interval(c, L, s, p, q, d, inhomogeneous=f == "B"))
                ops.append(Op(f"norm:{family}:p{_fmt(p)}:{domain}:{tag}",
                              lambda u=u, spec=spec: norms.space_norm(u, spec),
                              lambda v, want=want: ref.within(v, want()),
                              group=(tag, i), q=q))
        for i, domain in enumerate(("whole", "halfspace")):
            u = fields[i % len(fields)]
            s = pick(S_VALUES)
            spec = norms.SpaceSpec("Fdot", s=s, p=2.0, domain=domain)
            want = _once(lambda c=u.coef, s=s, d=domain: ref.fubini_interval(c, L, s, d))
            ops.append(Op(f"norm:Fdot:p2:{domain}:{tag}",
                          lambda u=u, spec=spec: norms.space_norm(u, spec),
                          lambda v, want=want: ref.within(v, want())))
        # real interpolation: a p = 2 Hilbert couple in closed form, and a
        # p = 4 couple bounded by its trivial splits
        u = fields[0]
        s0, s1 = pick(HILBERT_PAIRS)
        theta = pick(THETAS)
        couple = interp.Couple(norms.SpaceSpec("Hdot", s=s0), norms.SpaceSpec("Hdot", s=s1))
        want = _once(lambda c=u.coef, s0=s0, s1=s1, t=theta: ref.hilbert_interp_norm(c, L, s0, s1, t))
        ops.append(Op(f"interp:hilbert:{tag}",
                      lambda u=u, c=couple, t=theta: interp.real_interp_norm(u, c, t, 2.0),
                      lambda v, want=want: ref.rel_close(v, want(), ref.QUAD)))
        u = fields[1]
        theta = pick(THETAS)
        couple = interp.Couple(norms.SpaceSpec("Hdot", s=0.0, p=4.0),
                               norms.SpaceSpec("Hdot", s=1.0, p=4.0))
        want = _once(lambda c=u.coef, t=theta: ref.trivial_split_bound(
            ref.lp_interval(ref.potential(c, L, "Hdot", 0.0), L, 4.0)[1],
            ref.lp_interval(ref.potential(c, L, "Hdot", 1.0), L, 4.0)[1], t))
        ops.append(Op(f"interp:split:{tag}",
                      lambda u=u, c=couple, t=theta: interp.real_interp_norm(u, c, t, math.inf),
                      lambda v, want=want: 0.0 < v <= want() * (1.0 + ref.ROUND)))
        # semigroup characterization; p = 4 costs one L^4 norm per t, so only n = 2, K <= 32
        for p in (2.0, 4.0) if nk[0] == 2 and nk[1] <= 32 else (2.0,):
            u = fields[2]
            s, alpha = pick((0.5, 0.8)), pick((0.0, 0.5))
            want = _once(lambda c=u.coef, s=s, a=alpha, p=p: ref.poisson_interval(c, L, s, a, p))
            ops.append(Op(f"poisson:p{_fmt(p)}:{tag}",
                          lambda u=u, s=s, a=alpha, p=p: poisson.poisson_besov_norm(u, s, a, p, 2.0),
                          lambda v, want=want: ref.within(v, want())))
        return ops


# ---------------------------------------------------------------------------
# halfspace_solves
# ---------------------------------------------------------------------------


class HalfspaceSolves(Stream):
    """Half-space operators on strip fields: sample, overwrite half the grid, project back."""

    LATTICES = ((2, 16), (2, 32), (3, 8))

    def warm(self) -> None:
        """Dyadic tables for the lattices and their boundaries; axes for the indicator's lattice."""
        super().warm()
        lat_mod = self.fsx["lattice"]
        for lat in self.lattices.values():
            lat_mod.k_axis(4 * lat.K)

    def warm_lattices(self) -> list:
        return [lat for base in self.lattices.values() for lat in (base, base.boundary())]

    def make_fields(self):
        return {
            nk: {kind: self.corpus(kind, nk, 2) for kind in ("sine_strip", "cosine_strip", "boundary_bump")}
            for nk in self.LATTICES
        }

    def _lattice_ops(self, nk, fields) -> list[Op]:
        hs, solvers, norms = self.fsx["halfspace"], self.fsx["solvers"], self.fsx["norms"]
        tag = f"n{nk[0]}K{nk[1]}"
        small = nk[0] == 3
        sine, cosine, bump = fields["sine_strip"], fields["cosine_strip"], fields["boundary_bump"]
        ops = []
        # resolvents by the method of images; parity fields make them mode division
        lams = [m * cmath.exp(1j * th) for th in RAYS for m in MODULI]
        if small:
            lams = [10.0 * cmath.exp(1j * th) for th in RAYS]
        for lam in lams:
            for f, bc in ((sine[0], "dirichlet"), (cosine[0], "neumann")):
                hf = hs.make_half_field(f)
                want = _once(lambda c=f.coef, lam=lam: ref.mode_resolvent(c, L, lam))
                ops.append(Op(f"resolvent:{bc}:{tag}",
                              lambda hf=hf, lam=lam, bc=bc: solvers.resolvent_halfspace(hf, lam, bc),
                              lambda out, want=want: ref.arrays_close(out[0].field.coef, want(), 1e-10)))
        rays = RAYS[:2] if small else RAYS
        for th in rays:
            lam = self.rng.choice(MODULI[1:]) * cmath.exp(1j * th)
            f, bc = (sine[1], "dirichlet") if self.rng.random() < 0.5 else (bump[1], "neumann")
            hf = hs.make_half_field(f)
            want = _once(lambda c=f.coef, lam=lam: ref.resolvent_ratios(c, L, lam))
            ops.append(Op(f"resolvent_estimate:{tag}",
                          lambda hf=hf, lam=lam, bc=bc: solvers.resolvent_estimate_check(hf, lam, bc),
                          lambda out, want=want: all(ref.within(v, iv) for v, iv in zip(out, want()))))
        # boundary-value problems with random zero-mean boundary data
        blat = self.lattices[nk].boundary()
        data = self.fsx["corpus"].generate_corpus(self.seed, "random_bandlimited", 2, blat).fields
        cases = [(sine[0], "dirichlet"), (cosine[1], "neumann")]
        if not small:
            cases += [(bump[0], "dirichlet"), (bump[1], "neumann")]
        for i, (f, bc) in enumerate(cases):
            g = data[i % 2]
            pts = self.points(nk[0], 8, 0.0, 0.0)[:, :-1]  # on the boundary x_n = 0
            inner = self.points(nk[0], 32, L / 8.0, 3.0 * L / 8.0)
            want = _once(lambda g=g, pts=pts: ref.trig_sum(g.coef, L, pts))
            ops.append(Op(f"bvp:{bc}:{tag}",
                          lambda hf=hs.make_half_field(f), g=g, bc=bc: self._bvp(hf, g, bc),
                          lambda out, want=want, pts=pts, inner=inner, bc=bc:
                              self._check_bvp(out, want(), pts, inner, bc)))
        # quotient norms over the witness extensions
        for f, p in ((sine[1], 2.0), (cosine[0], 4.0), (bump[0], 2.0))[: 1 if small else 3]:
            hf = hs.make_half_field(f)
            spec = norms.SpaceSpec("Lp", p=p, domain="halfspace")
            want = _once(lambda c=f.coef, p=p: ref.strip_l2sq(c if p == 2.0 else ref.square(c), L)[0]
                         ** (1.0 / p))
            ops.append(Op(f"restriction:p{_fmt(p)}:{tag}",
                          lambda hf=hf, spec=spec: hs.restriction_norm(hf, spec),
                          lambda out, want=want: ref.at_least(out[0], want())))
        # zero-boundary projection; m = 2 is left out, as its output does not
        # vanish on the lower half (CHANGES.md)
        for f in (sine[0], cosine[0], bump[0])[: 1 if small else 3]:
            for m in (0, 1):
                pts = self.points(nk[0], 64, 0.0, 3.0 * L / 8.0)
                want = _once(lambda c=f.coef, pts=pts, m=m: ref.zero_projection_values(c, L, pts, m))
                ops.append(Op(f"project_zero:m{m}:{tag}",
                              lambda f=f, m=m: hs.project_zero(f, m),
                              lambda out, c=f.coef, pts=pts, want=want:
                                  ref.projection_holds(out.coef, c, L, pts, want())))
        # sharp indicator onto the enlarged lattice
        for f in (sine[1], cosine[1], bump[1])[: 1 if small else 3]:
            want = _once(lambda c=f.coef: ref.indicator_toeplitz(c, 4))
            ops.append(Op(f"indicator:{tag}",
                          lambda f=f: hs.indicator_multiply(f),
                          lambda out, want=want: ref.tail_close(out[0].coef, want(), out[1])))
        return ops

    def _bvp(self, hf, g, bc):
        solvers = self.fsx["solvers"]
        solver = solvers.bvp_dirichlet if bc == "dirichlet" else solvers.bvp_neumann
        sol = solver(hf, g)
        mat, residual = sol.materialize()
        return sol, mat, residual

    def points(self, n: int, count: int, lo: float, hi: float) -> np.ndarray:
        """Random points, x' anywhere on the torus and lo <= x_n <= hi."""
        return np.array([[self.rng.uniform(0.0, L) for _ in range(n - 1)] + [self.rng.uniform(lo, hi)]
                         for _ in range(count)])

    @staticmethod
    def _check_bvp(out, want, pts, inner, bc) -> bool:
        """The boundary condition at boundary points, and the materialized field inside."""
        sol, mat, residual = out
        v, w = sol.v.coef, sol.w.boundary.coef
        return (math.isfinite(residual)
                and ref.boundary_condition_holds(v, w, want, L, pts, bc == "neumann")
                and ref.materialized_close(mat.field.coef, v, w, L, inner))


WORKLOADS = {
    "desk_verify": DeskVerify,
    "norm_queries": NormQueries,
    "halfspace_solves": HalfspaceSolves,
}
