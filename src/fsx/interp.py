"""Real-interpolation machinery: split-functional curves and interpolation norms.

The split functional K(t) = inf { ||a||_X0 + t ||b||_X1 : u = a + b } is
estimated two ways: an upper bound minimizing over dyadic low/high frequency
splits, and a closed-form quadratic-mean value for couples of p = 2 potential
spaces (exact up to the universal factor sqrt(2)).  Interpolation norms put
t^(-theta) K(t) into L^q(dt/t) via trapezoid quadrature on a geometric grid,
with analytic tail terms from the monotonicity envelope of K.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dyadic import lowpass_values
from .errors import FsxError, InvalidParameter, NotHilbertCouple, ZeroField
from .lattice import Field
from .norms import SpaceSpec, _check_exponent, get_family, mode_sum, norm_ignoring_mean
from .norms import potential_sq, sobolev_norm

T_EXPONENT = 20
T_POINTS = 81


def default_tgrid() -> np.ndarray:
    return np.logspace(-T_EXPONENT, T_EXPONENT, T_POINTS, base=2.0)


@dataclass(frozen=True)
class Couple:
    """Pair of space descriptors over a common domain."""

    X0: SpaceSpec
    X1: SpaceSpec

    def __post_init__(self):
        if self.X0.domain != self.X1.domain:
            raise InvalidParameter("couple spaces must share a domain")


@dataclass
class KCurve:
    """Sampled split-functional: values K(t) on a t-grid."""

    tgrid: np.ndarray
    values: np.ndarray
    kind: str  # "upper_dyadic" | "exact_hilbert"

    def __post_init__(self):
        t = np.asarray(self.tgrid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise InvalidParameter("tgrid and values must be equal-length vectors")
        scale = float(v.max(initial=0.0))
        slack = 1e-10 * max(scale, 1.0)
        if np.any(np.diff(v) < -slack):
            raise FsxError("split functional must be nondecreasing in t")
        ratio = v / t
        if np.any(np.diff(ratio) > 1e-10 * max(float(ratio.max(initial=0.0)), 1.0)):
            raise FsxError("K(t)/t must be nonincreasing in t")


def _space_s(spec: SpaceSpec) -> float:
    return 0.0 if spec.family == "Lp" else spec.s


def _part_norm(part: Field, spec: SpaceSpec, ref_peak: float) -> float:
    if part.peak() <= 1e-14 * ref_peak:
        return 0.0
    return norm_ignoring_mean(part, spec)


def split_candidates(u: Field, c: Couple) -> list[tuple[float, float, str]]:
    """Cost pairs (A, B) with u = a + b, ||a||_X0 = A, ||b||_X1 = B.

    Candidates: the trivial splits and every dyadic low/high cut, with the
    low-frequency part assigned to the smoother space.  The cut at j_max + 1
    keeps all of u below it, and the cut at j_min all of a zero-mean u above
    it, so both repeat a trivial split and reuse its norm.
    """
    lat = u.lattice
    fam = get_family(lat)
    peak = u.peak()
    a0, b1 = _part_norm(u, c.X0, peak), _part_norm(u, c.X1, peak)
    out = [(a0, 0.0, "all_X0"), (0.0, b1, "all_X1")]
    low_to_x1 = _space_s(c.X0) <= _space_s(c.X1)
    for j in range(fam.j_min, fam.j_max + 2):
        if j == fam.j_max + 1 or (j == fam.j_min and u.dc == 0.0):
            # u lies wholly below the cut at j_max + 1 and above the one at j_min
            out.append((0.0, b1, f"cut_j{j}") if (j > fam.j_max) == low_to_x1 else
                       (a0, 0.0, f"cut_j{j}"))
            continue
        low = Field(lat, u.coef * lowpass_values(lat, j))
        a, b = (u - low, low) if low_to_x1 else (low, u - low)
        out.append((_part_norm(a, c.X0, peak), _part_norm(b, c.X1, peak), f"cut_j{j}"))
    return out


def k_curve_upper(u: Field, c: Couple, tgrid: np.ndarray | None = None) -> KCurve:
    tgrid = default_tgrid() if tgrid is None else np.asarray(tgrid, dtype=float)
    cands = split_candidates(u, c)
    aa = np.array([a for a, _, _ in cands])
    bb = np.array([b for _, b, _ in cands])
    values = np.min(aa[None, :] + tgrid[:, None] * bb[None, :], axis=1)
    return KCurve(tgrid, values, "upper_dyadic")


def _hilbert_weight(spec: SpaceSpec):
    """Squared Plancherel weight of |xi|^2 for p = 2 potential-type spaces."""
    if spec.domain != "whole":
        raise NotHilbertCouple("exact split functional needs whole-domain spaces")
    if not math.isclose(spec.p, 2.0):
        raise NotHilbertCouple(f"exact split functional needs p = 2, got p={spec.p}")
    if spec.family == "Lp":
        return np.ones_like
    if spec.family in ("Hdot", "H"):
        return potential_sq(spec.s, bessel=spec.family == "H")
    raise NotHilbertCouple(f"family {spec.family!r} is not a p=2 potential space")


def k_curve_exact_hilbert(
    u: Field, c: Couple, tgrid: np.ndarray | None = None
) -> KCurve:
    """Quadratic-mean split functional; between K/sqrt(2) and K.

    K(t)^2 = L^n sum_k |c_k|^2 a b / (a + b) with a = w0^2 and b = t^2 w1^2,
    one row of mode_sum per t.
    """
    tgrid = default_tgrid() if tgrid is None else np.asarray(tgrid, dtype=float)
    w0, w1 = _hilbert_weight(c.X0), _hilbert_weight(c.X1)

    def harmonic(rsq: np.ndarray) -> np.ndarray:
        a = w0(rsq)[None, :]
        b = w1(rsq)[None, :] * (tgrid**2)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(a + b > 0.0, a * b / np.where(a + b > 0.0, a + b, 1.0), 0.0)

    return KCurve(tgrid, mode_sum(u, harmonic), "exact_hilbert")


def best_k_curve(u: Field, c: Couple) -> KCurve:
    try:
        return k_curve_exact_hilbert(u, c)
    except NotHilbertCouple:
        return k_curve_upper(u, c)


def log_grid_integral(
    t: np.ndarray, f: np.ndarray, slope_lo: float, slope_hi: float
) -> float:
    """Integral of f dt/t over a geometric grid t, by the trapezoid rule in log t.

    The Euler-Maclaurin end correction uses the log-slopes of f at the two
    ends (f ~ t^slope_lo at t[0], f ~ t^slope_hi at t[-1]).
    """
    logt = np.log(t)
    body = np.trapezoid(f, logt)
    h = (logt[-1] - logt[0]) / (len(logt) - 1)
    return float(body - (h * h / 12.0) * (slope_hi * float(f[-1]) - slope_lo * float(f[0])))


def interp_norm_from_curve(curve: KCurve, theta: float, q: float) -> float:
    """L^q(dt/t) norm of t^(-theta) K(t) with analytic tail terms.

    Below the grid K is modeled as linear in t (its exact small-t behavior),
    above the grid as constant (its exact large-t limit); both integrate in
    closed form.
    """
    if not (0.0 < theta < 1.0):
        raise InvalidParameter(f"theta must lie in (0, 1), got {theta}")
    _check_exponent(q, "q")
    t = curve.tgrid
    v = curve.values
    if float(v.max(initial=0.0)) == 0.0:
        return 0.0
    weighted = t ** (-theta) * v
    if math.isinf(q):
        return float(weighted.max())
    # the envelope's limiting slopes: K ~ t below the grid, K ~ const above
    body = log_grid_integral(t, weighted**q, (1.0 - theta) * q, -theta * q)
    t1, t2 = float(t[0]), float(t[-1])
    k1, k2 = float(v[0]), float(v[-1])
    lower = (k1**q) * t1 ** (-theta * q) / ((1.0 - theta) * q)
    upper = (k2**q) * t2 ** (-theta * q) / (theta * q)
    return float((max(body, 0.0) + lower + upper) ** (1.0 / q))


def real_interp_norm(u: Field, c: Couple, theta: float, q: float) -> float:
    """Interpolation norm from the best available split-functional curve."""
    if u.peak() == 0.0:
        return 0.0
    curve = best_k_curve(u, c)
    return interp_norm_from_curve(curve, theta, q)


def holder_check(
    u: Field, s0: float, s1: float, p0: float, p1: float, thetas: Sequence[float]
) -> list[float]:
    """Ratios ||u||_{s,p} / (||u||_{s0,p0}^(1-theta) ||u||_{s1,p1}^theta), one per theta.

    The target indices interpolate linearly: s = (1-theta) s0 + theta s1 and
    1/p = (1-theta)/p0 + theta/p1.  The two end-point norms are computed once
    for every theta.
    """
    if u.peak() == 0.0:
        raise ZeroField("ratio undefined for the zero field")
    for theta in thetas:
        if not (0.0 < theta < 1.0):
            raise InvalidParameter(f"theta must lie in (0, 1), got {theta}")
    den0 = sobolev_norm(u, SpaceSpec("Hdot", s=s0, p=p0))
    den1 = sobolev_norm(u, SpaceSpec("Hdot", s=s1, p=p1))
    ratios = []
    for theta in thetas:
        s = (1.0 - theta) * s0 + theta * s1
        p = 1.0 / ((1.0 - theta) / p0 + theta / p1)
        num = sobolev_norm(u, SpaceSpec("Hdot", s=s, p=p))
        den = den0 ** (1.0 - theta) * den1**theta
        if den == 0.0:
            raise ZeroField("denominator vanished")
        ratios.append(num / den)
    return ratios
