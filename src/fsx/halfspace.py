"""Half-space operators on the torus strip 0 <= x_n <= L/2.

Higher-order reflection extensions sample the data at the rescaled mirror
points -x_n/(j+1) (off-grid, evaluated exactly), combine them with moment
coefficients solving a Vandermonde system, and project back to the lattice
with an audited residual.  Parity reflections, the zero-boundary projection,
sharp indicator multiplication, and a witness-set estimator for the quotient
(restriction) norm build on the same sampling pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dyadic import smooth_cut
from .errors import FsxError, IllConditioned, InvalidParameter, LeakageTooLarge
from .lattice import (
    Field,
    Lattice,
    default_oversample,
    project_bandlimited,
    sample_grid,
    sample_slices,
    SampleGrid,
)
from .norms import SpaceSpec, lp_norm, norm_ignoring_mean

MAX_REFLECTION_ORDER = 8
MOMENT_TOL = 1e-9

# Far-boundary band width as a fraction of the period.
LEAKAGE_BAND = 1.0 / 16.0


@dataclass(frozen=True)
class ReflectionCoeffs:
    """Coefficients alpha_j of the order-m reflection extension."""

    m: int
    alpha: np.ndarray

    @property
    def nodes(self) -> np.ndarray:
        return np.array([-1.0 / (j + 1) for j in range(self.m + 1)])

    def moment_residual(self) -> float:
        x = self.nodes
        return max(
            abs(float(np.sum(self.alpha * x**kappa)) - 1.0) for kappa in range(self.m + 1)
        )


def reflection_coefficients(m: int) -> ReflectionCoeffs:
    """Solve the moment system sum_j alpha_j (-1/(j+1))^kappa = 1, kappa <= m.

    The solution is the Lagrange basis for the nodes -1/(j+1) evaluated at 1,
    which stays well-conditioned through m = 8.
    """
    if m < 0 or int(m) != m:
        raise InvalidParameter(f"order must be a nonnegative integer, got {m}")
    if m > MAX_REFLECTION_ORDER:
        raise IllConditioned(f"reflection order {m} > {MAX_REFLECTION_ORDER}")
    x = np.array([-1.0 / (j + 1) for j in range(m + 1)])
    alpha = np.empty(m + 1)
    for j in range(m + 1):
        others = np.delete(x, j)
        alpha[j] = np.prod(1.0 - others) / np.prod(x[j] - others)
    rc = ReflectionCoeffs(int(m), alpha)
    res = rc.moment_residual()
    if res > MOMENT_TOL:
        raise IllConditioned(f"moment residual {res} exceeds {MOMENT_TOL}")
    return rc


def shifted_coefficients(rc: ReflectionCoeffs, ell: int) -> np.ndarray:
    """Coefficients of the derivative-commuted extension: alpha_j (-1/(j+1))^ell."""
    return rc.alpha * rc.nodes**ell


# ---------------------------------------------------------------------------
# HalfField
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HalfField:
    """Field declared as data on the upper half {0 <= x_n <= L/2}.

    leakage is the absolute sup of |u| over the band of width L/16 hugging
    the far face x_n = L/2, where the declared data should have died out.
    """

    field: Field
    leakage: float


def _samples(u: Field) -> tuple[int, np.ndarray]:
    """The half-space grid size M and the (writable) samples of u on it."""
    M = default_oversample(u.lattice)
    return M, sample_grid(u, M).values


def _signed_vertical(M: int, L: float) -> np.ndarray:
    """Signed strip coordinate of each vertical grid index (in (-L/2, L/2])."""
    j = np.arange(M)
    s = j * (L / M)
    return np.where(j > M // 2, s - L, s)


def _leakage_of_values(values: np.ndarray, M: int) -> float:
    band = max(int(M * LEAKAGE_BAND), 1)
    cols = np.arange(M // 2 - band, M // 2 + 1)
    return float(np.max(np.abs(values[..., cols])))


def make_half_field(f: Field) -> HalfField:
    M, values = _samples(f)
    return HalfField(f, _leakage_of_values(values, M))


def half_peak(u: HalfField) -> float:
    """Sup of |u| over the upper half (grid estimate)."""
    M, values = _samples(u.field)
    return float(np.max(np.abs(values[..., : M // 2 + 1])))


# ---------------------------------------------------------------------------
# Reflection extensions
# ---------------------------------------------------------------------------


def _window_weights(dist: np.ndarray, L: float) -> np.ndarray:
    # 1 within L/8 of the boundary plane, 0 from 2L/9 on.
    return smooth_cut((6.0 / L) * np.abs(dist))


def _check_leakage(u: HalfField, max_leakage: float | None) -> None:
    if max_leakage is None:
        return
    scale = half_peak(u)
    if scale > 0.0 and u.leakage > max_leakage * scale:
        raise LeakageTooLarge(
            f"far-boundary leakage {u.leakage:.3e} exceeds "
            f"{max_leakage:.1e} x peak {scale:.3e}"
        )


def _mirror_sum(u: Field, coeffs: np.ndarray, heights: np.ndarray, M: int) -> np.ndarray:
    """sum_j coeffs[j] u(x', -heights / (j+1)) on the x'-grid, heights on the last axis.

    One exact slice evaluation per coefficient.
    """
    acc = None
    for j, a in enumerate(coeffs):
        slices = sample_slices(u, -heights / (j + 1), M)  # (T, M^{n-1})
        part = a * np.moveaxis(slices, 0, -1) if u.lattice.n > 1 else a * slices
        acc = part if acc is None else acc + part
    return acc


def extend_reflect(
    u: HalfField,
    m: int,
    window: bool = False,
    ell: int = 0,
    max_leakage: float | None = None,
) -> tuple[Field, float]:
    """Higher-order reflection extension of upper-half data to the torus.

    The lower half -L/2 < x_n < 0 is overwritten by the order-m combination
    of mirrored samples.  window multiplies the reflected part by a smooth
    cutoff vanishing before the far face, suppressing the periodic seam.
    ell rescales the coefficients for the vertical-derivative commutation.
    Returns the projected field and the projection residual.
    """
    _check_leakage(u, max_leakage)
    rc = reflection_coefficients(m)
    coeffs = shifted_coefficients(rc, ell) if ell else rc.alpha
    lat = u.field.lattice
    M, values = _samples(u.field)
    sn = _signed_vertical(M, lat.L)
    lower = np.nonzero(sn < 0.0)[0]
    acc = _mirror_sum(u.field, coeffs, sn[lower], M)
    if window:
        acc = acc * _window_weights(sn[lower], lat.L)
    values[..., lower] = acc
    return project_bandlimited(SampleGrid(lat, M, values), lat)


def reflect_parity(
    u: HalfField, parity: str, max_leakage: float | None = None
) -> tuple[Field, float]:
    """Odd or even reflection across x_n = 0 (pure grid flip, then project)."""
    if parity not in ("odd", "even"):
        raise InvalidParameter(f"parity must be 'odd' or 'even', got {parity!r}")
    _check_leakage(u, max_leakage)
    lat = u.field.lattice
    M, values = _samples(u.field)
    sign = -1.0 if parity == "odd" else 1.0
    lower = np.nonzero(_signed_vertical(M, lat.L) < 0.0)[0]
    values[..., lower] = sign * values[..., M - lower]  # the mirrored grid point
    return project_bandlimited(SampleGrid(lat, M, values), lat)


def project_zero(u: Field, m: int) -> Field:
    """Projection onto fields vanishing on the open lower half -L/2 < x_n < 0.

    Subtracts the order-m reflection extension of the lower-half content:
    exact zero on the lower half at the sample level, idempotent as an
    operator on sampled functions, band-limited by one final projection.
    """
    rc = reflection_coefficients(m)
    lat = u.lattice
    M, values = _samples(u)
    sn = _signed_vertical(M, lat.L)
    lower = sn < 0.0
    upper = np.nonzero(~lower)[0]
    acc = _mirror_sum(u, rc.alpha, sn[upper], M)
    values[..., upper] -= acc
    values[..., lower] = 0.0
    field, _ = project_bandlimited(SampleGrid(lat, M, values), lat)
    return field


def lower_half_defect(p0u: Field) -> float:
    """Sup of |v| over the open lower half; the projection's vanishing defect."""
    M, values = _samples(p0u)
    return float(np.max(np.abs(values[..., _signed_vertical(M, p0u.lattice.L) < 0.0])))


def indicator_multiply(u: Field, enlarge: int = 4) -> tuple[Field, float]:
    """Multiply by the sharp indicator of {0 <= x_n < L/2}.

    The output is projected to an enlarged lattice (bandlimit enlarge * K) to
    capture the slowly decaying tail the cut creates; the discarded-tail
    residual is returned alongside.
    """
    lat = u.lattice
    big = Lattice(lat.n, enlarge * lat.K, lat.L)
    M = default_oversample(big, factor=2)
    values = sample_grid(u, M).values.copy()
    j = np.arange(M)
    values[..., j >= M // 2] = 0.0
    return project_bandlimited(SampleGrid(big, M, values), big)


# ---------------------------------------------------------------------------
# Restriction (quotient) norm estimation
# ---------------------------------------------------------------------------


def extension_candidates(
    u: HalfField, orders: tuple[int, ...] = (0, 1, 2, 3, 4)
) -> dict[str, tuple[Field, float]]:
    """Witness set of extensions: plain and windowed reflections, parities."""
    out: dict[str, tuple[Field, float]] = {}
    for m in orders:
        out[f"E{m}"] = extend_reflect(u, m)
        out[f"E{m}w"] = extend_reflect(u, m, window=True)
    out["ED"] = reflect_parity(u, "odd")
    out["EN"] = reflect_parity(u, "even")
    return out


def restriction_norm(
    u: HalfField, spec: SpaceSpec, orders: tuple[int, ...] = (0, 1, 2, 3, 4)
) -> tuple[float, str]:
    """Upper bound on the quotient norm inf {||U||_X : U|_half = u}.

    Minimizes the whole-space norm over the witness extension set and returns
    the value with the winning witness id.  For the Lp family the exact
    half-domain quadrature is a lower bound, asserted not to exceed the value.
    """
    if spec.domain != "halfspace":
        raise InvalidParameter("restriction_norm needs a halfspace-domain spec")
    whole = replace(spec, domain="whole")
    best = math.inf
    witness = ""
    for name, (cand, _res) in extension_candidates(u, orders).items():
        val = norm_ignoring_mean(cand, whole)
        if val < best:
            best, witness = val, name
    if spec.family == "Lp":
        lower = lp_norm(u.field, spec.p, domain="halfspace")
        if best < lower * (1.0 - 1e-9):
            raise FsxError(
                f"witness norm {best} fell below the exact half-domain bound {lower}"
            )
    return best, witness
