"""Half-space operators on the torus strip 0 <= x_n <= L/2.

Every operator here changes a field only as a function of the height x_n:
on each vertical grid height it writes a fixed combination of the field's
values at (possibly other) heights.  The horizontal modes therefore pass
through untouched, and each operator acts on the column coef[k', :] of each
horizontal mode k' through one table: the value its output takes at each of
the M vertical grid heights j L/M, for each vertical mode.  Building an
operator is building its table and taking the DFT along x_n; applying it is
one product of its kept rows |q| <= K with the columns, and the relative l2
size of the product of its discarded rows' triangular factor
(lattice.energy_factor) is the audited projection residual (_apply_columns).
This is the sample, overwrite and project round trip on the M^n grid, less
the horizontal transforms, which cancel.  One cache, _operator, keeps every
reflection's kept rows and factor, keyed on the lattice, mirror coefficients
and window; the parities, extensions and witnesses share it.  _zero_operator
keeps the zero projection's kept rows per order.

Every height a table reads is a rational multiple of L: a grid height r L/M,
or its mirror point -r L/(M(j+1)) of order j.  So every entry is an exact
root of unity exp(2 pi i r k / N), N = M(j+1), read from lattice.exact_phases
at the integer index r k mod N: no angle is rounded and no cosine taken.

Higher-order reflection extensions write, on the lower half, the data at
the rescaled mirror points -x_n/(j+1) combined with moment coefficients
solving a Vandermonde system.  Parity reflections and the zero-boundary
projection are other tables; a witness-set estimator for the quotient
(restriction) norm uses the reflections.  The sharp indicator needs no table
and no grid: its product is the Toeplitz convolution of the columns with the
closed-form half-period weights, exact, and it is computed as its column block
(indicator_columns), the input's horizontal modes times the vertical modes
|a| <= 4K.  The dense field of bandlimit 4K, zero off that block, is only
indicator_multiply's output format.  Sups are norms.rectangle_rule at
p = inf on only the grid rows they cover; a HalfField's far-face leakage is
one, taken on its first read.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .dyadic import smooth_cut
from .errors import FsxError, IllConditioned, InvalidParameter
from .lattice import (
    Field,
    Lattice,
    default_oversample,
    energy_factor,
    exact_phases,
    occupied,
    whole_order,
)
from .norms import SpaceSpec, half_period_weights, lp_norm, norm_ignoring_mean, rectangle_rule

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
    which stays well-conditioned through m = 8.  It depends on m alone, so it
    is solved once per order, and its alpha is read-only.
    """
    m = whole_order(m, "reflection order")
    if m > MAX_REFLECTION_ORDER:
        raise IllConditioned(f"reflection order {m} > {MAX_REFLECTION_ORDER}")
    return _solve_reflection(m)


@lru_cache(maxsize=MAX_REFLECTION_ORDER + 1)
def _solve_reflection(m: int) -> ReflectionCoeffs:
    x = np.array([-1.0 / (j + 1) for j in range(m + 1)])
    alpha = np.empty(m + 1)
    for j in range(m + 1):
        others = np.delete(x, j)
        alpha[j] = np.prod(1.0 - others) / np.prod(x[j] - others)
    alpha.flags.writeable = False
    rc = ReflectionCoeffs(m, alpha)
    res = rc.moment_residual()
    if res > MOMENT_TOL:
        raise IllConditioned(f"moment residual {res} exceeds {MOMENT_TOL}")
    return rc


# ---------------------------------------------------------------------------
# HalfField
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HalfField:
    """Field declared as data on the upper half {0 <= x_n <= L/2}.

    leakage is the absolute sup of |u| over the band of width L/16 hugging
    the far face x_n = L/2, where the declared data should have died out.
    It is sampled on first read and kept.
    """

    field: Field

    def __post_init__(self) -> None:
        if not isinstance(self.field, Field):
            raise InvalidParameter(f"HalfField needs a Field, got {type(self.field).__name__}")

    @cached_property
    def leakage(self) -> float:
        M = default_oversample(self.field.lattice)
        return rectangle_rule([(1.0, occupied(self.field))], math.inf, far_band_rows(M), M)


def far_band_rows(M: int) -> np.ndarray:
    """Vertical grid indices j of the band of width L/16 hugging the far face x_n = L/2."""
    band = max(int(M * LEAKAGE_BAND), 1)
    return np.arange(M // 2 - band, M // 2 + 1)


make_half_field = HalfField  # the name bench/workloads.py and the tests build with


def _columns_through(u: Field, kept: np.ndarray) -> Field:
    """u's columns, one per horizontal mode, sent through an operator's kept rows."""
    out = kept @ u.coef.reshape(-1, u.coef.shape[-1]).T
    return Field(u.lattice, np.ascontiguousarray(out.T).reshape(u.coef.shape))


def _apply_columns(u: Field, kept: np.ndarray, tail: np.ndarray) -> tuple[Field, float]:
    """_columns_through, and the relative l2 size of tail @ columns, for tail the
    energy_factor of the operator's discarded rows: the projection residual."""
    out = _columns_through(u, kept)
    lost = tail @ u.coef.reshape(-1, u.coef.shape[-1]).T
    lost_sq, kept_sq = float(np.vdot(lost, lost).real), float(np.vdot(out.coef, out.coef).real)
    return out, (math.sqrt(lost_sq / (lost_sq + kept_sq)) if lost_sq > 0.0 else 0.0)


def _kept_rows(spectral: np.ndarray, K: int) -> np.ndarray:
    """The read-only rows |q| <= K, in mode order, of a built operator."""
    kept = np.concatenate([spectral[spectral.shape[0] - K :], spectral[: K + 1]])
    kept.flags.writeable = False
    return kept


# ---------------------------------------------------------------------------
# Reflection extensions
# ---------------------------------------------------------------------------


def _mirror_table(K: int, coeffs: Sequence[float], rows: np.ndarray, M: int,
                  out: np.ndarray) -> None:
    """Add sum_j coeffs[j] exp(i xi_k x) at the mirror points x = -r L/(M(j+1)) of
    the heights r L/M into out, in place: one row per integer r in rows, one
    column per mode k."""
    for j, a in enumerate(coeffs):
        term = exact_phases(K, -rows, M * (j + 1))
        term *= a
        out += term


_ODD, _EVEN = (-1.0,), (1.0,)  # mirror coefficients of the odd and even reflections


@lru_cache(maxsize=16)  # halfspace_solves' three lattices, five operators each
def _operator(lat: Lattice, coeffs: tuple[float, ...],
              window: bool, /) -> tuple[np.ndarray, np.ndarray]:
    """Keep the upper half, write the mirror sum of coeffs on the lower half,
    windowed or not: the operator's read-only kept rows and the energy_factor of
    the rest.  Positional only, so that one operator has one cache key."""
    M = default_oversample(lat)
    half = M // 2 + 1  # rows j <= M/2 sit at j L/M in [0, L/2]
    below = np.arange(half, M) - M  # the others at (j - M) L/M < 0
    table = np.zeros((M, lat.modes_per_axis), dtype=complex)
    table[:half] = exact_phases(lat.K, np.arange(half), M)
    _mirror_table(lat.K, coeffs, below, M, table[half:])
    if window:  # 1 within L/8 of the boundary plane, 0 from 2L/9 on
        table[half:] *= smooth_cut((6.0 / lat.L) * np.abs(below * (lat.L / M)))[:, None]
    np.fft.fft(table, axis=0, norm="forward", out=table)
    tail = energy_factor(table[lat.K + 1 : M - lat.K])  # before the kept rows' copy: a lower peak
    return _kept_rows(table, lat.K), tail


def extend_reflect(u: HalfField, m: int) -> tuple[Field, float]:
    """Higher-order reflection extension of upper-half data to the torus.

    The lower half -L/2 < x_n < 0 is overwritten by the order-m combination
    of mirrored values, times a smooth cutoff vanishing before the far face,
    which suppresses the periodic seam: for m <= 2 the witness Emw.
    Returns the projected field and the projection residual.
    """
    coeffs = tuple(reflection_coefficients(m).alpha)
    return _apply_columns(u.field, *_operator(u.field.lattice, coeffs, True))


def reflect_parity(u: HalfField, parity: str) -> tuple[Field, float]:
    """Odd or even reflection across x_n = 0 (mirror the upper half, then project).

    The even one mirrors with the sign 1 and the odd one with -1, neither
    windowed: the witnesses E0 and ED, whose cached operators they share.
    """
    if parity not in ("odd", "even"):
        raise InvalidParameter(f"parity must be 'odd' or 'even', got {parity!r}")
    coeffs = _ODD if parity == "odd" else _EVEN
    return _apply_columns(u.field, *_operator(u.field.lattice, coeffs, False))


def project_zero(u: Field, m: int) -> Field:
    """Projection onto fields vanishing on the open lower half -L/2 < x_n < 0.

    Subtracts the order-m reflection extension of the lower-half content:
    exact zero on the lower half at the sample level, idempotent as an
    operator on sampled functions, band-limited by one final projection.
    """
    return _columns_through(u, _zero_operator(u.lattice, reflection_coefficients(m).m))


@lru_cache(maxsize=8)  # halfspace_solves' three lattices, m = 0 and 1 each
def _zero_operator(lat: Lattice, m: int) -> np.ndarray:
    """The read-only kept rows of project_zero's operator of order m on lat."""
    alpha = reflection_coefficients(m).alpha
    M = default_oversample(lat)
    upper = np.arange(M // 2 + 1)
    table = np.zeros((M, lat.modes_per_axis), dtype=complex)
    _mirror_table(lat.K, -alpha, upper, M, table[: M // 2 + 1])  # the data less the mirror sum
    table[: M // 2 + 1] += exact_phases(lat.K, upper, M)
    return _kept_rows(np.fft.fft(table, axis=0, norm="forward", out=table), lat.K)


def lower_half_defect(p0u: Field) -> float:
    """Sup of |v| over the open lower half; the projection's vanishing defect."""
    M = default_oversample(p0u.lattice)
    return rectangle_rule([(1.0, occupied(p0u))], math.inf, np.arange(M // 2 + 1, M), M)


def indicator_columns(u: Field) -> tuple[np.ndarray, float]:
    """Multiply by the sharp indicator of {0 <= x_n < L/2}, exactly: the product's
    column block, and the residual.

    The cut only acts along x_n, so the product's horizontal modes stay those
    of u, |k'| <= K, and its vertical modes are the Toeplitz convolution
    out[k', a] = sum_b h(a - b) c[k', b] with the half_period_weights h, kept
    to |a| <= 4K for the slowly decaying tail the cut creates.  The block has
    shape u.coef.shape[:-1] + (8K+1,), and its shells are
    lattice.column_shells(lat, 4K).  The residual is the relative l2 size of
    the discarded tail, exact by Parseval: the strip energy
    sum conj(c_b) h(b - b2) c_b2 of the columns less the kept energy.
    """
    lat = u.lattice
    h = half_period_weights(5 * lat.K)
    i, j = np.arange(8 * lat.K + 1), np.arange(lat.modes_per_axis)
    columns = u.coef.reshape(-1, lat.modes_per_axis)
    coef = columns @ h[i[None, :] - j[:, None] + 2 * lat.K]
    strip = float(np.vdot(columns, columns @ h[j[None, :] - j[:, None] + 5 * lat.K]).real)
    kept = float(np.vdot(coef, coef).real)
    residual = math.sqrt(max(strip - kept, 0.0) / strip) if strip > 0.0 else 0.0
    return coef.reshape(u.coef.shape[:-1] + (i.size,)), residual


def indicator_multiply(u: Field) -> tuple[Field, float]:
    """The sharp cut of indicator_columns as a Field on the lattice of bandlimit 4K.

    The cut is computed as its column block; the dense field, zero outside
    the block's horizontal modes |k'| <= K, is only this function's output
    format.
    """
    lat = u.lattice
    big = Lattice(lat.n, 4 * lat.K, lat.L)
    block, residual = indicator_columns(u)
    out = np.zeros(big.mode_shape, dtype=complex)
    inner = slice(big.K - lat.K, big.K + lat.K + 1)
    out[(inner,) * (lat.n - 1)] = block
    return Field(big, out), residual


# ---------------------------------------------------------------------------
# Restriction (quotient) norm estimation
# ---------------------------------------------------------------------------


# Each witness's _operator key (mirror coefficients, window), in the order the
# minimum breaks ties: E0 is the even reflection, ED the odd one.
WITNESSES = {"E0": (_EVEN, False),
             **{f"E{m}w": (tuple(reflection_coefficients(m).alpha), True) for m in range(3)},
             "ED": (_ODD, False)}


def restriction_norm(u: HalfField, spec: SpaceSpec) -> tuple[float, str]:
    """Upper bound on the quotient norm inf {||U||_X : U|_half = u}.

    Minimizes the whole-space norm over the witness extensions, one at a time,
    and returns the value with the winning witness id.  The witnesses are the
    reflections that win on suite and corpus fields: the even and odd ones (E0,
    ED) and the windowed ones of orders 0-2 (E0w, E1w, E2w); the other orders
    won only on random full-spectrum fields at K <= 3.  For the Lp family the
    exact half-domain quadrature is a lower bound on the value.
    """
    if not isinstance(u, HalfField):
        raise InvalidParameter(f"restriction_norm needs a HalfField, got {type(u).__name__}")
    if spec.domain != "halfspace":
        raise InvalidParameter("restriction_norm needs a halfspace-domain spec")
    whole = replace(spec, domain="whole")
    best, witness = math.inf, ""
    for name, (coeffs, window) in WITNESSES.items():
        cand = _columns_through(u.field, _operator(u.field.lattice, coeffs, window)[0])
        val = norm_ignoring_mean(cand, whole)
        if val < best:
            best, witness = val, name
    if spec.family == "Lp":
        lower = lp_norm(u.field, spec.p, domain="halfspace")
        if best < lower * (1.0 - 1e-9):
            raise FsxError(f"witness norm {best} fell below the exact half-domain bound {lower}")
    return best, witness
