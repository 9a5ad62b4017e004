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
the horizontal transforms, which cancel.  Every table is a mirror sum of the
data on one half: a reflection writes it on the lower half and keeps the
upper one; the zero projection adds it, with the coefficients -alpha, to the
upper half and zeroes the lower one.  So one builder and cache, _operator,
keyed on the lattice, mirror coefficients, window and half, serves them all.

Every height a table reads is a rational multiple of L: a grid height r L/M,
or its mirror point -r L/(M(j+1)) of order j.  So every entry is an exact
root of unity exp(2 pi i r k / N), N = M(j+1), read from lattice.exact_phases
at the integer index r k mod N: no angle is rounded and no cosine taken.

Higher-order reflection extensions write, on the lower half, the data at
the rescaled mirror points -x_n/(j+1) combined with moment coefficients
solving a Vandermonde system.  The parity reflections are the one-term sums
with coefficient -1 or 1; a witness-set estimator for the quotient
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

MAX_REFLECTION_ORDER = 6
MOMENT_TOL = 1e-9

# Far-boundary band width as a fraction of the period.
LEAKAGE_BAND = 1.0 / 16.0


def moment_residual(alpha: Sequence[float]) -> float:
    """Largest |sum_j alpha_j (-1/(j+1))^kappa - 1| over kappa < len(alpha)."""
    x = np.array([-1.0 / (j + 1) for j in range(len(alpha))])
    return max(abs(float(np.sum(np.multiply(alpha, x**kappa))) - 1.0) for kappa in range(x.size))


def reflection_coefficients(m: int) -> tuple[float, ...]:
    """The coefficients alpha_j, j <= m, of the order-m reflection extension, which
    solve the moment system sum_j alpha_j (-1/(j+1))^kappa = 1, kappa <= m.

    The solution is the Lagrange basis for the nodes -1/(j+1) evaluated at 1.
    Its moment residual reads 1.2e-10 at m = 6 but 1.9e-8 at m = 7 and 4.8e-7
    at m = 8, over MOMENT_TOL, so orders above 6 are refused before any solve.
    It depends on m alone, so it is solved once per order; the read-only tuple
    is the mirror coefficients of the column operator's cache key.
    """
    m = whole_order(m, "reflection order")
    if m > MAX_REFLECTION_ORDER:
        raise IllConditioned(f"reflection order {m} > {MAX_REFLECTION_ORDER}")
    return _solve_reflection(m)


@lru_cache(maxsize=MAX_REFLECTION_ORDER + 1)
def _solve_reflection(m: int) -> tuple[float, ...]:
    x = np.array([-1.0 / (j + 1) for j in range(m + 1)])
    alpha = tuple(float(np.prod(1.0 - np.delete(x, j)) / np.prod(x[j] - np.delete(x, j)))
                  for j in range(m + 1))
    res = moment_residual(alpha)
    if res > MOMENT_TOL:
        raise IllConditioned(f"moment residual {res} exceeds {MOMENT_TOL}")
    return alpha


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


# ---------------------------------------------------------------------------
# Column operators: the reflections and the zero projection
# ---------------------------------------------------------------------------


_ODD, _EVEN = (-1.0,), (1.0,)  # mirror coefficients of the odd and even reflections


@lru_cache(maxsize=24)  # halfspace_solves' three lattices, five reflections, two projections
def _operator(lat: Lattice, coeffs: tuple[float, ...], window: bool,
              onto_upper: bool, /) -> tuple[np.ndarray, np.ndarray | None]:
    """The read-only kept rows of the operator that writes sum_j coeffs[j] u(-x_n/(j+1)),
    windowed or not, on the lower half (a reflection) or, onto_upper, adds it to the
    upper half and zeroes the lower one; and a reflection's energy_factor of the rest.
    Positional only and with no defaults, so that one operator has one cache key."""
    M = default_oversample(lat)
    half = M // 2 + 1  # rows j <= M/2 sit at j L/M in [0, L/2], the others at (j - M) L/M < 0
    rows = np.arange(half) if onto_upper else np.arange(half, M) - M
    table = np.zeros((M, lat.modes_per_axis), dtype=complex)
    mirror = table[:half] if onto_upper else table[half:]
    for j, a in enumerate(coeffs):  # the values at the mirror points -r L/(M(j+1))
        term = exact_phases(lat.K, -rows, M * (j + 1))
        term *= a
        mirror += term
    del term  # a lower peak
    if window:  # 1 within L/8 of the boundary plane, 0 from 2L/9 on
        mirror *= smooth_cut((6.0 / lat.L) * np.abs(rows * (lat.L / M)))[:, None]
    table[:half] += exact_phases(lat.K, np.arange(half), M)
    np.fft.fft(table, axis=0, norm="forward", out=table)
    # the tail's factor before the kept rows' copy: a lower peak
    tail = None if onto_upper else energy_factor(table[lat.K + 1 : M - lat.K])
    kept = np.concatenate([table[M - lat.K :], table[: lat.K + 1]])
    kept.flags.writeable = False
    return kept, tail


def extend_reflect(u: HalfField, m: int) -> tuple[Field, float]:
    """Higher-order reflection extension of upper-half data to the torus.

    The lower half -L/2 < x_n < 0 is overwritten by the order-m combination
    of mirrored values, times a smooth cutoff vanishing before the far face,
    which suppresses the periodic seam: for m <= 2 the witness Emw.
    Returns the projected field and the projection residual.
    """
    coeffs = reflection_coefficients(m)
    return _apply_columns(u.field, *_operator(u.field.lattice, coeffs, True, False))


def reflect_parity(u: HalfField, parity: str) -> tuple[Field, float]:
    """Odd or even reflection across x_n = 0 (mirror the upper half, then project).

    The even one mirrors with the sign 1 and the odd one with -1, neither
    windowed: the witnesses E0 and ED, whose cached operators they share.
    """
    if parity not in ("odd", "even"):
        raise InvalidParameter(f"parity must be 'odd' or 'even', got {parity!r}")
    coeffs = _ODD if parity == "odd" else _EVEN
    return _apply_columns(u.field, *_operator(u.field.lattice, coeffs, False, False))


def project_zero(u: Field, m: int) -> Field:
    """Projection onto fields vanishing on the open lower half -L/2 < x_n < 0.

    Subtracts the order-m reflection extension of the lower-half content:
    exact zero on the lower half at the sample level, idempotent as an
    operator on sampled functions, band-limited by one final projection.
    """
    coeffs = tuple(-a for a in reflection_coefficients(m))
    return _columns_through(u, _operator(u.lattice, coeffs, False, True)[0])


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


# Each witness's _operator key after the lattice, in the order the minimum
# breaks ties: E0 is the even reflection, ED the odd one.
WITNESSES = {"E0": (_EVEN, False, False),
             **{f"E{m}w": (reflection_coefficients(m), True, False) for m in range(3)},
             "ED": (_ODD, False, False)}


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
    for name, key in WITNESSES.items():
        cand = _columns_through(u.field, _operator(u.field.lattice, *key)[0])
        val = norm_ignoring_mean(cand, whole)
        if val < best:
            best, witness = val, name
    if spec.family == "Lp":
        lower = lp_norm(u.field, spec.p, domain="halfspace")
        if best < lower * (1.0 - 1e-9):
            raise FsxError(f"witness norm {best} fell below the exact half-domain bound {lower}")
    return best, witness
