"""Half-space operators on the torus strip 0 <= x_n <= L/2.

Every operator here changes a field only as a function of the height x_n:
on each vertical grid height it writes a fixed combination of the field's
values at (possibly other) heights.  The horizontal modes therefore pass
through untouched, and each operator acts on the column coef[k', :] of each
horizontal mode k' through one table: the value its output takes at each of
the M vertical grid heights j L/M, for each vertical mode.  Building an
operator is building its table and taking the DFT along x_n; applying it is
one product with the columns, whose kept rows are the output's modes and
whose discarded rows give the audited projection residual (_apply_columns).
This is the sample, overwrite and project round trip on the M^n grid, with
the horizontal transforms, which cancel, left out.  The parity reflections
and the restriction norm's witnesses (only their kept rows) are built once
per lattice, the other operators on every call.

Every height a table reads is a rational multiple of L: a grid height r L/M,
or its mirror point -r L/(M(j+1)) of order j.  So every entry is an exact
root of unity exp(2 pi i r k / N), N = M(j+1), read from lattice.exact_phases
at the integer index r k mod N: no angle is rounded and no cosine taken.

Higher-order reflection extensions write, on the lower half, the data at
the rescaled mirror points -x_n/(j+1) combined with moment coefficients
solving a Vandermonde system.  Parity reflections, the zero-boundary
projection and sharp indicator multiplication are other tables; a
witness-set estimator for the quotient (restriction) norm uses the
reflections.  Sups are norms.rectangle_rule at p = inf on only the grid
rows they cover; a HalfField's far-face leakage is one, taken on its first read.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import InitVar, dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .dyadic import smooth_cut
from .errors import FsxError, IllConditioned, InvalidParameter
from .lattice import (
    Field,
    Lattice,
    default_oversample,
    exact_phases,
    occupied,
    project_columns,
    whole_order,
)
from .norms import SpaceSpec, lp_norm, norm_ignoring_mean, rectangle_rule

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


def shifted_coefficients(rc: ReflectionCoeffs, ell: int) -> np.ndarray:
    """Coefficients of the derivative-commuted extension: alpha_j (-1/(j+1))^ell."""
    return rc.alpha * rc.nodes ** whole_order(ell, "derivative order ell")


# ---------------------------------------------------------------------------
# HalfField
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HalfField:
    """Field declared as data on the upper half {0 <= x_n <= L/2}.

    leakage is the absolute sup of |u| over the band of width L/16 hugging
    the far face x_n = L/2, where the declared data should have died out.
    It is sampled on first read and kept, unless the builder passes it as
    measured_leakage, as only poisson.materialize_poisson does.
    """

    field: Field
    measured_leakage: InitVar[float | None] = None

    def __post_init__(self, measured_leakage: float | None) -> None:
        if not isinstance(self.field, Field):
            raise InvalidParameter(f"HalfField needs a Field, got {type(self.field).__name__}")
        if measured_leakage is not None:
            self.__dict__["leakage"] = measured_leakage

    @cached_property
    def leakage(self) -> float:
        M = default_oversample(self.field.lattice)
        return rectangle_rule([(1.0, occupied(self.field))], math.inf, far_band_rows(M), M)


def far_band_rows(M: int) -> np.ndarray:
    """Vertical grid indices j of the band of width L/16 hugging the far face x_n = L/2."""
    band = max(int(M * LEAKAGE_BAND), 1)
    return np.arange(M // 2 - band, M // 2 + 1)


make_half_field = HalfField  # the name bench/workloads.py and the tests build with


def _apply_columns(coef: np.ndarray, spectral: np.ndarray, K: int) -> tuple[np.ndarray, float]:
    """Modes |k| <= K of coef's columns sent through the built operator spectral:
    the DFT along x_n, divided by M, of a table whose [j, k] is what vertical
    mode k becomes at the grid height j L/M.  Only this product depends on the
    field; its kept rows are the output's modes, and the relative l2 size of
    the discarded rows is the projection residual."""
    columns = coef.reshape(-1, coef.shape[-1])  # one row per horizontal mode
    kept, residual = project_columns(spectral @ columns.T, K)
    return kept.reshape(coef.shape[:-1] + (2 * K + 1,)), residual


# ---------------------------------------------------------------------------
# Reflection extensions
# ---------------------------------------------------------------------------


def _window_weights(dist: np.ndarray, L: float) -> np.ndarray:
    # 1 within L/8 of the boundary plane, 0 from 2L/9 on.
    return smooth_cut((6.0 / L) * np.abs(dist))


def _mirror_table(K: int, coeffs: np.ndarray, rows: np.ndarray, M: int) -> np.ndarray:
    """sum_j coeffs[j] exp(i xi_k x) at the mirror points x = -r L/(M(j+1)) of the
    heights r L/M: one row per integer r in rows, one column per mode k."""
    return sum(a * exact_phases(K, -rows, M * (j + 1)) for j, a in enumerate(coeffs))


def _extension_operator(lat: Lattice, coeffs: np.ndarray, window: bool = False) -> np.ndarray:
    """Keep the upper half, write the mirror sum of coeffs on the lower half."""
    M = default_oversample(lat)
    half = M // 2 + 1  # rows j <= M/2 sit at j L/M in [0, L/2]
    below = np.arange(half, M) - M  # the others at (j - M) L/M < 0
    table = np.empty((M, lat.modes_per_axis), dtype=complex)
    table[:half] = exact_phases(lat.K, np.arange(half), M)
    table[half:] = _mirror_table(lat.K, coeffs, below, M)
    if window:
        table[half:] *= _window_weights(below * (lat.L / M), lat.L)[:, None]
    return np.fft.fft(table, axis=0, norm="forward")


def _extension(u: Field, spectral: np.ndarray) -> tuple[Field, float]:
    coef, residual = _apply_columns(u.coef, spectral, u.lattice.K)
    return Field(u.lattice, coef), residual


@lru_cache(maxsize=2)  # one lattice's two parities; more kept megabyte tables alive between uses
def _parity_operator(lat: Lattice, parity: str) -> np.ndarray:
    """The read-only operator of the odd or even reflection on lat, built once."""
    spectral = _extension_operator(lat, np.array([-1.0 if parity == "odd" else 1.0]))
    spectral.flags.writeable = False
    return spectral


def extend_reflect(
    u: HalfField, m: int, window: bool = False, ell: int = 0
) -> tuple[Field, float]:
    """Higher-order reflection extension of upper-half data to the torus.

    The lower half -L/2 < x_n < 0 is overwritten by the order-m combination
    of mirrored values.  window multiplies the reflected part by a smooth
    cutoff vanishing before the far face, suppressing the periodic seam.
    ell rescales the coefficients for the vertical-derivative commutation.
    Returns the projected field and the projection residual.
    """
    if not isinstance(window, bool):
        raise InvalidParameter(f"window must be True or False, got {window!r}")
    rc = reflection_coefficients(m)
    spectral = _extension_operator(u.field.lattice, shifted_coefficients(rc, ell), window)
    return _extension(u.field, spectral)


def reflect_parity(u: HalfField, parity: str) -> tuple[Field, float]:
    """Odd or even reflection across x_n = 0 (mirror the upper half, then project).

    Its operator depends on the lattice alone: it is built once per lattice
    and kept, with the other parity's, until another lattice needs the cache.
    """
    if parity not in ("odd", "even"):
        raise InvalidParameter(f"parity must be 'odd' or 'even', got {parity!r}")
    return _extension(u.field, _parity_operator(u.field.lattice, parity))


def project_zero(u: Field, m: int) -> Field:
    """Projection onto fields vanishing on the open lower half -L/2 < x_n < 0.

    Subtracts the order-m reflection extension of the lower-half content:
    exact zero on the lower half at the sample level, idempotent as an
    operator on sampled functions, band-limited by one final projection.
    """
    rc = reflection_coefficients(m)
    lat = u.lattice
    M = default_oversample(lat)
    upper = np.arange(M // 2 + 1)
    table = np.zeros((M, lat.modes_per_axis), dtype=complex)
    table[: M // 2 + 1] = exact_phases(lat.K, upper, M) - _mirror_table(lat.K, rc.alpha, upper, M)
    coef, _ = _apply_columns(u.coef, np.fft.fft(table, axis=0, norm="forward"), lat.K)
    return Field(lat, coef)


def lower_half_defect(p0u: Field) -> float:
    """Sup of |v| over the open lower half; the projection's vanishing defect."""
    M = default_oversample(p0u.lattice)
    return rectangle_rule([(1.0, occupied(p0u))], math.inf, np.arange(M // 2 + 1, M), M)


def indicator_multiply(u: Field, enlarge: int = 4) -> tuple[Field, float]:
    """Multiply by the sharp indicator of {0 <= x_n < L/2}.

    The output is projected to an enlarged lattice (bandlimit enlarge * K) to
    capture the slowly decaying tail the cut creates; the discarded-tail
    residual is returned alongside.  The cut only acts along x_n, so the
    output's horizontal modes stay those of u, |k'| <= K.
    """
    if isinstance(enlarge, bool) or not isinstance(enlarge, numbers.Integral) or enlarge < 1:
        raise InvalidParameter(f"enlarge must be an integer >= 1, got {enlarge!r}")
    lat = u.lattice
    big = Lattice(lat.n, int(enlarge) * lat.K, lat.L)
    M = default_oversample(big, factor=2)
    table = np.zeros((M, lat.modes_per_axis), dtype=complex)
    table[: M // 2] = exact_phases(lat.K, np.arange(M // 2), M)
    coef, residual = _apply_columns(u.coef, np.fft.fft(table, axis=0, norm="forward"), big.K)
    out = np.zeros(big.mode_shape, dtype=complex)
    inner = slice(big.K - lat.K, big.K + lat.K + 1)
    out[(inner,) * (lat.n - 1)] = coef
    return Field(big, out), residual


# ---------------------------------------------------------------------------
# Restriction (quotient) norm estimation
# ---------------------------------------------------------------------------


WITNESSES = tuple(f"E{m}{w}" for m in range(5) for w in ("", "w")) + ("ED",)


@lru_cache(maxsize=4)  # halfspace_solves walks three lattices
def _witness_operators(lat: Lattice) -> np.ndarray:
    """Read-only kept rows |q| <= K, in mode order, of each witness's operator
    on lat, in the order of WITNESSES; one M-row operator is alive at a time."""
    ops = np.empty((len(WITNESSES), lat.modes_per_axis, lat.modes_per_axis), dtype=complex)
    for i, name in enumerate(WITNESSES):
        coeffs = np.array([-1.0]) if name == "ED" else reflection_coefficients(int(name[1])).alpha
        spectral = _extension_operator(lat, coeffs, window=name.endswith("w"))
        ops[i] = project_columns(spectral, lat.K)[0].T
    ops.flags.writeable = False
    return ops


def extension_candidates(u: HalfField) -> Iterator[tuple[str, Field]]:
    """The witness extensions (name, field), one at a time: plain and windowed
    reflections of orders 0-4, then the odd one ED (the even one is E0), each one
    product of u's columns with its cached kept rows, and no projection residual."""
    lat, coef = u.field.lattice, u.field.coef
    columns = coef.reshape(-1, coef.shape[-1])  # one row per horizontal mode
    for name, op in zip(WITNESSES, _witness_operators(lat)):
        yield name, Field(lat, np.ascontiguousarray((op @ columns.T).T).reshape(coef.shape))


def restriction_norm(u: HalfField, spec: SpaceSpec) -> tuple[float, str]:
    """Upper bound on the quotient norm inf {||U||_X : U|_half = u}.

    Minimizes the whole-space norm over the witness extensions, streamed one
    at a time, and returns the value with the winning witness id.  For the Lp
    family the exact half-domain quadrature is a lower bound on the value.
    """
    if not isinstance(u, HalfField):
        raise InvalidParameter(f"restriction_norm needs a HalfField, got {type(u).__name__}")
    if spec.domain != "halfspace":
        raise InvalidParameter("restriction_norm needs a halfspace-domain spec")
    whole = replace(spec, domain="whole")
    best, witness = math.inf, ""
    for name, cand in extension_candidates(u):
        val = norm_ignoring_mean(cand, whole)
        if val < best:
            best, witness = val, name
    if spec.family == "Lp":
        lower = lp_norm(u.field, spec.p, domain="halfspace")
        if best < lower * (1.0 - 1e-9):
            raise FsxError(f"witness norm {best} fell below the exact half-domain bound {lower}")
    return best, witness
