"""Frequency lattice and band-limited fields with exact pointwise evaluation.

The continuum is modeled by the torus [0, L)^n with default L = 2*pi, so mode
k carries the frequency xi = (2*pi/L) * k and every Fourier multiplier acts
exactly on the finitely many stored modes.  Quadrature error only enters via
sampled grids, and only where no grid is exact (see exact_grid).  Every
sampled value comes from one sampler, grid_slabs, on the torus and on the
strip alike: one pruned transform along x_n, then whole heights in slabs.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
import os
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterator

import numpy as np

from .errors import (AliasingRisk, BandlimitExceeded, HomogeneousDCViolation, InvalidParameter,
                     IoError)

TWO_PI = 2.0 * math.pi

# Relative DC tolerance below which a field counts as zero-mean.
DC_TOL = 1e-12


@dataclass(frozen=True)
class Lattice:
    """Frequency lattice: dimension n, per-axis bandlimit K, period L."""

    n: int
    K: int
    L: float = TWO_PI

    @property
    def freq_scale(self) -> float:
        return TWO_PI / self.L

    @property
    def modes_per_axis(self) -> int:
        return 2 * self.K + 1

    @property
    def mode_shape(self) -> tuple[int, ...]:
        return (2 * self.K + 1,) * self.n

    def boundary(self) -> "Lattice":
        """Lattice of the hyperplane spanned by the first n-1 axes."""
        if self.n < 2:
            raise InvalidParameter("boundary lattice needs n >= 2")
        return Lattice(self.n - 1, self.K, self.L)


def make_lattice(n: int, K: int, L: float = TWO_PI) -> Lattice:
    if n < 1:
        raise InvalidParameter(f"dimension must be >= 1, got {n}")
    if K < 1:
        raise InvalidParameter(f"bandlimit must be >= 1, got {K}")
    if not (math.isfinite(L) and L > 0):
        raise InvalidParameter(f"period must be positive and finite, got {L}")
    return Lattice(int(n), int(K), float(L))


def default_oversample(lat: Lattice) -> int:
    """Samples per axis: 8K rounded up to a power of two."""
    return 1 << (8 * lat.K - 1).bit_length()


def exact_grid(lat: Lattice, p: float, whole: bool = True) -> int:
    """Samples per axis for the rectangle rule of the integral of |u|^p: the M
    that grid_slabs, the one sampler, is asked for on either domain.

    For even integer p on the whole torus, |u|^p = (u conj(u))^(p/2) is
    band-limited at pK, so the rectangle rule is exact on every M > pK; this
    returns the smallest 2*3*5-smooth such M that is also at least 2K+2, the
    floor of grid_slabs; for a field on a smaller band, pass occupied(u)'s
    lattice.  Every other exponent, and the strip's half interval
    (whole=False, the heights below M/2), has no exact grid and gets
    default_oversample.
    """
    if not has_exact_grid(p, whole):
        return default_oversample(lat)
    M = max(int(p) * lat.K + 1, 2 * lat.K + 2)
    while not _is_smooth(M):
        M += 1
    return M


def has_exact_grid(p: float, whole: bool = True) -> bool:
    """True when the rectangle rule for |u|^p is exact: even integer p, whole torus."""
    return whole and math.isfinite(p) and p % 2 == 0


def _is_smooth(m: int) -> bool:
    """True when m has no prime factor above 5 (a fast FFT length)."""
    for f in (2, 3, 5):
        while m % f == 0:
            m //= f
    return m == 1


@lru_cache(maxsize=128)
def k_axis(K: int) -> np.ndarray:
    ks = np.arange(-K, K + 1)
    ks.flags.writeable = False
    return ks


@lru_cache(maxsize=128)
def xi_axes(lat: Lattice) -> tuple[np.ndarray, ...]:
    """Per-axis frequency values, index i <-> mode k = i - K."""
    out = []
    for _ in range(lat.n):
        xi = lat.freq_scale * k_axis(lat.K).astype(float)
        xi.flags.writeable = False
        out.append(xi)
    return tuple(out)


@lru_cache(maxsize=128)
def shells(lat: Lattice) -> np.ndarray:
    """The integer |k|^2 on the full mode grid: the shell of each mode, on which
    every radial symbol is constant."""
    return _outer_shells([lat.K] * lat.n)


@lru_cache(maxsize=16)
def column_shells(lat: Lattice, Kn: int) -> np.ndarray:
    """The integer |k'|^2 + a^2 over lat's horizontal modes k' and the vertical
    modes |a| <= Kn: the shells of a block of columns reaching vertical bandlimit
    Kn, such as halfspace.indicator_columns' at Kn = 4K."""
    return _outer_shells([lat.K] * (lat.n - 1) + [Kn])


def _outer_shells(bandlimits: list[int]) -> np.ndarray:
    total = reduce(np.add.outer, [k_axis(K) ** 2 for K in bandlimits])
    total.flags.writeable = False
    return total


@lru_cache(maxsize=128)
def xi_norm_sq(lat: Lattice) -> np.ndarray:
    """|xi|^2 = (2 pi/L)^2 |k|^2 on the full mode grid."""
    total = lat.freq_scale**2 * shells(lat)
    total.flags.writeable = False
    return total


@lru_cache(maxsize=128)
def chebyshev_radius(lat: Lattice) -> np.ndarray:
    """max_a |k_a| on the full mode grid: the least bandlimit holding mode k."""
    r = reduce(np.maximum.outer, [np.abs(k_axis(lat.K))] * lat.n)
    r.flags.writeable = False
    return r


@lru_cache(maxsize=128)
def xi_norm(lat: Lattice) -> np.ndarray:
    r = np.sqrt(xi_norm_sq(lat))
    r.flags.writeable = False
    return r


@dataclass(frozen=True, eq=False)
class Field:
    """Band-limited trigonometric polynomial stored as a dense mode array.

    coef[i_1, ..., i_n] is the amplitude of mode k = (i_1 - K, ..., i_n - K).
    Treated as immutable; operations return new fields.
    """

    lattice: Lattice
    coef: np.ndarray

    def __post_init__(self):
        if self.coef.shape != self.lattice.mode_shape:
            raise InvalidParameter(
                f"coef shape {self.coef.shape} != {self.lattice.mode_shape}"
            )

    def copy(self) -> "Field":
        return Field(self.lattice, self.coef.copy())

    def __add__(self, other: "Field") -> "Field":
        _check_same_lattice(self, other)
        return Field(self.lattice, self.coef + other.coef)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_lattice(self, other)
        return Field(self.lattice, self.coef - other.coef)

    def __mul__(self, scalar: complex) -> "Field":
        return Field(self.lattice, self.coef * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.lattice, -self.coef)

    @property
    def dc(self) -> complex:
        return complex(self.coef[(self.lattice.K,) * self.lattice.n])

    def peak(self) -> float:
        return float(np.max(np.abs(self.coef)))


def occupied(u: Field) -> Field:
    """The same function on the smallest lattice (K' >= 1) holding its nonzero
    modes, or u itself when K' = K: its samples on any grid are u's.  The
    smaller band is a copy, so u's own array need not outlive it."""
    lat = u.lattice
    K = int(chebyshev_radius(lat)[u.coef != 0].max(initial=1))
    if K == lat.K:
        return u
    inner = (slice(lat.K - K, lat.K + K + 1),) * lat.n
    return Field(Lattice(lat.n, K, lat.L), u.coef[inner].copy())


def _check_same_lattice(u: Field, v: Field) -> None:
    if u.lattice != v.lattice:
        raise InvalidParameter("fields live on different lattices")


def zero_field(lat: Lattice) -> Field:
    return Field(lat, np.zeros(lat.mode_shape, dtype=complex))


def plane_wave(lat: Lattice, k: tuple[int, ...], amp: complex = 1.0) -> Field:
    """Single mode amp * exp(i xi_k . x)."""
    return field_from_modes(lat, {k: amp})


def field_from_modes(lat: Lattice, modes: dict[tuple[int, ...], complex]) -> Field:
    """Field with the given amplitude at each mode index k = (k_1, ..., k_n)."""
    u = zero_field(lat)
    for k, c in modes.items():
        k = tuple(int(ci) for ci in k)
        if len(k) != lat.n:
            raise InvalidParameter(f"mode index has length {len(k)}, lattice n={lat.n}")
        if any(abs(ci) > lat.K for ci in k):
            raise BandlimitExceeded(f"mode {k} outside bandlimit {lat.K}")
        u.coef[tuple(ci + lat.K for ci in k)] = c
    return u


def without_mean(u: Field) -> Field:
    """u with its zero mode removed."""
    v = u.copy()
    v.coef[(u.lattice.K,) * u.lattice.n] = 0.0
    return v


def is_homogeneous_admissible(u: Field) -> bool:
    """Zero-DC surrogate for distributions with vanishing low-frequency part: an
    exact zero mode needs no scan for the peak."""
    dc = u.dc
    return dc == 0 or abs(dc) <= DC_TOL * u.peak()


def require_zero_mean(u: Field, what: str) -> None:
    """HomogeneousDCViolation unless is_homogeneous_admissible(u): what needs zero mean."""
    if not is_homogeneous_admissible(u):
        raise HomogeneousDCViolation(f"{what} requires a zero-mean field")


def evaluate(u: Field, x) -> complex:
    """Exact value sum_k c_k exp(i xi_k . x) at an arbitrary point."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != u.lattice.n:
        raise InvalidParameter(f"point has dim {x.size}, lattice n={u.lattice.n}")
    if not np.all(np.isfinite(x)):
        raise InvalidParameter("evaluation point must be finite")
    v = u.coef
    for a, xi in enumerate(xi_axes(u.lattice)):
        phase = np.exp(1j * xi * x[a])
        v = np.tensordot(v, phase, axes=([0], [0]))
    return complex(v)


@lru_cache(maxsize=64)
def _unit_roots(N: int) -> np.ndarray:
    """exp(2 pi i q / N), q < N, within 2 ulp: with 4q = o N + rho and |rho| <= N/2,
    the exact quarter turn i^o times a root of angle pi rho / (2N) <= pi/4."""
    q4 = 4 * np.arange(N)
    o = (2 * q4 + N) // (2 * N)
    rho = q4 - o * N
    roots = np.array([1, 1j, -1, -1j])[o % 4] * np.exp((0.5j * math.pi / N) * rho)
    roots.flags.writeable = False
    return roots


def exact_phases(K: int, r: np.ndarray, N: int) -> np.ndarray:
    """exp(i xi_k x) at each height x = r L/N (rows) for each mode |k| <= K (columns).

    For integer r this is exp(2 pi i r k / N), read from the table of N-th
    roots of unity at r k mod N: the entry carries the table's 2 ulp however
    large r k is, and no cosine is taken.  The column of horizontal mode k'
    at the heights is coef[k', :] @ table.T.
    """
    return _unit_roots(N).take(np.multiply.outer(r, k_axis(K)), mode="wrap")


def horizontal_samples(sliced: np.ndarray, lat: Lattice, M: int,
                       buffer: np.ndarray | None = None) -> np.ndarray:
    """Values on the x'-grid of size M^(n-1) of horizontal mode arrays: the
    horizontal stage of grid_slabs.

    sliced has shape (T, modes'), one horizontal mode array of the lattice
    per height; the output has shape (T, M, ..., M), or (T,) when n = 1.  The
    last and largest pass runs along the contiguous last axis, in the front
    of buffer when one is given.
    """
    return _padded_passes(sliced, lat.K, M, range(1, lat.n), buffer)


def _padded_passes(modes: np.ndarray, K: int, M: int, axes, buffer=None) -> np.ndarray:
    """The sums sum_k modes_k exp(2 pi i j k / M) of modes zero-padded to M along
    axes: the inverse DFT in its forward normalisation, which divides by nothing,
    so the values are the field's own and no scale pass follows.

    Pruned (Markel 1971): axes are padded and transformed one at a time, in
    order, so in the pass over axis a the axes after it still hold only 2K+1
    modes.  Each pass writes the modes k to the rows k mod M of its padded
    array, as two slice copies, zeros the rest and transforms it in place;
    the last pass pads in the front of buffer when one is given.
    """
    if M < 2 * K + 2:
        raise AliasingRisk(f"M={M} < 2K+2={2 * K + 2}")
    for a in axes:
        head, shape = (slice(None),) * a, modes.shape[:a] + (M,) + modes.shape[a + 1:]
        last = buffer is not None and a == axes[-1]
        padded = buffer[: math.prod(shape)].reshape(shape) if last else np.empty(shape, complex)
        padded[head + (slice(None, K + 1),)] = modes[head + (slice(K, None),)]
        padded[head + (slice(K + 1, M - K),)] = 0.0
        padded[head + (slice(M - K, None),)] = modes[head + (slice(None, K),)]
        modes = np.fft.ifftn(padded, axes=(a,), norm="forward", out=padded)
    return modes


# Samples per slab of a streamed grid: 512 KiB of complex values.
SLAB = 1 << 15


def per_slab(count: int, size: int) -> int:
    """How many of count runs of size samples each make one slab: as many as fit
    in SLAB samples, at least one, at most all."""
    return min(max(SLAB // size, 1), count)


def grid_slabs(u: Field, M: int, rows: np.ndarray | None = None,
               buffer: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """u's values on the M^n grid x = (L/M) j, exact, at the heights j_n of rows,
    a run of consecutive heights (all M when None), streamed in slabs of whole
    heights: the one sampler, of the torus and of the strip alike.

    One pruned pass along x_n, the last and contiguous axis, gives every
    column at all M heights; the heights of rows are a slice of them, no
    copy.  They are read per_slab(len(rows), M^(n-1)) at a time, and each
    run's horizontal passes (horizontal_samples) run in the front of buffer,
    or in a new array when buffer is None.  A slab has shape (t, M, ..., M),
    its heights first; it is valid until the next is drawn, so fields can
    share a buffer, and no M^n array is held.  Every pass is
    forward-normalised (_padded_passes), so a slab holds u's values as the
    transform leaves them, with no pass to scale them.
    """
    lat, rows = u.lattice, range(M) if rows is None else rows
    columns = _padded_passes(u.coef, lat.K, M, (lat.n - 1,)).transpose(-1, *range(lat.n - 1))
    columns = columns[rows[0] : rows[-1] + 1]
    step = per_slab(len(columns), M ** (lat.n - 1))
    for start in range(0, len(columns), step):
        yield horizontal_samples(columns[start : start + step], lat, M, buffer)


def energy_factor(rows: np.ndarray) -> np.ndarray:
    """The triangular R of the QR of rows, read-only: ||rows @ a|| = ||R @ a|| for
    every a.  The Gram matrix squares the condition of rows: its factor loses small energies."""
    factor = np.linalg.qr(rows, mode="r")
    factor.flags.writeable = False
    return factor


def whole_order(m, what: str) -> int:
    """m as an int, or InvalidParameter unless it is a whole number >= 0."""
    if not (isinstance(m, numbers.Real) and math.isfinite(m) and m >= 0 and m == int(m)):
        raise InvalidParameter(f"{what} must be a nonnegative integer, got {m!r}")
    return int(m)


def dilate(u: Field, m: int) -> Field:
    """Dyadic dilation: mode k -> 2^m k with amplitudes scaled by 2^(-m n/2).

    The amplitude factor makes the map an L^2 isometry up to the whole-space
    scaling 2^(-m n/2), so potential norms transform like their continuum
    counterparts under u -> u(2^m .).
    """
    m = whole_order(m, "dilation exponent")
    lat = u.lattice
    lam = 1 << m
    occupied = np.argwhere(np.abs(u.coef) > 0.0)
    if occupied.size == 0:
        return zero_field(lat)
    ks = occupied - lat.K
    new_ks = ks * lam
    if np.any(np.abs(new_ks) > lat.K):
        raise BandlimitExceeded(f"dilation by 2^{m} leaves the bandlimit {lat.K}")
    out = zero_field(lat)
    factor = 2.0 ** (-m * lat.n / 2.0)
    out.coef[tuple((new_ks + lat.K).T)] = u.coef[tuple(occupied.T)] * factor
    return out


# ---------------------------------------------------------------------------
# JSON field format: {"n", "K", "L", "modes": [[k_1..k_n, re, im], ...]}
# ---------------------------------------------------------------------------

AMPLITUDE_FLOOR = 1e-300

# Largest mode count (2K+1)^n a field file may declare: 64 MiB of coefficients.
MAX_FILE_MODES = 1 << 22


def field_to_dict(u: Field) -> dict:
    lat = u.lattice
    occupied = np.argwhere(np.abs(u.coef) >= AMPLITUDE_FLOOR)
    modes = []
    for idx in occupied:
        c = u.coef[tuple(idx)]
        modes.append([int(i - lat.K) for i in idx] + [float(c.real), float(c.imag)])
    modes.sort(key=lambda row: row[: lat.n])
    return {"n": lat.n, "K": lat.K, "L": lat.L, "modes": modes}


def _whole_number(data: dict, key: str) -> int:
    value = data[key]
    whole = int(value)
    if whole != value:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return whole


def field_from_dict(data: dict) -> Field:
    try:
        lat = make_lattice(
            _whole_number(data, "n"), _whole_number(data, "K"), float(data["L"])
        )
        modes = data["modes"]
    except (KeyError, TypeError, ValueError, OverflowError, InvalidParameter) as exc:
        raise IoError(f"malformed field data: {exc}") from exc
    count = 1
    for _ in range(lat.n):  # stops early: a huge n must not build a huge integer
        count *= lat.modes_per_axis
        if count > MAX_FILE_MODES:
            raise IoError(
                f"lattice n={lat.n}, K={lat.K} has more than {MAX_FILE_MODES} modes"
            )
    u = zero_field(lat)
    seen = set()
    for row in modes:
        if len(row) != lat.n + 2:
            raise IoError(f"mode row has length {len(row)}, expected {lat.n + 2}")
        k = tuple(int(c) for c in row[: lat.n])
        if k in seen:
            raise IoError(f"duplicate mode {k}")
        seen.add(k)
        if any(abs(c) > lat.K for c in k):
            raise IoError(f"mode {k} outside bandlimit {lat.K}")
        amp = complex(float(row[-2]), float(row[-1]))
        if not cmath.isfinite(amp):
            raise IoError(f"mode {k} has a non-finite amplitude {amp}")
        u.coef[tuple(c + lat.K for c in k)] = amp
    return u


def save_field(u: Field, path: str, extra: dict | None = None) -> None:
    data = field_to_dict(u)
    if extra:
        data.update(extra)
    try:
        with open(path, "w") as fh:
            json.dump(data, fh)
            fh.write(os.linesep)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def load_field(path: str) -> Field:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IoError(str(exc)) from exc
    return field_from_dict(data)
