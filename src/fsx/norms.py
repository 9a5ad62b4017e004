"""Norm functionals: Lebesgue, Besov, Sobolev (potential), Triebel-type, and
the frequency-block duality pairing.

Every whole-torus norm at p = 2 is one Plancherel sum, mode_sum: |c|^2 is
read once and binned by the integer shell |k|^2, and a weight of |xi|^2 is
evaluated on the occupied shells only.  Lp, the
Hdot/H potential norms, the Besov blocks (rows psi_j^2 of shell_blocks, one
table per lattice), the Fubini form of the square function, the exact
Hilbert K-curve and the p = 2 semigroup norm are its cases.

Every grid norm is rectangle_rule, the one quadrature: lp_norm is its
one-part case, triebel_norms its case over the weighted dyadic blocks, and
the half-space sups its p = inf case.  It streams: the samples come from
lattice.grid_slabs (or, on the strip, from columns a run of heights at a
time) in slabs of about lattice.SLAB values, and each slab is reduced in
place for every weight and every p, by the closed form of each power where
there is one, so no M^n array of samples is held.  At p = inf the value is
the largest |g| at the nodes, a lower bound on the sup that no grid makes exact.
The norms choose their grids by exactness, and no caller picks one: for even
integer p on the whole torus g^p has band pK' for the band K' that u occupies
(lattice.occupied), so the smallest grid with M > pK' is exact; every other
p, and the strip 0 <= x_n < L/2, keep the oversampled grid of u's own
lattice, the one approximate quadrature.  On the strip at p = 2 it is a
factor norm: strip_rows reads each column's sum of squares at the M/2
heights as ||R a||^2, for R the triangular QR factor of their phases.  Exact
strip integrals (pairings of band-limited products) use closed-form
half-period weights on the vertical mode pairs instead.

s and q only reweight values that depend on (u, p) alone, so each dyadic
block is sampled once per (p, grid) and reduced for every s and q:
block_norms gives the block L^p norms that seq_norm turns into any Besov
norm, and triebel_norms streams each block once into one accumulator per s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

from .dyadic import DyadicFamily, build_dyadic_family, delta_dot, delta_inhom, smooth_cut
from .errors import AliasingRisk, HomogeneousDCViolation, InvalidExponent, InvalidParameter
from .lattice import (
    Field,
    Lattice,
    default_oversample,
    energy_factor,
    exact_grid,
    exact_phases,
    grid_slabs,
    has_exact_grid,
    horizontal_samples,
    is_homogeneous_admissible,
    occupied,
    shells,
    per_slab,
    without_mean,
    xi_axes,
    xi_norm_sq,
)
from .multipliers import bessel_potential, fractional_laplacian, potential_weight

FAMILIES = ("Lp", "Hdot", "H", "Bdot", "B", "Fdot")
HOMOGENEOUS = ("Hdot", "Bdot", "Fdot")
DOMAINS = ("whole", "halfspace")


@dataclass(frozen=True)
class SpaceSpec:
    """Descriptor of a function-space norm: family, regularity, exponents, domain."""

    family: str
    s: float = 0.0
    p: float = 2.0
    q: float = math.inf
    domain: str = "whole"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParameter(f"unknown family {self.family!r}")
        if self.domain not in DOMAINS:
            raise InvalidParameter(f"unknown domain {self.domain!r}")
        if not math.isfinite(self.s):
            raise InvalidParameter(f"s must be finite, got {self.s}")
        _check_exponent(self.p, "p")
        if self.family in ("B", "Bdot"):
            _check_exponent(self.q, "q")

    def label(self) -> str:
        parts = [f"s={self.s:g}", f"p={_fmt_exp(self.p)}"]
        if self.family in ("B", "Bdot"):
            parts.append(f"q={_fmt_exp(self.q)}")
        return f"{self.family}:" + ",".join(parts)


def _fmt_exp(p: float) -> str:
    return "inf" if math.isinf(p) else f"{p:g}"


def _check_exponent(p: float, name: str) -> None:
    if math.isnan(p) or p < 1.0:
        raise InvalidExponent(f"{name} must lie in [1, inf], got {p}")


def parse_space_spec(text: str, domain: str = "whole") -> SpaceSpec:
    """Parse strings like "Bdot:s=0.5,p=2,q=1" or "Lp:p=inf"."""
    head, _, rest = text.partition(":")
    family = head.strip()
    kwargs: dict[str, float] = {}
    if rest.strip():
        for item in rest.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in ("s", "p", "q"):
                raise InvalidParameter(f"unknown space parameter {key!r}")
            value = value.strip().lower()
            try:
                kwargs[key] = math.inf if value == "inf" else float(value)
            except ValueError:
                raise InvalidParameter(f"{key}={value!r} is not a number") from None
    return SpaceSpec(family=family, domain=domain, **kwargs)


@lru_cache(maxsize=64)
def get_family(lat: Lattice) -> DyadicFamily:
    return build_dyadic_family(lat)


# ---------------------------------------------------------------------------
# The p = 2 layer
# ---------------------------------------------------------------------------


def mode_sum(u: Field, weight) -> float | np.ndarray:
    """sqrt(L^n sum_k w(|xi_k|^2) |c_k|^2): every whole-torus p = 2 norm, by Plancherel.

    |c|^2 is read once and binned by the integer shell |k|^2 (lattice.shells);
    weight is a function of |xi|^2 = (2 pi/L)^2 |k|^2, evaluated on the
    occupied shells only, or a table over the shells 0..nK^2.  Either may
    give rows, one norm each.
    """
    lat = u.lattice
    coef = u.coef.ravel()
    mass = np.bincount(shells(lat).ravel(), weights=coef.real**2 + coef.imag**2)
    hit = (mass > 0.0).nonzero()[0]
    if isinstance(weight, np.ndarray):
        w = weight[..., hit]
    else:
        w = np.asarray(weight(lat.freq_scale**2 * hit))
    return np.sqrt(lat.L**lat.n * (w @ mass[hit]))


@lru_cache(maxsize=64)
def shell_blocks(lat: Lattice) -> np.ndarray:
    """Squared block symbols on the shells |k|^2 = 0..nK^2 of lat, one row per
    block: psi_j^2 for the annular j of the family in order, then the low-pass
    phi^2 of the inhomogeneous block k = -1."""
    fam = get_family(lat)
    r = np.sqrt(lat.freq_scale**2 * np.arange(lat.n * lat.K**2 + 1))
    rows = [smooth_cut(r / 2.0 ** (j + 1)) - smooth_cut(r / 2.0**j) for j in fam.j_range]
    table = np.array(rows + [smooth_cut(r)]) ** 2
    table.flags.writeable = False
    return table


def potential_sq(s: float, bessel: bool = False):
    """The weight |xi|^(2s) (Riesz, 0 at xi = 0) or (1 + |xi|^2)^s (Bessel) for mode_sum."""
    return lambda rsq: potential_weight(rsq, s, bessel) ** 2


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def _grid_size(u: Field, band: Lattice, p: float, whole: bool) -> int:
    """Samples per axis for the rule on u, whose occupied band is band:
    exact_grid of the band when the rule is exact, and of u's lattice otherwise."""
    return exact_grid(band if has_exact_grid(p, whole) else u.lattice, p, whole)


def _columns(v: Field, rows: np.ndarray, M: int) -> np.ndarray:
    """v's column of each horizontal mode at the heights r L/M of the integers r in rows."""
    return v.coef @ exact_phases(v.lattice.K, rows, M).T


@lru_cache(maxsize=64)
def _strip_factor(K: int, M: int) -> np.ndarray:
    """energy_factor of the column phases at the strip's heights r L/M, r < M/2."""
    if M < 2 * K + 2:
        raise AliasingRisk(f"M={M} < 2K+2={2 * K + 2}")
    return energy_factor(exact_phases(K, np.arange(M // 2), M))


def strip_rows(v: Field, M: int) -> np.ndarray:
    """sum_{r < M/2} |column(r)|^2 for each horizontal mode of v, its column read
    at the strip's heights r L/M: the row sums of |a @ R^T|^2, R = _strip_factor."""
    b = (v.coef.reshape(-1, v.lattice.modes_per_axis) @ _strip_factor(v.lattice.K, M).T).view(float)
    return np.einsum("ij,ij->i", b, b)


def strip_derivative_norms(u: Field, order: int) -> list[float]:
    """Strip L^2 norms, on lp_norm's grid, of u's derivative tensors of orders
    0..order (u, its gradient, its n^2 second derivatives, ...), no derivative
    built: a horizontal derivative scales a whole column, so with q_e the
    strip_rows of xi_n^e u and h = |xi'|^2, order j is sum_e C(j, e) h^(j-e) q_e."""
    lat, M = u.lattice, default_oversample(u.lattice)
    q = [strip_rows(Field(lat, u.coef * xi_axes(lat)[-1] ** e), M) for e in range(order + 1)]
    h, cell = xi_norm_sq(lat)[..., lat.K].ravel(), (lat.L / M) ** lat.n * float(M) ** (lat.n - 1)
    return [math.sqrt(cell * float(np.sum(sum(math.comb(j, e) * h ** (j - e) * q[e]
                                              for e in range(j + 1))))) for j in range(order + 1)]


def _samples(v: Field, rows: np.ndarray | None, M: int,
             buffer: np.ndarray) -> Iterator[np.ndarray]:
    """v's values at the rule's nodes, in slabs of about lattice.SLAB samples:
    the whole grid from grid_slabs, in buffer, or the horizontal grids at the
    heights of rows, a run of heights at a time, from v's columns there."""
    if rows is None:
        return grid_slabs(v, M, buffer)
    columns = np.moveaxis(_columns(v, rows, M), -1, 0)
    step = per_slab(len(rows), M ** (v.lattice.n - 1))
    return (horizontal_samples(columns[i : i + step], v.lattice, M)
            for i in range(0, len(rows), step))


def _power_sums(m: np.ndarray, e: float, work: np.ndarray):
    """The sum of m^e over the last axis of m >= 0, or for e = inf its max, by the
    closed form of e where it has one (none for e = 1, a square root for 1/2, a
    square for 2), the powers written to work, shaped like m.  Each row is summed
    on its own, so its value does not depend on how many rows m has."""
    if math.isinf(e):
        return m.max(axis=-1)
    if e == 1.0:
        return m.sum(axis=-1)
    if e == 0.5:
        np.sqrt(m, out=work)
    elif e == 2.0:
        np.square(m, out=work)
    else:
        np.power(m, e, out=work)
    return work.sum(axis=-1)


def _magnitudes(slab: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|slab| written into the front of the flat array out, and returned flat."""
    return np.abs(slab, out=out[: slab.size].reshape(slab.shape)).reshape(-1)


def rectangle_rule(parts: list[tuple[float | Sequence[float], Field]], p: float | Sequence[float],
                   rows: np.ndarray | None, M: int) -> float | list:
    """Rectangle rule on M samples per axis for the L^p norm of g = sqrt(m),
    m = sum w |v|^2.

    parts are pairs (w, v) of a weight and a field, all with the same n and
    L; each v is read as given, so a caller passes occupied(v) to read it
    from its band.  A weight may instead be a row of S weights, the same S
    for every part, and the rule then returns the S norms, one per column of
    weights; p may be a sequence, for one result per p.  The parts stream in
    step, slab by slab (_samples), through one shared buffer, and each slab
    is reduced in place, in work arrays made once per call, into one sum or
    sup per (p, S): every part is sampled once for all S and p, no whole grid
    of samples is held, and a part whose coefficients are all zero adds
    nothing and is not sampled.  One part reduces a = |v| and scales by
    sqrt(w) at the end; several accumulate m and reduce m^(p/2), so g itself
    is never formed (_power_sums): the sup is sqrt(max m), the same as max g
    since sqrt is monotone and correctly rounded.  With rows None the nodes
    are the whole M^n grid (grid_slabs).  Otherwise they are the horizontal
    M^(n-1) grid at the heights r L/M of the integers r in rows, where each
    part is read as its columns there: on the strip's rows r < M/2 at p = 2
    the horizontal sum of |v|^2 is M^(n-1) times the columns' sum of squares
    by Parseval, read by strip_rows, and others sample.
    """
    lat = parts[0][1].lattice
    cell = (lat.L / M) ** lat.n
    exponents = list(p) if np.ndim(p) else [p]
    weights = np.array([np.atleast_1d(w) for w, _ in parts])
    if all(q == 2.0 for q in exponents) and np.array_equal(rows, np.arange(M // 2)):
        total = sum(w * strip_rows(v, M).sum() for w, (_, v) in zip(weights, parts))
        norms = [np.sqrt(cell * float(M) ** (lat.n - 1) * total)] * len(exponents)
    else:
        single, S = len(parts) == 1, weights.shape[1]
        reduced = np.zeros((len(exponents), 1 if single else S))
        plane = M ** (lat.n - 1)
        size = per_slab(plane, M) * M if rows is None else per_slab(len(rows), plane) * plane
        buffer = np.empty((M, size // M), dtype=complex) if rows is None else None
        streams = [(w, _samples(v, rows, M, buffer)) for w, (_, v) in zip(weights, parts)
                   if v.coef.any()]
        a, work = np.empty(size), np.empty(size if single else S * size)
        squares = None if single else np.empty(S * size)
        for slab in streams[0][1] if streams else ():
            count = slab.size
            if single:
                values, tmp = _magnitudes(slab, a), work[:count]
            else:  # each part's slab is folded into m before the next part's is drawn
                m, tmp = (b[: S * count].reshape(S, count) for b in (squares, work))
                m.fill(0.0)
                for k, (w, stream) in enumerate(streams):
                    sq = _magnitudes(slab if k == 0 else next(stream), a)
                    m += np.multiply.outer(w, np.square(sq, out=sq), out=tmp)
            for i, q in enumerate(exponents):
                if not single:
                    x = _power_sums(m, q / 2.0, tmp)
                elif q == 4.0:  # a^4 = (a^2)^2, one square and a dot product
                    x = np.square(values, out=tmp) @ tmp
                else:
                    x = _power_sums(values, q, tmp)
                reduced[i] = np.maximum(reduced[i], x) if math.isinf(q) else reduced[i] + x
        if not single:
            sups = [math.isinf(q) for q in exponents]
            reduced[sups] = np.sqrt(reduced[sups])
        scale = np.sqrt(weights[0]) if single else 1.0
        norms = [scale * (r if math.isinf(q) else (cell * r) ** (1.0 / q))
                 for q, r in zip(exponents, reduced)]
    norms = [n.tolist() if np.ndim(parts[0][0]) == 1 else float(n[0]) for n in norms]
    return norms if np.ndim(p) else norms[0]


def _on_strip(domain: str) -> bool:
    if domain not in DOMAINS:
        raise InvalidParameter(f"unknown domain {domain!r}")
    return domain == "halfspace"


def lp_norm(u: Field, p: float | Sequence[float],
            domain: str = "whole") -> float | list[float]:
    """L^p norm over the torus or the strip 0 <= x_n < L/2; one per p when p is
    a sequence, and the p that share a grid are reduced from one sampling.

    On the whole torus, p = 2 is the Plancherel sum L^(n/2) sqrt(sum |c_k|^2),
    mode_sum of the weight 1.  Every other case is rectangle_rule of the one
    part u on M samples per axis: the whole M^n grid, or on the strip the M/2
    grid heights j L/M < L/2.  M is exact_grid of u's occupied band for even
    integer p on the whole torus, where the rule is exact, and of u's lattice
    otherwise (oversampled, and even).  At p = inf the value is the largest
    |u| at the nodes of that grid, which bounds the sup from below.  A field
    whose coefficients are all zero gives 0.0 and is not sampled.  A caller
    that needs the rule on another grid calls rectangle_rule itself.
    """
    exponents = list(p) if np.ndim(p) else [p]
    for q in exponents:
        _check_exponent(q, "p")
    strip = _on_strip(domain)
    out, grids, band = {}, {}, None
    for q in exponents:
        if not strip and q == 2.0:
            out[q] = float(mode_sum(u, np.ones_like))
        else:
            band = band or occupied(u)
            grids.setdefault(_grid_size(u, band.lattice, q, not strip), []).append(q)
    for size, group in grids.items():
        out.update(zip(group, rectangle_rule([(1.0, band)], group,
                                             np.arange(size // 2) if strip else None, size)))
    return [out[q] for q in exponents] if np.ndim(p) else out[p]


def half_period_weights(R: int) -> np.ndarray:
    """The Fourier coefficients h_r = (1/L) int_0^{L/2} exp(-i xi_r x) dx of the
    strip's indicator, r = -R..R at index r + R: 1/2 at r = 0, 0 at even r and
    1/(i pi r) at odd r.  They do not depend on L."""
    r = np.arange(-R, R + 1)
    h = np.zeros(r.shape, dtype=complex)
    h[R] = 0.5
    odd = r % 2 != 0
    h[odd] = 1.0 / (1j * math.pi * r[odd])
    return h


def halfspace_product_integral(u: Field, v: Field) -> complex:
    """Exact integral of u * conj v over the strip 0 <= x_n < L/2.

    Horizontal modes integrate to L^(n-1) on the pairs whose product is
    constant in x', so the integral is
        L^(n-1) sum_{k'} sum_{k, k2} a[k', k] conj(b[k', k2]) L h(k2 - k)
    with a, b the coefficients of u, v and h the half_period_weights, since
    int_0^{L/2} exp(i xi_r x) dx = L h(-r).
    """
    lat = u.lattice
    if v.lattice != lat:
        raise InvalidParameter("fields live on different lattices")
    i = np.arange(lat.modes_per_axis)
    weights = lat.L * half_period_weights(2 * lat.K)[i[None, :] - i[:, None] + 2 * lat.K]
    return complex(lat.L ** (lat.n - 1) * np.sum((u.coef @ weights) * np.conj(v.coef)))


# ---------------------------------------------------------------------------
# Sequence norms
# ---------------------------------------------------------------------------


def seq_norm(a: Mapping[int, float], s: float = 0.0, q: float = 2.0) -> float:
    """Weighted little-lp norm (sum_j (2^{js} a_j)^q)^(1/q), sup for q = inf."""
    _check_exponent(q, "q")
    terms = [2.0 ** (j * s) * float(v) for j, v in a.items()]
    if not terms:
        return 0.0
    if math.isinf(q):
        return max(terms)
    return float(sum(t**q for t in terms) ** (1.0 / q))


# ---------------------------------------------------------------------------
# Function-space norms
# ---------------------------------------------------------------------------


def _require_admissible(u: Field, what: str) -> None:
    if not is_homogeneous_admissible(u):
        raise HomogeneousDCViolation(f"{what} requires a zero-mean field")


def block_norms(u: Field, p: float, domain: str = "whole",
                inhomogeneous: bool = False) -> dict[int, float]:
    """The L^p norms {j: ||Delta_j u||_p} of u's dyadic blocks, which every Besov
    norm of u at this p and domain reweights by its s and q: the annular
    blocks j of the family (Bdot), or with inhomogeneous the low-pass block
    k = -1 and the annular blocks k >= 0 (B).  On the whole torus at p = 2
    they are one mode_sum over the rows of shell_blocks."""
    fam = get_family(u.lattice)
    keys = range(-1, fam.j_max + 1) if inhomogeneous else fam.j_range
    if not inhomogeneous:
        _require_admissible(u, "homogeneous Besov norm")
    if p == 2.0 and not _on_strip(domain):
        *rows, low = mode_sum(u, shell_blocks(u.lattice)).tolist()
        annular = dict(zip(fam.j_range, rows))
        # psi_k vanishes on the lattice for the k >= 0 below the family's range
        return {k: low if inhomogeneous and k == -1 else annular.get(k, 0.0) for k in keys}
    block = delta_inhom if inhomogeneous else delta_dot
    return {k: lp_norm(block(u, k, fam), p, domain) for k in keys}


def besov_norm(u: Field, spec: SpaceSpec) -> float:
    """Dyadic-block Besov norm, homogeneous (Bdot) or inhomogeneous (B): the
    l^q_s norm of the block norms."""
    if spec.family not in ("B", "Bdot"):
        raise InvalidParameter(f"besov_norm got family {spec.family!r}")
    return seq_norm(block_norms(u, spec.p, spec.domain, spec.family == "B"), spec.s, spec.q)


def sobolev_norm(u: Field, spec: SpaceSpec) -> float:
    """Potential-norm Sobolev: Riesz (Hdot) or Bessel (H) multiplier then L^p;
    on the whole torus at p = 2, mode_sum with the squared multiplier."""
    if spec.family not in ("H", "Hdot"):
        raise InvalidParameter(f"sobolev_norm got family {spec.family!r}")
    bessel = spec.family == "H"
    if not bessel:
        _require_admissible(u, "homogeneous Sobolev norm")
    if spec.p == 2.0 and not _on_strip(spec.domain):
        return float(mode_sum(u, potential_sq(spec.s, bessel)))
    potential = bessel_potential(u, spec.s) if bessel else fractional_laplacian(u, spec.s)
    return lp_norm(potential, spec.p, spec.domain)


def triebel_norms(u: Field, s_values: Sequence[float], p: float,
                  domain: str = "whole") -> list[float]:
    """Square-function norms, one per s in s_values: pointwise l2 over scales of
    2^{js} blocks, then L^p.

    rectangle_rule of the blocks, each with its row of weights 4^{js}, so
    every block is sampled once for all s, on lp_norm's grid and nodes:
    exact_grid of u's occupied band for even integer p on the whole torus,
    where g^p has band pK' and the rule is exact, and of u's lattice
    otherwise; each block is read from its own band.  On the strip at p = 2
    the rule sums the blocks' columns, so no grid is sampled.
    """
    _check_exponent(p, "p")
    strip = _on_strip(domain)
    _require_admissible(u, "square-function norm")
    fam = get_family(u.lattice)
    M = _grid_size(u, occupied(u).lattice, p, not strip)
    blocks = [([4.0 ** (j * s) for s in s_values], occupied(delta_dot(u, j, fam)))
              for j in fam.j_range]
    return rectangle_rule(blocks, p, np.arange(M // 2) if strip else None, M)


def triebel_norm(u: Field, s: float, p: float, domain: str = "whole") -> float:
    """Square-function norm at one s: triebel_norms' one-s case."""
    return triebel_norms(u, (s,), p, domain)[0]


def triebel_fubini_l2(u: Field, s: float) -> float:
    """Exchange-of-sums form of the p = 2 square-function norm: the mode_sum of
    sum_j 4^{js} psi_j^2."""
    scales = [4.0 ** (j * s) for j in get_family(u.lattice).j_range]
    return float(mode_sum(u, scales @ shell_blocks(u.lattice)[:-1]))


def _mode_pair(u: Field, v: Field) -> complex:
    """Bilinear torus integral of two band-limited fields: L^n sum c_k(u) c_{-k}(v)."""
    flipped = np.flip(v.coef)
    return complex(u.lattice.L ** u.lattice.n * np.sum(u.coef * flipped))


def pairing(u: Field, v: Field) -> complex:
    """Bilinear duality pairing via near-diagonal frequency blocks: the integral
    of u * v over the torus, for zero-mean fields."""
    if u.lattice != v.lattice:
        raise InvalidParameter("fields live on different lattices")
    _require_admissible(u, "duality pairing")
    _require_admissible(v, "duality pairing")
    fam = get_family(u.lattice)
    ublocks = {j: delta_dot(u, j, fam) for j in fam.j_range}
    vblocks = {j: delta_dot(v, j, fam) for j in fam.j_range}
    total = 0.0 + 0.0j
    for j in fam.j_range:
        for jj in (j - 1, j, j + 1):
            if jj in vblocks:
                total += _mode_pair(ublocks[j], vblocks[jj])
    return total


def space_norm(u: Field, spec: SpaceSpec) -> float:
    """Dispatch on the space family."""
    if spec.family == "Lp":
        return lp_norm(u, spec.p, spec.domain)
    if spec.family in ("H", "Hdot"):
        return sobolev_norm(u, spec)
    if spec.family in ("B", "Bdot"):
        return besov_norm(u, spec)
    if spec.family == "Fdot":
        return triebel_norm(u, spec.s, spec.p, spec.domain)
    raise InvalidParameter(f"unknown family {spec.family!r}")


def norm_ignoring_mean(u: Field, spec: SpaceSpec) -> float:
    """space_norm of u modulo constants for the homogeneous families.

    Their norms do not see the zero mode, so it is removed rather than
    refused; every other family sees u as it is.
    """
    if spec.family in HOMOGENEOUS:
        u = without_mean(u)
    return space_norm(u, spec)
