"""Norm functionals: Lebesgue, Besov, Sobolev (potential), Triebel-type, and
the frequency-block duality pairing.

Every p = 2 norm is a Parseval sum of coefficients, on both domains.  On the
whole torus it is mode_sum: |c|^2 is binned once by the integer shell |k|^2
and weighted on the occupied shells only; Lp, Hdot/H, the Besov blocks (rows
psi_j^2 of shell_blocks), the square function (Fubini rows sum_j 4^{js}
psi_j^2), the Hilbert K-curve and the p = 2 semigroup norm are its cases, and
its core, shell_sum, also bins the sharp cut's column block.  On the strip
0 <= x_n < L/2 it is the rule's value with no sample taken (_strip_l2):
strip_rows reads each column's sum of squares at the M/2 heights as ||R a||^2,
R the QR factor of their phases.

Every other norm is rectangle_rule, the one quadrature, over the parts of
lp_norm (u), square_function (weighted_blocks) or the half-space sups, its
p = inf case.  It streams slabs of about lattice.SLAB samples, from
grid_slabs or on the strip from columns; at p = inf the value is the largest
|g| at the nodes, a lower bound on the sup.
The norms choose grids by exactness: for even integer p on the whole torus
g^p has band pK' for the band K' that u occupies (lattice.occupied), so every
M > pK' is exact; every other p, and the strip, keep the oversampled grid of
u's lattice.  Each field is sampled once for every p asked of it.  Exact
strip integrals of band-limited products use half-period weights instead.

s and q only reweight values that depend on (u, p) alone, so each dyadic
block is sampled once for every s, q and p: square_function's one pass
gives the square-function norms and the block norms that seq_norm turns into
any Besov norm (block_norms, on their own).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

from .dyadic import DyadicFamily, build_dyadic_family, delta_dot, delta_inhom, smooth_cut
from .errors import AliasingRisk, InvalidExponent, InvalidParameter
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
    occupied,
    shells,
    per_slab,
    require_zero_mean,
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
    return shell_sum(u.lattice, u.coef, shells(u.lattice), weight)


def shell_sum(lat: Lattice, coef: np.ndarray, table: np.ndarray, weight) -> float | np.ndarray:
    """mode_sum of the coefficients coef, whose integer shells |k|^2 are table (of
    coef's shape), on a lattice of lat's dimension and period.  A field passes its
    coefficients and lattice.shells; the sharp cut passes its column block
    (halfspace.indicator_columns) and lattice.column_shells, and reads the norms of
    the dense field it stands for, bit for bit, since that field's other modes are
    zero.  weight may also be a list of weights, one result each from one binning."""
    sq = np.square(coef.real)
    sq += np.square(coef.imag)
    mass = np.bincount(table.ravel(), weights=sq.ravel())
    hit = (mass > 0.0).nonzero()[0]
    rows = [w[..., hit] if isinstance(w, np.ndarray) else np.asarray(w(lat.freq_scale**2 * hit))
            for w in (weight if isinstance(weight, list) else [weight])]
    sums = [np.sqrt(lat.L**lat.n * (w @ mass[hit])) for w in rows]
    return sums if isinstance(weight, list) else sums[0]


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


def _nodes(u: Field, band: Field, ps: Sequence[float], strip: bool) -> tuple:
    """rectangle_rule's rows and M for u, whose occupied band is band, at every p
    of ps: the largest exact_grid they need, of the band where the rule is exact
    and of u's lattice otherwise (an even p stays exact on any larger grid),
    and on the strip its heights r < M/2."""
    M = max(exact_grid(band.lattice if has_exact_grid(p, not strip) else u.lattice, p, not strip)
            for p in ps)
    return (np.arange(M // 2) if strip else None), M


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


def _strip_cell(lat: Lattice, M: int) -> float:
    """The rule's cell (L/M)^n times the M^(n-1) that Parseval takes off strip_rows."""
    return (lat.L / M) ** lat.n * float(M) ** (lat.n - 1)


def _strip_l2(u: Field, parts: list[tuple]) -> tuple[list, list]:
    """rectangle_rule at p = 2 for parts (w, v) of u on lp_norm's strip grid, by
    strip_rows one part at a time: the norms per column of weights, and each part's."""
    M = default_oversample(u.lattice)
    own, cell = np.array([strip_rows(v, M).sum() for _, v in parts]), _strip_cell(u.lattice, M)
    norms = np.sqrt(cell * sum(np.asarray(w) * x for (w, _), x in zip(parts, own)))
    return norms.tolist(), np.sqrt(cell * own).tolist()


def strip_derivative_norms(u: Field, order: int) -> list[float]:
    """Strip L^2 norms, on lp_norm's grid, of u's derivative tensors of orders
    0..order (u, its gradient, its n^2 second derivatives, ...), no derivative
    built: a horizontal derivative scales a whole column, so with q_e the
    strip_rows of xi_n^e u and h = |xi'|^2, order j is sum_e C(j, e) h^(j-e) q_e."""
    lat, M = u.lattice, default_oversample(u.lattice)
    q = [strip_rows(Field(lat, u.coef * xi_axes(lat)[-1] ** e), M) for e in range(order + 1)]
    h, cell = xi_norm_sq(lat)[..., lat.K].ravel(), _strip_cell(lat, M)
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
    square for 2, a cube root and squares for 2/3, 4/3 and 8/3), the powers
    written to work, shaped like m.  Each row is summed on its own, so its value
    does not depend on how many rows m has."""
    if math.isinf(e):
        return m.max(axis=-1)
    if e == 1.0:
        return m.sum(axis=-1)
    if e == 0.5:
        np.sqrt(m, out=work)
    elif e == 2.0:
        np.square(m, out=work)
    elif e in (2.0 / 3.0, 4.0 / 3.0, 8.0 / 3.0):  # cbrt(m)^(3e), 3e = 2, 4 or 8
        np.cbrt(m, out=work)
        for _ in range(round(math.log2(3.0 * e))):
            np.square(work, out=work)
    else:
        np.power(m, e, out=work)
    return work.sum(axis=-1)


def _magnitudes(slab: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|slab| written into the front of the flat array out, and returned flat."""
    return np.abs(slab, out=out[: slab.size].reshape(slab.shape)).reshape(-1)


def rectangle_rule(parts: list[tuple[float | Sequence[float], Field]], p: float | Sequence[float],
                   rows: np.ndarray | None, M: int):
    """Rectangle rule on M samples per axis for the L^p norm of g = sqrt(m),
    m = sum w |v|^2.

    parts are pairs (w, v) of a weight and a field, all with the same n and
    L; each v is read as given, so a caller passes occupied(v) to read it
    from its band.  A weight may instead be a row of S weights, the same S
    for every part, and the rule then returns a pair: the S norms, one per
    column of weights, and the rule for each part's own norm ||v||_p.  p may
    be a sequence, for one result per p.  The parts stream in step, slab by
    slab (_samples), through one shared buffer, and each slab is reduced in
    place, in work arrays made once per call, into one sum or sup per (p, S)
    and per (p, part): every part is sampled once for all S and p, no whole
    grid of samples is held, and a part whose coefficients are all zero adds
    nothing and is not sampled.  Each part's a = |v| is reduced to a^p as it
    streams (a^4 as a square and a dot product).  One part scales its norm
    by sqrt(w) at the end; several go on to accumulate m from a^2 and reduce
    m^(p/2), so g itself is never formed (_power_sums): the sup is
    sqrt(max m), the same as max g since sqrt is monotone and correctly
    rounded.  With rows None the nodes are the whole M^n grid (grid_slabs).
    Otherwise they are the horizontal M^(n-1) grid at the heights r L/M of
    the integers r in rows, where each part is read as its columns there.
    The norms never bring p = 2 here (mode_sum, _strip_l2): a check of those
    sums against samples calls the rule itself.
    """
    lat = parts[0][1].lattice
    cell = (lat.L / M) ** lat.n
    many = np.ndim(p) > 0
    exponents = list(p) if many else [p]
    weights = np.array([np.atleast_1d(w) for w, _ in parts])
    single, S = len(parts) == 1, weights.shape[1]
    # per p, the sum (or for p = inf the sup) of m^(p/2) per column of weights and of a^p per part
    reduced, own = np.zeros((len(exponents), S)), np.zeros((len(exponents), len(parts)))
    folds = [np.maximum if math.isinf(q) else np.add for q in exponents]
    plane = M ** (lat.n - 1)
    size = per_slab(plane, M) * M if rows is None else per_slab(len(rows), plane) * plane
    buffer = np.empty((M, size // M), dtype=complex) if rows is None else None
    streams = [(k, w, _samples(v, rows, M, buffer))
               for k, (w, (_, v)) in enumerate(zip(weights, parts)) if v.coef.any()]
    mags, work = np.empty(size), np.empty(S * size)
    squares = None if single else np.empty(S * size)
    for slab in streams[0][2] if streams else ():
        count = slab.size
        tmp = work[: S * count].reshape(S, count)
        if not single:
            m = squares[: S * count].reshape(S, count)
            m.fill(0.0)
        # each part's slab is reduced, and folded into m, before the next part's is drawn
        for t, (k, w, stream) in enumerate(streams):
            a, row = _magnitudes(slab if t == 0 else next(stream), mags), tmp[0]
            for i, q in enumerate(exponents):
                x = np.square(a, out=row) @ row if q == 4.0 else _power_sums(a, q, row)
                own[i, k] = folds[i](own[i, k], x)
            if not single:
                m += np.multiply.outer(w, np.square(a, out=a), out=tmp)
        for i, q in enumerate(() if single else exponents):
            reduced[i] = folds[i](reduced[i], _power_sums(m, q / 2.0, tmp))
    owns = [o if math.isinf(q) else (cell * o) ** (1.0 / q) for q, o in zip(exponents, own)]
    scale = np.sqrt(weights[0])
    norms = [scale * o for o in owns] if single else [
        np.sqrt(r) if math.isinf(q) else (cell * r) ** (1.0 / q)
        for q, r in zip(exponents, reduced)]
    rowed = np.ndim(parts[0][0]) == 1
    results = [(n.tolist(), o.tolist()) if rowed else float(n[0]) for n, o in zip(norms, owns)]
    return results if many else results[0]


def _each_p(p: float | Sequence[float], domain: str, exact, rule):
    """One result per p of p (one result for a single p): exact(strip) at p = 2, on
    the strip or not, and rule(ps, strip) for the other p, one sampling for all."""
    if domain not in DOMAINS:
        raise InvalidParameter(f"unknown domain {domain!r}")
    many, strip = np.ndim(p) > 0, domain == "halfspace"
    exponents = list(p) if many else [p]
    for q in exponents:
        _check_exponent(q, "p")
    out = {2.0: exact(strip)} if 2.0 in exponents else {}
    rest = [q for q in exponents if q not in out]
    out.update(zip(rest, rule(rest, strip)) if rest else ())
    return [out[q] for q in exponents] if many else out[p]


def lp_norm(u: Field, p: float | Sequence[float],
            domain: str = "whole") -> float | list[float]:
    """L^p norm over the torus or the strip 0 <= x_n < L/2; one per p when p is
    a sequence, every p reduced from one sampling of u.

    p = 2 is a Parseval sum (mode_sum of the weight 1 on the torus, _strip_l2
    on the strip) and never reaches the rule.  Every other p is rectangle_rule
    of the one part u, read from its band, on the largest grid any p needs
    (_nodes): exact for even integer p on the whole torus, and otherwise the
    oversampled grid of u's lattice, whose largest |u| bounds the sup from
    below at p = inf.  A field whose coefficients are all zero gives 0.0 and
    is not sampled.  A caller that wants the rule on another grid, or at
    p = 2, calls rectangle_rule itself.
    """
    return _each_p(p, domain, lambda strip: _strip_l2(u, [(1.0, occupied(u))])[1][0] if strip
                   else float(mode_sum(u, np.ones_like)), lambda ps, strip: _lp_rule(u, ps, strip))


def _lp_rule(u: Field, ps: list[float], strip: bool) -> list[float]:
    """lp_norm's rule at the checked exponents ps: rectangle_rule of the one
    part u, read from its band, on the one grid of _nodes."""
    band = occupied(u)
    return rectangle_rule([(1.0, band)], ps, *_nodes(u, band, ps, strip))


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


def block_norms(u: Field, p: float | Sequence[float], domain: str = "whole",
                inhomogeneous: bool = False) -> dict[int, float] | list[dict[int, float]]:
    """The L^p norms {j: ||Delta_j u||_p} of u's dyadic blocks, which every Besov
    norm of u at this p and domain reweights by its s and q: the annular
    blocks j of the family (Bdot), or with inhomogeneous the low-pass block
    k = -1 and the annular blocks k >= 0 (B).  One dict per p when p is a
    sequence: each block is sampled once for every p (as lp_norm).  At p = 2
    they are one mode_sum over the rows of shell_blocks on the whole torus."""
    fam = get_family(u.lattice)
    keys = range(-1, fam.j_max + 1) if inhomogeneous else fam.j_range
    if not inhomogeneous:
        require_zero_mean(u, "homogeneous Besov norm")
    blocks = lambda: ((delta_inhom if inhomogeneous else delta_dot)(u, k, fam) for k in keys)

    def exact(strip):
        if strip:
            return dict(zip(keys, _strip_l2(u, [(1.0, occupied(b)) for b in blocks()])[1]))
        *rows, low = mode_sum(u, shell_blocks(u.lattice)).tolist()
        annular = dict(zip(fam.j_range, rows))
        # psi_k vanishes on the lattice for the k >= 0 below the family's range
        return {k: low if inhomogeneous and k == -1 else annular.get(k, 0.0) for k in keys}

    def rule(ps, strip):
        norms = [_lp_rule(b, ps, strip) for b in blocks()]
        return [dict(zip(keys, column)) for column in zip(*norms)]

    return _each_p(p, domain, exact, rule)


def besov_norm(u: Field, spec: SpaceSpec) -> float:
    """Dyadic-block Besov norm, homogeneous (Bdot) or inhomogeneous (B): the
    l^q_s norm of the block norms."""
    if spec.family not in ("B", "Bdot"):
        raise InvalidParameter(f"besov_norm got family {spec.family!r}")
    return seq_norm(block_norms(u, spec.p, spec.domain, spec.family == "B"), spec.s, spec.q)


def sobolev_norms(u: Field, spec: SpaceSpec, p: float | Sequence[float]) -> float | list[float]:
    """Potential-norm Sobolev at spec's family, s and domain and at p, one per p
    when p is a sequence: Riesz (Hdot) or Bessel (H) multiplier then L^p, the
    potential sampled once for every p (as lp_norm); at p = 2 on the whole
    torus, mode_sum with the squared multiplier."""
    if spec.family not in ("H", "Hdot"):
        raise InvalidParameter(f"sobolev_norm got family {spec.family!r}")
    bessel = spec.family == "H"
    if not bessel:
        require_zero_mean(u, "homogeneous Sobolev norm")
    potential = lambda: bessel_potential(u, spec.s) if bessel else fractional_laplacian(u, spec.s)
    return _each_p(p, spec.domain, lambda strip: _strip_l2(u, [(1.0, occupied(potential()))])[1][0]
                   if strip else float(mode_sum(u, potential_sq(spec.s, bessel))),
                   lambda ps, strip: _lp_rule(potential(), ps, strip))


def sobolev_norm(u: Field, spec: SpaceSpec) -> float:
    """Potential-norm Sobolev at spec: sobolev_norms' one-p case."""
    return sobolev_norms(u, spec, spec.p)


def square_function(u: Field, s_values: Sequence[float], p: float | Sequence[float],
                    domain: str = "whole") -> tuple[list[float], dict[int, float]] | list:
    """The square-function norms, one per s in s_values (pointwise l2 over
    scales of 2^{js} blocks, then L^p), paired with the block norms
    {j: ||Delta_j u||_p}; one pair per p when p is a sequence.

    p = 2 never reaches the rule: each norm is the mode_sum of its Fubini row
    sum_j 4^{js} psi_j^2 on the whole torus, each row summed on its own, and
    _strip_l2 of the weighted blocks on the strip.  Every other p is one
    rectangle_rule pass over the weighted blocks on lp_norm's grid, which also
    gives each block's own norm.
    """
    require_zero_mean(u, "square-function norm")
    fam = get_family(u.lattice)

    def exact(strip):
        if strip:
            norms, own = _strip_l2(u, weighted_blocks(u, s_values))
            return norms, dict(zip(fam.j_range, own))
        table = shell_blocks(u.lattice)  # with block_norms' rows, so their norms are its bits
        *norms, own = mode_sum(u, [[4.0 ** (j * s) for j in fam.j_range] @ table[:-1]
                                   for s in s_values] + [table])
        return [float(x) for x in norms], dict(zip(fam.j_range, own[:-1].tolist()))

    def rule(ps, strip):
        pairs = rectangle_rule(weighted_blocks(u, s_values), ps, *_nodes(u, occupied(u), ps, strip))
        return [(norms, dict(zip(fam.j_range, own))) for norms, own in pairs]

    return _each_p(p, domain, exact, rule)


def weighted_blocks(u: Field, s_values: Sequence[float]) -> list[tuple[list[float], Field]]:
    """square_function's parts: u's dyadic blocks on their own bands, each with 4^{js} per s."""
    fam = get_family(u.lattice)
    return [([4.0 ** (j * s) for s in s_values], occupied(delta_dot(u, j, fam)))
            for j in fam.j_range]


def triebel_norms(u: Field, s_values: Sequence[float], p: float | Sequence[float],
                  domain: str = "whole") -> list:
    """Square-function norms, one per s in s_values; a list of them per p when p
    is a sequence: square_function without its block norms."""
    pairs = square_function(u, s_values, p, domain)
    return [norms for norms, _ in pairs] if np.ndim(p) else pairs[0]


def triebel_norm(u: Field, s: float, p: float, domain: str = "whole") -> float:
    """Square-function norm at one s: triebel_norms' one-s case."""
    return triebel_norms(u, (s,), p, domain)[0]


def _mode_pair(u: Field, v: Field) -> complex:
    """Bilinear torus integral of two band-limited fields: L^n sum c_k(u) c_{-k}(v)."""
    flipped = np.flip(v.coef)
    return complex(u.lattice.L ** u.lattice.n * np.sum(u.coef * flipped))


def pairing(u: Field, v: Field) -> complex:
    """Bilinear duality pairing via near-diagonal frequency blocks: the integral
    of u * v over the torus, for zero-mean fields."""
    if u.lattice != v.lattice:
        raise InvalidParameter("fields live on different lattices")
    require_zero_mean(u, "duality pairing")
    require_zero_mean(v, "duality pairing")
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
