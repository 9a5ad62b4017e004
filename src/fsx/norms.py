"""Norm functionals: Lebesgue, Besov, Sobolev (potential), Triebel-type, and
the frequency-block duality pairing.

Every grid norm is rectangle_rule, the one quadrature: lp_norm is its
one-part case, triebel_norms its case over the weighted dyadic blocks, and
the half-space sups its p = inf case.  Only p = 2 on the whole torus skips
it, as the Plancherel mode sum.  Grids are chosen by exactness: for even
integer p on the whole torus g^p has band pK' for the band K' that u
occupies (lattice.occupied), so the smallest grid with M > pK' is exact;
every other p, and the strip 0 <= x_n < L/2, keep the oversampled grid of
u's own lattice, the one approximate quadrature.  Exact strip integrals
(pairings of band-limited products) use closed-form half-period weights on
the vertical mode pairs instead.

s and q only reweight values that depend on (u, p) alone, so each dyadic
block is sampled once per (p, grid) and reduced for every s and q:
block_norms gives the block L^p norms that seq_norm turns into any Besov
norm, and triebel_norms streams each block once into one accumulator per s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .dyadic import DyadicFamily, build_dyadic_family, delta_dot, delta_inhom
from .errors import AliasingRisk, HomogeneousDCViolation, InvalidExponent, InvalidParameter
from .lattice import (
    Field,
    Lattice,
    exact_grid,
    exact_phases,
    has_exact_grid,
    horizontal_samples,
    is_homogeneous_admissible,
    k_axis,
    occupied,
    sample_grid,
    without_mean,
)
from .multipliers import bessel_potential, fractional_laplacian

FAMILIES = ("Lp", "Hdot", "H", "Bdot", "B", "Fdot")
HOMOGENEOUS = ("Hdot", "Bdot", "Fdot")
DOMAINS = ("whole", "halfspace", "halfspace_zero")


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
            kwargs[key] = math.inf if value == "inf" else float(value)
    return SpaceSpec(family=family, domain=domain, **kwargs)


@lru_cache(maxsize=64)
def get_family(lat: Lattice) -> DyadicFamily:
    return build_dyadic_family(lat)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def _grid(u: Field, p: float, whole: bool, M: int | None) -> tuple[Field, int]:
    """u's occupied band, and the samples per axis for the rule on u: the
    explicit M, which must resolve u's lattice and, on the strip, be even, so
    that the heights r L/M < L/2 are the r < M/2; or exact_grid of the band
    when the rule is exact and of u's lattice otherwise."""
    band = occupied(u)
    if M is None:
        return band, exact_grid(band.lattice if has_exact_grid(p, whole) else u.lattice, p, whole)
    if M < 2 * u.lattice.K + 2:
        raise AliasingRisk(f"M={M} < 2K+2={2 * u.lattice.K + 2}")
    if not whole and M % 2:
        raise InvalidParameter(f"the strip needs an even M to end at L/2, got M={M}")
    return band, M


def _columns(v: Field, rows: np.ndarray, M: int) -> np.ndarray:
    """v's column of each horizontal mode at the heights r L/M of the integers r in rows."""
    return v.coef @ exact_phases(v.lattice.K, rows, M).T


def rectangle_rule(parts: list[tuple[float | Sequence[float], Field]], p: float,
                   rows: np.ndarray | None, M: int) -> float | list[float]:
    """Rectangle rule on M samples per axis for the L^p norm of g = sqrt(sum w |v|^2).

    parts are pairs (w, v) of a weight and a field, all with the same n and
    L; each v is read as given, so a caller passes occupied(v) to read it
    from its band.  A weight may instead be a row of S weights, the same S
    for every part, and the rule then returns the S norms, one per column of
    weights: the parts stream one at a time into S accumulators, so each v
    is sampled once for all S and no two parts' samples are held at once.
    With rows None the nodes are the whole M^n grid, sampled by sample_grid.
    Otherwise they are the horizontal M^(n-1) grid at the heights r L/M of
    the integers r in rows, where each part is read as its columns there: at
    p = 2 the horizontal sum of |v|^2 is M^(n-1) times the columns' sum of
    squares by Parseval, so no transform runs, and other p sample the
    columns (horizontal_samples).
    """
    lat = parts[0][1].lattice
    cell = (lat.L / M) ** lat.n
    rowed = np.ndim(parts[0][0]) == 1
    parts = [(np.atleast_1d(w), v) for w, v in parts]
    if rows is not None and p == 2.0:
        totals = [0.0] * len(parts[0][0])
        for w, v in parts:
            columns = _columns(v, rows, M)
            square_sum = np.vdot(columns, columns).real
            totals = [t + wi * square_sum for t, wi in zip(totals, w)]
        norms = [float(math.sqrt(cell * float(M) ** (lat.n - 1) * t)) for t in totals]
        return norms if rowed else norms[0]
    g = None
    for w, v in parts:
        values = sample_grid(v, M).values if rows is None else horizontal_samples(
            np.moveaxis(_columns(v, rows, M), -1, 0), v.lattice, M)
        if len(parts) == 1:  # g = sqrt(w) |v|, with no square and root at every node
            magnitude = np.abs(values)
            g = [magnitude * math.sqrt(wi) for wi in w]
            continue
        square = np.abs(values) ** 2
        if g is None:
            g = [wi * square for wi in w]
        else:
            for gi, wi in zip(g, w):
                gi += wi * square
    if len(parts) > 1:
        g = [np.sqrt(gi, out=gi) for gi in g]
    if math.isinf(p):
        norms = [float(gi.max()) if gi.size else 0.0 for gi in g]
    else:
        norms = [float((cell * np.sum(gi**p)) ** (1.0 / p)) for gi in g]
    return norms if rowed else norms[0]


def _on_strip(domain: str) -> bool:
    if domain not in DOMAINS:
        raise InvalidParameter(f"unknown domain {domain!r}")
    return domain == "halfspace"


def lp_norm(u: Field, p: float, domain: str = "whole", M: int | None = None) -> float:
    """L^p norm over the torus or the strip 0 <= x_n < L/2.

    "halfspace_zero" (zero-extended functions) is the whole-torus norm.  On
    the whole torus, p = 2 without an explicit M is the Plancherel sum
    L^(n/2) sqrt(sum |c_k|^2).  Every other case is rectangle_rule of the one
    part u on M samples per axis: the whole M^n grid, or on the strip the M/2
    grid heights j L/M < L/2.  The default M is exact_grid of u's occupied
    band for even integer p on the whole torus, where the rule is exact, and
    of u's lattice otherwise (oversampled).
    """
    _check_exponent(p, "p")
    strip = _on_strip(domain)
    if not strip and p == 2.0 and M is None:
        return float(u.lattice.L ** (u.lattice.n / 2.0) * np.linalg.norm(u.coef.ravel()))
    band, M = _grid(u, p, not strip, M)
    return rectangle_rule([(1.0, band)], p, np.arange(M // 2) if strip else None, M)


def halfspace_product_integral(u: Field, v: Field, conjugate: bool = False) -> complex:
    """Exact integral of u * v (or u * conj v) over the strip 0 <= x_n < L/2.

    Horizontal modes integrate to L^(n-1) on the pairs whose product is
    constant in x', so the integral is
        L^(n-1) sum_{k'} sum_{k, k2} a[k', k] b[k', k2] h(k - k2)
    with a = coef(u), b = conj(coef(v)) (or coef(v) reversed in every axis,
    pairing mode k with -k, when conjugate is False), and the closed-form
    half-period weights h(r) = int_0^{L/2} exp(i xi_r x) dx: L/2 at r = 0,
    0 at even r and i L / (pi r) at odd r.
    """
    lat = u.lattice
    if v.lattice != lat:
        raise InvalidParameter("fields live on different lattices")
    b = np.conj(v.coef) if conjugate else np.flip(v.coef)
    k = k_axis(lat.K)
    r = k[:, None] - k[None, :]
    weights = np.zeros(r.shape, dtype=complex)
    weights[r == 0] = lat.L / 2.0
    odd = (r % 2) != 0
    weights[odd] = 1j * lat.L / (math.pi * r[odd])
    return complex(lat.L ** (lat.n - 1) * np.sum((u.coef @ weights) * b))


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
    k = -1 and the annular blocks k >= 0 (B)."""
    fam = get_family(u.lattice)
    if inhomogeneous:
        return {k: lp_norm(delta_inhom(u, k, fam), p, domain) for k in range(-1, fam.j_max + 1)}
    _require_admissible(u, "homogeneous Besov norm")
    return {j: lp_norm(delta_dot(u, j, fam), p, domain) for j in fam.j_range}


def besov_norm(u: Field, spec: SpaceSpec) -> float:
    """Dyadic-block Besov norm, homogeneous (Bdot) or inhomogeneous (B): the
    l^q_s norm of the block norms."""
    if spec.family not in ("B", "Bdot"):
        raise InvalidParameter(f"besov_norm got family {spec.family!r}")
    return seq_norm(block_norms(u, spec.p, spec.domain, spec.family == "B"), spec.s, spec.q)


def sobolev_norm(u: Field, spec: SpaceSpec) -> float:
    """Potential-norm Sobolev: Riesz (Hdot) or Bessel (H) multiplier then L^p."""
    if spec.family not in ("H", "Hdot"):
        raise InvalidParameter(f"sobolev_norm got family {spec.family!r}")
    if spec.family == "Hdot":
        _require_admissible(u, "homogeneous Sobolev norm")
        potential = fractional_laplacian(u, spec.s)
    else:
        potential = bessel_potential(u, spec.s)
    return lp_norm(potential, spec.p, spec.domain)


def triebel_norms(u: Field, s_values: Sequence[float], p: float, domain: str = "whole",
                  M: int | None = None) -> list[float]:
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
    _, M = _grid(u, p, not strip, M)
    blocks = [([4.0 ** (j * s) for s in s_values], occupied(delta_dot(u, j, fam)))
              for j in fam.j_range]
    return rectangle_rule(blocks, p, np.arange(M // 2) if strip else None, M)


def triebel_norm(u: Field, s: float, p: float, domain: str = "whole",
                 M: int | None = None) -> float:
    """Square-function norm at one s: triebel_norms' one-s case."""
    return triebel_norms(u, (s,), p, domain, M)[0]


def triebel_fubini_l2(u: Field, s: float) -> float:
    """Exchange-of-sums form of the p = 2 square-function norm."""
    fam = get_family(u.lattice)
    total = 0.0
    for j in fam.j_range:
        total += 4.0 ** (j * s) * lp_norm(delta_dot(u, j, fam), 2.0) ** 2
    return math.sqrt(total)


def _mode_pair(u: Field, v: Field) -> complex:
    """Bilinear torus integral of two band-limited fields: L^n sum c_k(u) c_{-k}(v)."""
    flipped = np.flip(v.coef)
    return complex(u.lattice.L ** u.lattice.n * np.sum(u.coef * flipped))


def pairing(u: Field, v: Field, domain: str = "whole") -> complex:
    """Bilinear duality pairing via near-diagonal frequency blocks.

    On the whole torus this equals the integral of u * v for zero-mean
    fields; on the half-space domain it is the exact strip integral of
    the product.
    """
    if u.lattice != v.lattice:
        raise InvalidParameter("fields live on different lattices")
    if domain == "halfspace":
        return halfspace_product_integral(u, v, conjugate=False)
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
