"""Grid references for the tests: one-shot n-D transforms of whole grids.

fsx applies its half-space operators to columns and samples no whole grid.
The tests check those kernels against the sample, overwrite and project
round trip on the M^n grid, whose sampling and projection steps live here
(sample_grid_reference, project_bandlimited), and the per-call routes below
against the projection of whole columns of DFT bins (project_columns).
fsx has one sampler on both domains, lattice.grid_slabs: a pruned transform
along x_n, then the horizontal passes of whole heights streamed in slabs;
the tests assemble its slabs into the whole grid (slab_grid) and check it,
and its slabs at any run of heights, against the one-shot transform of the
fully padded array (sample_grid_reference).  fsx reads its
column tables as exact roots of unity at rational heights
(lattice.exact_phases); the tests check them against cosines and sines at
arbitrary heights (vertical_phases, sample_slices), and project_columns
against the copy-and-mask projection it replaced.  fsx's strip integral is
sesquilinear; the bilinear one, u v with no conjugate, is
bilinear_strip_integral.  fsx builds each column
operator once per lattice, mirror coefficients, window and half written
(halfspace._operator), shared by the parities, the extensions, the
restriction norm's witnesses and the zero-boundary projection; the tests
check it against the per-call route, which builds the M-row table,
transforms it and applies it on every call, with the residual from the
M - 2K - 1 discarded rows (extension_per_call, parity_per_call,
witnesses_per_call, project_zero_per_call).
fsx evaluates every grid norm and sup by one rule (norms.rectangle_rule),
which samples the strip's heights by grid_slabs too; the tests check it
against the rule on the whole sampled grid, cut to the heights it covers
(lp_norm_reference, triebel_norm_reference, sup_reference).  The norms pick
their own grids; the tests take them on a grid of their choosing by the rule
(norm_on_grid).
At p = 2 on the strip the norms read each column's sum of squares from a
triangular factor (norms.strip_rows), not the rule; the tests check it
against the columns formed at the M/2 heights and summed
(strip_rows_by_columns, strip_l2_by_columns), and the derivative norms of
the resolvent estimate against the derivative fields built one by one
(hessian, resolvent_estimate_by_fields).  The tests read the rule's sup of a
half field over the upper half as the scale of its leakage and residuals
(half_peak).
"""

import math

import numpy as np

from fsx.dyadic import delta_dot, smooth_cut
from fsx.errors import AliasingRisk
from fsx.halfspace import reflection_coefficients
from fsx.lattice import (
    Field,
    default_oversample,
    exact_phases,
    grid_slabs,
    horizontal_samples,
    k_axis,
    occupied,
    xi_axes,
)
from fsx.multipliers import derivative, gradient
from fsx.norms import get_family, halfspace_product_integral, rectangle_rule
from fsx.solvers import resolvent_halfspace


def sample_grid_reference(u, M):
    """Values of u on the M^n grid: one n-D inverse DFT of the padded modes."""
    lat = u.lattice
    padded = np.zeros((M,) * lat.n, dtype=complex)
    padded[np.ix_(*([k_axis(lat.K) % M] * lat.n))] = u.coef
    return np.fft.ifftn(padded) * float(M) ** lat.n


def slab_grid(u, M):
    """u's values on the M^n grid, lattice.grid_slabs's slabs assembled: joined on
    their height axis, the first, which then moves to the last, x_n's."""
    return np.moveaxis(np.concatenate([slab.copy() for slab in grid_slabs(u, M)]), 0, -1)


def project_bandlimited(values, target):
    """Truncate the DFT of the M^n grid of samples values to the target bandlimit.

    Returns the projected field and the relative l2 magnitude of the
    discarded tail (0 for exactly band-limited input).
    """
    M = values.shape[0]
    chat = np.fft.fftn(values) / float(M) ** target.n
    idx = np.ix_(*([k_axis(target.K) % M] * target.n))
    kept = chat[idx].copy()
    chat[idx] = 0.0
    tail = float(np.sum(np.abs(chat) ** 2))
    total = float(np.sum(np.abs(kept) ** 2)) + tail
    return Field(target, kept), (math.sqrt(tail / total) if total > 0.0 else 0.0)


def vertical_phases(lat, xn_values):
    """exp(i xi_k x) for each height x (rows) and vertical mode k (columns)."""
    angle = np.outer(np.asarray(xn_values, dtype=float), xi_axes(lat)[-1])
    phases = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=phases.real)
    np.sin(angle, out=phases.imag)
    return phases


def sample_slices(u, xn_values, M):
    """Values of u on (x'-grid of size M^(n-1)) x (arbitrary vertical points).

    Output shape: (len(xn_values), M, ..., M); the vertical coordinate is the
    last lattice axis, evaluated there by an exact trigonometric sum.
    """
    columns = u.coef @ vertical_phases(u.lattice, xn_values).T  # (modes', T)
    return horizontal_samples(np.moveaxis(columns, -1, 0), u.lattice, M)


def mirror_sum(K, coeffs, rows, M):
    """sum_j coeffs[j] exp(i xi_k x) at the mirror points x = -r L/(M(j+1)) of the
    heights r L/M, one row per r in rows, as one sum of fresh tables."""
    return sum(a * exact_phases(K, -rows, M * (j + 1)) for j, a in enumerate(coeffs))


def extension_per_call(u, coeffs, window=False):
    """The reflection of the HalfField u with mirror coefficients coeffs by the
    per-call route: build the table of the upper half and the mirror sum below,
    windowed or not, take its DFT along x_n and apply it to u's columns, all on
    this call.  Returns the projected field and the projection residual."""
    lat = u.field.lattice
    M = default_oversample(lat)
    half = M // 2 + 1
    below = np.arange(half, M) - M
    table = np.empty((M, lat.modes_per_axis), dtype=complex)
    table[:half] = exact_phases(lat.K, np.arange(half), M)
    table[half:] = mirror_sum(lat.K, coeffs, below, M)
    if window:
        table[half:] *= smooth_cut((6.0 / lat.L) * np.abs(below * (lat.L / M)))[:, None]
    spectral = np.fft.fft(table, axis=0, norm="forward")
    columns = u.field.coef.reshape(-1, lat.modes_per_axis)
    kept, residual = project_columns(spectral @ columns.T, lat.K)
    return Field(lat, kept.reshape(u.field.coef.shape)), residual


def parity_per_call(u, parity):
    """reflect_parity of the HalfField u by the per-call route: the order-0
    extension with sign -1 (odd) or +1 (even)."""
    return extension_per_call(u, [-1.0 if parity == "odd" else 1.0])


def project_zero_per_call(u, m):
    """project_zero of the Field u by the per-call route: the M-row table of
    the upper half less the order-m mirror sum, its DFT along x_n and the
    product with u's columns, projected to |k| <= K, all on this call."""
    lat = u.lattice
    M = default_oversample(lat)
    upper = np.arange(M // 2 + 1)
    alpha = reflection_coefficients(m)
    table = np.zeros((M, lat.modes_per_axis), dtype=complex)
    table[: M // 2 + 1] = exact_phases(lat.K, upper, M) - mirror_sum(lat.K, alpha, upper, M)
    spectral = np.fft.fft(table, axis=0, norm="forward")
    kept, _ = project_columns(spectral @ u.coef.reshape(-1, lat.modes_per_axis).T, lat.K)
    return Field(lat, kept.reshape(u.coef.shape))


def witnesses_per_call(u):
    """The restriction norm's witnesses of the HalfField u as (name, field), in
    its order, each built and applied whole on this call: the even reflection
    E0, the windowed extensions of orders 0-2, then the odd reflection ED."""
    alpha = {m: reflection_coefficients(m) for m in (1, 2)}
    keys = [("E0", [1.0], False), ("E0w", [1.0], True), ("E1w", alpha[1], True),
            ("E2w", alpha[2], True), ("ED", [-1.0], False)]
    return [(name, extension_per_call(u, coeffs, window)[0]) for name, coeffs, window in keys]


def project_columns(spectra, K):
    """Truncate vertical DFT rows to the bandlimit K.

    spectra holds, along its first axis, the M DFT bins (divided by M) of
    columns sampled at the M vertical grid heights j L/M.  Returns the kept
    rows |k| <= K in mode order, moved to the last axis, and the relative l2
    magnitude of the discarded rows (0 for exactly band-limited columns).
    """
    M = spectra.shape[0]
    if M < 2 * K + 2:
        raise AliasingRisk(f"M={M} < 2K+2={2 * K + 2}")
    # k % M for k = -K..K names two slices: the bins M-K..M-1, then 0..K
    kept = (spectra[M - K :], spectra[: K + 1])
    # sum the discarded bins directly; subtracting two near-equal totals would
    # drown small tails in cancellation noise
    tail, *retained = (float(np.vdot(b, b).real) for b in (spectra[K + 1 : M - K], *kept))
    total = tail + sum(retained)
    residual = math.sqrt(tail / total) if total > 0.0 else 0.0
    return np.concatenate([np.moveaxis(b, 0, -1) for b in kept], axis=-1), residual


def bilinear_strip_integral(u, v):
    """Exact integral of u * v over the strip 0 <= x_n < L/2: the sesquilinear
    halfspace_product_integral against conj v, whose modes are v's reversed
    in every axis and conjugated."""
    return halfspace_product_integral(u, Field(v.lattice, np.conj(np.flip(v.coef))))


def project_columns_by_mask(spectra, K):
    """The kept DFT rows |k| <= K of spectra, whose bins lie on its last axis,
    by a copy with the kept rows masked out, and the relative l2 size of the
    rest: project_columns as it was, for bins on the last axis."""
    idx = (..., k_axis(K) % spectra.shape[-1])
    rest = spectra.copy()
    kept = rest[idx]
    rest[idx] = 0.0
    tail = float(np.sum(np.abs(rest) ** 2))
    total = float(np.sum(np.abs(kept) ** 2)) + tail
    return kept, (math.sqrt(tail / total) if total > 0.0 else 0.0)


def grid_rule(g, p, lat, M):
    """Rectangle rule for the L^p norm from the magnitudes g at the grid nodes."""
    if math.isinf(p):
        return float(g.max())
    return float(((lat.L / M) ** lat.n * np.sum(g**p)) ** (1.0 / p))


def _on_domain(g, domain, M):
    """g on the whole grid, or on the strip's heights j L/M < L/2."""
    return g[..., : M // 2] if domain == "halfspace" else g


def lp_norm_reference(u, p, domain, M):
    """The rule on the whole sampled M^n grid, cut to the strip's heights."""
    return grid_rule(_on_domain(np.abs(sample_grid_reference(u, M)), domain, M), p, u.lattice, M)


def triebel_norm_reference(u, s, p, domain, M):
    """The square function sqrt(sum_j 4^{js} |block_j|^2) on the whole sampled
    M^n grid, cut to the strip's heights, then the rule."""
    fam = get_family(u.lattice)
    sq = sum(4.0 ** (j * s) * np.abs(sample_grid_reference(delta_dot(u, j, fam), M)) ** 2
             for j in fam.j_range)
    return grid_rule(_on_domain(np.sqrt(sq), domain, M), p, u.lattice, M)


def norm_on_grid(u, p, domain, M, s_values=None):
    """lp_norm(u, p, domain), or with s_values triebel_norms(u, s_values, p,
    domain), by norms.rectangle_rule on the grid of M samples per axis that
    the caller picks: the whole M^n grid, or the strip's heights r L/M, r < M/2.
    u is read from its occupied band, and each dyadic block from its own."""
    if s_values is None:
        parts = [(1.0, occupied(u))]
    else:
        fam = get_family(u.lattice)
        parts = [([4.0 ** (j * s) for s in s_values], occupied(delta_dot(u, j, fam)))
                 for j in fam.j_range]
    out = rectangle_rule(parts, p, np.arange(M // 2) if domain == "halfspace" else None, M)
    if s_values is None:
        return out
    # with rows of weights the rule pairs the norms with each block's own
    return [norms for norms, _ in out] if np.ndim(p) else out[0]


def sup_reference(u, rows, M):
    """Sup of |u| over the whole sampled M^n grid at the vertical rows."""
    return float(np.max(np.abs(sample_grid_reference(u, M)[..., rows])))


def half_peak(u):
    """Sup of the HalfField u over the upper half 0 <= x_n <= L/2, by the
    rule at the heights j L/M, j <= M/2, of the default grid."""
    M = default_oversample(u.field.lattice)
    return rectangle_rule([(1.0, occupied(u.field))], math.inf, np.arange(M // 2 + 1), M)


def strip_rows_by_columns(v, M):
    """For each horizontal mode of v, the sum over the strip's heights r L/M,
    r < M/2, of |column(r)|^2, the columns formed at those heights."""
    columns = v.coef @ exact_phases(v.lattice.K, np.arange(M // 2), M).T
    return np.sum(np.abs(columns.reshape(-1, M // 2)) ** 2, axis=1)


def strip_l2_by_columns(v, M=None):
    """The strip rule at p = 2 on M (default: lp_norm's) from the columns' sums
    of squares: sqrt((L/M)^n M^(n-1) sum)."""
    lat = v.lattice
    M = M or default_oversample(lat)
    return math.sqrt((lat.L / M) ** lat.n * float(M) ** (lat.n - 1)
                     * float(np.sum(strip_rows_by_columns(v, M))))


def hessian(u):
    """All n^2 second derivatives d_a d_b u, row by row (mixed ones twice)."""
    n = u.lattice.n
    return [derivative(u, tuple(int(a == i) + int(b == i) for i in range(n)))
            for a in range(n) for b in range(n)]


def resolvent_estimate_by_fields(f, lam, bc):
    """resolvent_estimate_check by building u's n gradient and n^2 Hessian
    fields and taking each one's strip L2 norm from its formed columns."""
    norm_f = strip_l2_by_columns(f.field)
    u, _ = resolvent_halfspace(f, complex(lam), bc)
    n0 = strip_l2_by_columns(u.field)
    n1 = math.sqrt(sum(strip_l2_by_columns(d) ** 2 for d in gradient(u.field)))
    n2 = math.sqrt(sum(strip_l2_by_columns(d) ** 2 for d in hessian(u.field)))
    return abs(lam) * n0 / norm_f, math.sqrt(abs(lam)) * n1 / norm_f, n2 / norm_f
