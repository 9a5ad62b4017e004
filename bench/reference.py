"""Reference values computed apart from fsx, from mode coefficients alone.

A field is the coefficient array ``c`` of shape (2K+1,)*n, entry ``i`` holding
the amplitude of exp(i (2 pi / L) k . x) with k = i - K, on the torus [0, L)^n.
The vertical axis is the last one and the half-space is the strip
0 <= x_n < L/2.  Nothing here imports fsx: the checks compare fsx outputs
with these closed forms, exact sums and bounds.

Lebesgue norms are given as intervals [lo, hi] that every admissible
quadrature must land in:

- whole torus, p = 2 and 4: Plancherel, and Plancherel of the self-convolution
  (|u|^4 = |u^2|^2); exact, so the interval is rounding-wide;
- p = 4/3: the Hoelder sandwich ||u||_2^2/||u||_4 <= ||u||_4/3 <= |D|^(1/4)||u||_2;
- p = inf: between the RMS and the sum of |c_k|;
- strip, p = 2 and 4: the exact strip integral from the half-period weights,
  widened by the error bound of a left-endpoint rectangle rule whose step is
  at most L/(2D), D the vertical degree of the integrand (the largest step at
  which that rule does not alias it).
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Relative width allowed for rounding in exact comparisons.
ROUND = 1e-9
# Relative error allowed for fsx's log-grid quadrature in dt/t against a
# closed form (measured at most 1e-8 on the workloads' fields).
QUAD = 1e-7
# Coefficient error allowed for a cut onto a finite lattice, as a multiple of
# the discarded-tail share the method reports (measured at most 0.93).
TAIL_FACTOR = 2.0

# Littlewood-Paley profile: 1 on [0, 3/4], 0 on [4/3, inf), smoothstep between.
PLATEAU = 0.75
SUPPORT = 4.0 / 3.0
# Scales covering every nonzero frequency of the lattices used (|xi| <= 2^8).
SCALES = range(-6, 10)


def bandlimit(c: np.ndarray) -> int:
    return (c.shape[0] - 1) // 2


def wavenumbers(n: int, K: int, L: float) -> list[np.ndarray]:
    """Per-axis frequencies, broadcastable over the (2K+1)^n mode grid."""
    xi = (TWO_PI / L) * np.arange(-K, K + 1, dtype=float)
    out = []
    for a in range(n):
        shape = [1] * n
        shape[a] = 2 * K + 1
        out.append(xi.reshape(shape))
    return out


def xi_abs(n: int, K: int, L: float) -> np.ndarray:
    return np.sqrt(sum(x**2 for x in wavenumbers(n, K, L)))


def potential(c: np.ndarray, L: float, family: str, s: float) -> np.ndarray:
    """Coefficients of the potential whose L^p norm is the family's norm."""
    if family == "Lp":
        return c
    r = xi_abs(c.ndim, bandlimit(c), L)
    if family == "H":
        return c * (1.0 + r**2) ** (0.5 * s)
    if family == "Hdot":
        w = np.zeros_like(r)
        w[r > 0] = r[r > 0] ** s
        return c * w
    raise ValueError(f"no potential for family {family!r}")


def l2(c: np.ndarray, L: float) -> float:
    return math.sqrt(L**c.ndim * float(np.sum(np.abs(c) ** 2)))


def square(c: np.ndarray) -> np.ndarray:
    """Coefficients of u^2 (bandlimit 2K): the full self-convolution of c."""
    size = 2 * c.shape[0] - 1
    spec = np.fft.fftn(c, s=(size,) * c.ndim, axes=tuple(range(c.ndim)))
    return np.fft.ifftn(spec * spec)


def l4(c: np.ndarray, L: float) -> float:
    return l2(square(c), L) ** 0.5


def _widen(lo: float, hi: float, rel: float = ROUND) -> tuple[float, float]:
    return lo * (1.0 - rel), hi * (1.0 + rel)


# ---------------------------------------------------------------------------
# Strip integrals
# ---------------------------------------------------------------------------


def vertical_marginal(c: np.ndarray, L: float) -> np.ndarray:
    """Fourier coefficients F_r, r = -2K..2K, of x_n -> integral of |u|^2 dx'."""
    N = c.shape[-1]
    rows = c.reshape(-1, N)
    gram = rows.T @ np.conj(rows)  # gram[a, b] = sum_k' c[k', a] conj c[k', b]
    diff = (np.arange(N)[:, None] - np.arange(N)[None, :]).ravel() + (N - 1)
    re = np.bincount(diff, gram.real.ravel(), 2 * N - 1)
    im = np.bincount(diff, gram.imag.ravel(), 2 * N - 1)
    return L ** (c.ndim - 1) * (re + 1j * im)


def half_period_weight(r: np.ndarray, L: float) -> np.ndarray:
    """Exact integral of exp(i 2 pi r x / L) over 0 <= x < L/2."""
    r = np.asarray(r)
    w = np.zeros(r.shape, dtype=complex)
    w[r == 0] = L / 2.0
    odd = r % 2 != 0
    w[odd] = 1j * L / (math.pi * r[odd])
    return w


def interval_weight(r: np.ndarray, L: float, a: float, b: float) -> np.ndarray:
    """Exact integral of exp(i 2 pi r x / L) over a <= x < b."""
    k = (TWO_PI / L) * np.asarray(r, dtype=float)
    safe = np.where(k == 0.0, 1.0, k)
    return np.where(k == 0.0, b - a, (np.exp(1j * k * b) - np.exp(1j * k * a)) / (1j * safe))


def rectangle_error(r: np.ndarray, D: int, L: float) -> np.ndarray:
    """|rule - exact| weight of mode r for the left rectangle rule of step L/(2D).

    The rule's weight of an odd mode is h (1 + i cot(theta/2)) against the
    exact i 2h/theta, theta = 2 pi r h / L; even modes are integrated exactly.
    The gap grows with h, so it bounds every step up to L/(2D).
    """
    r = np.asarray(r, dtype=float)
    h = L / (2.0 * D)
    out = np.zeros(r.shape)
    odd = np.abs(r % 2) == 1
    theta = TWO_PI * r[odd] * h / L
    out[odd] = h * np.sqrt(1.0 + (1.0 / np.tan(theta / 2.0) - 2.0 / theta) ** 2)
    return out


def strip_l2sq(c: np.ndarray, L: float) -> tuple[float, float]:
    """Exact integral of |u|^2 over the strip and the rectangle rule's error bound."""
    F = vertical_marginal(c, L)
    N = c.shape[-1]
    r = np.arange(-(N - 1), N)
    exact = float(np.real(np.sum(F * half_period_weight(r, L))))
    bound = float(np.sum(np.abs(F) * rectangle_error(r, N - 1, L)))
    return exact, bound + ROUND * exact


def band_l2(c: np.ndarray, L: float, a: float, b: float) -> float:
    """Exact L^2 norm of u over the band a <= x_n < b."""
    N = c.shape[-1]
    r = np.arange(-(N - 1), N)
    sq = float(np.real(np.sum(vertical_marginal(c, L) * interval_weight(r, L, a, b))))
    return math.sqrt(max(sq, 0.0))


# ---------------------------------------------------------------------------
# L^p intervals
# ---------------------------------------------------------------------------


def lp_interval(c: np.ndarray, L: float, p: float, domain: str = "whole") -> tuple[float, float]:
    """Interval holding the quadrature L^p norm of the field with coefficients c."""
    n = c.ndim
    if domain == "whole":
        measure = L**n
        a2 = l2(c, L)
        lo2, hi2 = a2, a2
        if p != 2.0:
            a4 = l4(c, L)
            lo4, hi4 = a4, a4
    elif domain == "halfspace":
        measure = L**n / 2.0
        i2, b2 = strip_l2sq(c, L)
        lo2, hi2 = math.sqrt(max(i2 - b2, 0.0)), math.sqrt(i2 + b2)
        if p != 2.0:
            i4, b4 = strip_l2sq(square(c), L)
            lo4, hi4 = max(i4 - b4, 0.0) ** 0.25, (i4 + b4) ** 0.25
    else:
        raise ValueError(f"unknown domain {domain!r}")
    if p == 2.0:
        return _widen(lo2, hi2)
    if p == 4.0:
        return _widen(lo4, hi4)
    if math.isclose(p, 4.0 / 3.0):
        lo = lo2**2 / hi4 if hi4 > 0 else 0.0
        return _widen(lo, measure**0.25 * hi2)
    if math.isinf(p):
        return _widen(lo2 / math.sqrt(measure), float(np.sum(np.abs(c))))
    raise ValueError(f"no interval for p={p}")


def within(value: float, interval: tuple[float, float]) -> bool:
    lo, hi = interval
    return math.isfinite(value) and lo <= value <= hi


def rel_close(value: float, expected: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= tol * abs(expected)


def arrays_close(out: np.ndarray, expected: np.ndarray, tol: float) -> bool:
    """Largest entry error at most tol times the largest expected entry."""
    return bool(np.max(np.abs(out - expected)) <= tol * np.max(np.abs(expected)))


def nonincreasing(values: list[float]) -> bool:
    return all(b <= a * (1.0 + ROUND) for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Dyadic blocks
# ---------------------------------------------------------------------------


def smooth_cut(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    out = np.where(r <= PLATEAU, 1.0, 0.0)
    mid = (r > PLATEAU) & (r < SUPPORT)
    t = (SUPPORT - r[mid]) / (SUPPORT - PLATEAU)
    h, hc = np.exp(-1.0 / t), np.exp(-1.0 / (1.0 - t))
    out[mid] = h / (h + hc)
    return out


def blocks(c: np.ndarray, L: float, inhomogeneous: bool = False) -> dict[int, np.ndarray]:
    """Littlewood-Paley pieces psi_j(xi) c; the low-pass piece is j = -1 if inhomogeneous."""
    r = xi_abs(c.ndim, bandlimit(c), L)
    out = {}
    for j in SCALES:
        if inhomogeneous and j < -1:
            continue
        if inhomogeneous and j == -1:
            weight = smooth_cut(r)
        else:
            weight = smooth_cut(r / 2.0 ** (j + 1)) - smooth_cut(r / 2.0**j)
        if np.any(weight * np.abs(c) > 0):
            out[j] = weight * c
    return out


def seq_norm(entries: dict[int, float], s: float, q: float) -> float:
    terms = [2.0 ** (j * s) * v for j, v in entries.items()]
    if math.isinf(q):
        return max(terms)
    return sum(t**q for t in terms) ** (1.0 / q)


def besov_interval(c, L, s, p, q, domain="whole", inhomogeneous=False):
    """Interval for the block norm: the sequence norm is monotone in each entry."""
    ivs = {j: lp_interval(b, L, p, domain) for j, b in blocks(c, L, inhomogeneous).items()}
    lo = seq_norm({j: iv[0] for j, iv in ivs.items()}, s, q)
    hi = seq_norm({j: iv[1] for j, iv in ivs.items()}, s, q)
    return lo, hi


def fubini_interval(c, L, s, domain="whole") -> tuple[float, float]:
    """Square-function norm at p = 2 by exchanging the sums: sum_j 4^(js) ||psi_j u||_2^2."""
    exact, bound = 0.0, 0.0
    for j, b in blocks(c, L).items():
        if domain == "whole":
            e, d = l2(b, L) ** 2, ROUND * l2(b, L) ** 2
        else:
            e, d = strip_l2sq(b, L)
        exact += 4.0 ** (j * s) * e
        bound += 4.0 ** (j * s) * d
    return _widen(math.sqrt(max(exact - bound, 0.0)), math.sqrt(exact + bound))


# ---------------------------------------------------------------------------
# Interpolation and semigroup norms
# ---------------------------------------------------------------------------


def hilbert_interp_norm(c, L, s0, s1, theta) -> float:
    """(Hdot^s0, Hdot^s1)_{theta,2} norm of the quadratic-mean split functional.

    integral t^(-2 theta) a b t^2 / (a + b t^2) dt/t = a^(1-theta) b^theta pi / (2 sin pi theta)
    mode by mode, with a = |xi|^(2 s0) and b = |xi|^(2 s1).
    """
    s = (1.0 - theta) * s0 + theta * s1
    return math.sqrt(math.pi / (2.0 * math.sin(math.pi * theta))) * l2(
        potential(c, L, "Hdot", s), L
    )


def trivial_split_bound(a0: float, a1: float, theta: float) -> float:
    """sup_t t^-theta min(a0, t a1): the q = inf norm the trivial splits bound K(t) by."""
    return a0 ** (1.0 - theta) * a1**theta


def poisson_l2_norm(c, L, s, alpha) -> float:
    """|| t^s (-Lap)^(alpha/2) e^(-t sqrt(-Lap)) u ||_{L^2(dt/t; L^2)} in closed form."""
    return math.sqrt(math.gamma(2.0 * s)) * 2.0**-s * l2(potential(c, L, "Hdot", alpha - s), L)


def poisson_interval(c, L, s, alpha, p) -> tuple[float, float]:
    """Interval for the q = 2 semigroup norm, allowing fsx's dt/t quadrature error."""
    if p == 2.0:
        v = poisson_l2_norm(c, L, s, alpha)
        return _widen(v, v, QUAD)
    return _widen(*poisson_l4_interval(c, L, s, alpha), QUAD)


def poisson_l4_interval(c, L, s, alpha) -> tuple[float, float]:
    """Bounds for the p = 4, q = 2 semigroup norm from the p = 2 closed form.

    Below: ||w||_2 <= L^(n/4) ||w||_4.  Above: ||w||_4^2 <= ||w||_inf ||w||_2,
    ||e^(-t|xi|) v||_inf <= S e^(-t r_min), then Cauchy-Schwarz in t.
    """
    n = c.ndim
    p2 = poisson_l2_norm(c, L, s, alpha)
    v = potential(c, L, "Hdot", alpha)
    r = xi_abs(n, bandlimit(c), L)
    support = np.abs(v) > 0
    S = float(np.sum(np.abs(v)))
    r_min = float(r[support].min())
    hi = math.sqrt(S * math.sqrt(math.gamma(2.0 * s)) * (2.0 * r_min) ** -s * p2)
    return _widen(L ** (-n / 4.0) * p2, hi)


# ---------------------------------------------------------------------------
# Half-space operators
# ---------------------------------------------------------------------------


def mode_resolvent(c, L, lam) -> np.ndarray:
    """Whole-space (lam - Laplacian)^(-1) by mode division."""
    r = xi_abs(c.ndim, bandlimit(c), L)
    return c / (lam + r**2)


def resolvent_ratios(f, L, lam) -> list[tuple[float, float]]:
    """Intervals for (|lam| ||u||, |lam|^1/2 ||grad u||, ||grad^2 u||) / ||f||, strip L^2."""
    u = mode_resolvent(f, L, lam)
    xi = wavenumbers(f.ndim, bandlimit(f), L)
    i_f, b_f = strip_l2sq(f, L)
    terms = [
        [u],
        [1j * x * u for x in xi],
        [-(xa * xb) * u for xa in xi for xb in xi],
    ]
    out = []
    for scale, parts in zip((abs(lam), math.sqrt(abs(lam)), 1.0), terms):
        i_u = sum(strip_l2sq(part, L)[0] for part in parts)
        b_u = sum(strip_l2sq(part, L)[1] for part in parts)
        lo = scale * math.sqrt(max(i_u - b_u, 0.0) / (i_f + b_f))
        hi = scale * math.sqrt((i_u + b_u) / max(i_f - b_f, 1e-300))
        out.append(_widen(lo, hi))
    return out


def trig_sum(c: np.ndarray, L: float, points: np.ndarray) -> np.ndarray:
    """Values sum_k c_k exp(i xi_k . x) at an (m, n) array of points."""
    K = bandlimit(c)
    k = (TWO_PI / L) * np.arange(-K, K + 1, dtype=float)
    out = np.zeros(len(points), dtype=complex)
    for row, x in enumerate(points):
        v = c
        for a in range(c.ndim):
            v = np.exp(1j * k * x[a]) @ v.reshape(2 * K + 1, -1)
        out[row] = v.item()
    return out


def boundary_condition_holds(v, w, want, L, points, normal: bool) -> bool:
    """The boundary values of v + w match the data values ``want`` at the points."""
    got, scale = boundary_values(v, w, L, points, normal)
    scale += float(np.sum(np.abs(want)))
    return bool(np.max(np.abs(got - want)) <= 1e-10 * scale)


def at_least(value: float, bound: float) -> bool:
    return math.isfinite(value) and value >= bound * (1.0 - ROUND)


def boundary_values(v, w, L, points, normal: bool) -> tuple[np.ndarray, float]:
    """u = v + w on x_n = 0 (normal=False) or -d_n u there (normal=True).

    v: coefficients of the band-limited part on the n-D lattice; w: boundary
    coefficients of the harmonic part sum w_k' exp(-x_n |xi'|) exp(i xi' . x').
    Returns the values and the scale sum |terms| that rounding is relative to.
    """
    n = v.ndim
    K = bandlimit(v)
    if normal:
        xi_n = wavenumbers(n, K, L)[-1]
        vb = (-1j * xi_n * v).sum(axis=-1)
        wb = xi_abs(n - 1, K, L) * w
    else:
        vb = v.sum(axis=-1)
        wb = w
    scale = float(np.sum(np.abs(vb)) + np.sum(np.abs(wb)))
    return trig_sum(vb + wb, L, points), scale


def indicator_toeplitz(c: np.ndarray, enlarge: int) -> np.ndarray:
    """Coefficients of 1{0 <= x_n < L/2} u on the lattice of bandlimit enlarge*K.

    The indicator's coefficients are the half-period weights
    h_0 = 1/2, h_r = (1 - (-1)^r) / (2 pi i r); the product convolves them
    with c along the vertical axis, exactly.
    """
    n, K = c.ndim, bandlimit(c)
    big = enlarge * K
    a = np.arange(-big, big + 1)
    b = np.arange(-K, K + 1)
    r = a[:, None] - b[None, :]
    h = np.zeros(r.shape, dtype=complex)
    h[r == 0] = 0.5
    odd = r % 2 != 0
    h[odd] = (1.0 - (-1.0) ** r[odd]) / (2j * math.pi * r[odd])
    cut = np.tensordot(c, h, axes=([n - 1], [1]))  # (2K+1,)*(n-1) + (2 big + 1,)
    out = np.zeros((2 * big + 1,) * n, dtype=complex)
    inner = tuple([slice(big - K, big + K + 1)] * (n - 1) + [slice(None)])
    out[inner] = cut
    return out


# Tolerances of the checks whose method has a discretisation error of its own,
# relative to the input's size.  Each is at least twice the largest error
# measured on the workloads' fields over seeds 1-80, and about half the
# error of the nearest wrong answer or less (README, "Checks").
VANISH_TOL = 0.25  # lower-half L^2 of project_zero's output over ||u||_2
REFLECT_TOL = 0.4  # upper-half RMS error of project_zero over the RMS of u
HARMONIC_TOL = 0.5  # interior RMS error of a materialized BVP over the RMS of w


def reflection_alphas(m: int) -> np.ndarray:
    """alpha_j with sum_j alpha_j (-1/(j+1))^kappa = 1 for kappa = 0..m."""
    nodes = -1.0 / np.arange(1.0, m + 2.0)
    return np.linalg.solve(np.vander(nodes, increasing=True).T, np.ones(m + 1))


def zero_projection_values(c: np.ndarray, L: float, points: np.ndarray, m: int) -> np.ndarray:
    """u(x) - sum_j alpha_j u(x', -x_n/(j+1)) at upper-half points: the projection's values there."""
    out = trig_sum(c, L, points)
    for j, a in enumerate(reflection_alphas(m)):
        mirrored = points.copy()
        mirrored[:, -1] = -points[:, -1] / (j + 1)
        out -= a * trig_sum(c, L, mirrored)
    return out


def rms(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(values) ** 2)))


def projection_holds(out, c, L, points, want) -> bool:
    """project_zero's output vanishes on the lower half and matches the reflection above.

    Lower half: the exact L^2 norm over -3L/8 <= x_n < 0, at most VANISH_TOL
    times ||u||_2 (the band leaves out the jump the extension leaves at
    x_n = -L/2).  Upper half: the RMS error against ``want``, the values of
    ``zero_projection_values`` at the points, at most REFLECT_TOL times the
    RMS of u over the torus.
    """
    norm = l2(c, L)
    size = norm / math.sqrt(L**c.ndim)
    below = band_l2(out, L, -3.0 * L / 8.0, 0.0)
    above = rms(trig_sum(out, L, points) - want)
    return bool(np.all(np.isfinite(out))) and below <= VANISH_TOL * norm and above <= REFLECT_TOL * size


def harmonic_values(w: np.ndarray, L: float, points: np.ndarray) -> np.ndarray:
    """sum_k' w_k' exp(-x_n |xi'|) exp(i xi' . x') at an (m, n) array of points."""
    rate = xi_abs(w.ndim, bandlimit(w), L)
    return np.array([trig_sum(w * np.exp(-x[-1] * rate), L, x[None, :-1])[0] for x in points])


def materialized_close(mat, v, w, L, points) -> bool:
    """A materialized v + w matches the exact sums at interior strip points.

    The RMS error is at most HARMONIC_TOL times the RMS of the harmonic part
    w there; v is band-limited, so the whole error is w's.
    """
    wx = harmonic_values(w, L, points)
    err = rms(trig_sum(mat, L, points) - trig_sum(v, L, points) - wx)
    return bool(np.all(np.isfinite(mat))) and err <= HARMONIC_TOL * rms(wx)


def tail_close(out: np.ndarray, expected: np.ndarray, residual: float) -> bool:
    """l2 coefficient error within TAIL_FACTOR times the reported tail share."""
    err = float(np.linalg.norm(out - expected))
    return err <= (TAIL_FACTOR * residual + ROUND) * float(np.linalg.norm(expected))
