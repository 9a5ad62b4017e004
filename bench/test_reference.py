"""Each check accepts the closed form for a plane wave and rejects it perturbed by 1e-6.

Run with: python3 -m pytest bench/test_reference.py
"""

import math
import random

import numpy as np
import pytest

import reference as ref

L = 2.0 * math.pi
AMP = 0.7 - 0.4j
BUMP = 1e-6


def wave(n, K, k, amp=AMP):
    c = np.zeros((2 * K + 1,) * n, dtype=complex)
    c[tuple(K + np.array(k))] = amp
    return c


def random_field(n, K, seed=0):
    rng = np.random.default_rng(seed)
    shape = (2 * K + 1,) * n
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    r = ref.xi_abs(n, K, L)
    c *= (1.0 + r) ** -2.0
    c[(K,) * n] = 0.0
    return c


def accepts_only_exact(check, value):
    """check(value) holds, check(value * (1 +- 1e-6)) fails on at least one side."""
    return check(value) and not (check(value * (1 + BUMP)) and check(value * (1 - BUMP)))


N, K, KW = 2, 8, (3, 0)  # |xi| = 3 lies in the plateau of the j = 1 block only
XI = 3.0


@pytest.mark.parametrize("family,s,weight", [
    ("Lp", 0.0, 1.0), ("Hdot", 0.7, XI**0.7), ("H", -0.5, (1 + XI**2) ** -0.25),
])
def test_plancherel(family, s, weight):
    c = ref.potential(wave(N, K, KW), L, family, s)
    closed = weight * abs(AMP) * L ** (N / 2)
    assert accepts_only_exact(lambda v: ref.within(v, ref.lp_interval(c, L, 2.0)), closed)


@pytest.mark.parametrize("p,power", [(4.0, N / 4), (4.0 / 3.0, 3 * N / 4), (math.inf, 0.0)])
def test_lp_whole(p, power):
    c = wave(N, K, KW)
    closed = abs(AMP) * L**power
    assert accepts_only_exact(lambda v: ref.within(v, ref.lp_interval(c, L, p)), closed)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_lp_strip(p):
    c = wave(N, K, KW)
    closed = abs(AMP) * (L**N / 2) ** (1 / p)
    assert accepts_only_exact(lambda v: ref.within(v, ref.lp_interval(c, L, p, "halfspace")), closed)


@pytest.mark.parametrize("domain,measure", [("whole", L**N), ("halfspace", L**N / 2)])
def test_fubini(domain, measure):
    c, s = wave(N, K, KW), 0.4
    closed = 2.0**s * abs(AMP) * math.sqrt(measure)
    iv = ref.fubini_interval(c, L, s, domain)
    assert accepts_only_exact(lambda v: ref.within(v, iv), closed)


@pytest.mark.parametrize("inhomogeneous", [False, True])
@pytest.mark.parametrize("p", [2.0, 4.0])
def test_besov(inhomogeneous, p):
    c, s = wave(N, K, KW), 0.4
    closed = 2.0**s * abs(AMP) * L ** (N / p)
    for q in (1.0, 2.0, math.inf):
        iv = ref.besov_interval(c, L, s, p, q, inhomogeneous=inhomogeneous)
        assert accepts_only_exact(lambda v: ref.within(v, iv), closed)


def test_monotone_in_q():
    assert ref.nonincreasing([2.0, 2.0, 2.0])
    assert not ref.nonincreasing([2.0, 2.0 * (1 + BUMP), 2.0])


def test_interp_hilbert():
    c, s0, s1, theta = wave(N, K, KW), -0.5, 0.7, 0.25
    s = (1 - theta) * s0 + theta * s1
    closed = math.sqrt(math.pi / (2 * math.sin(math.pi * theta))) * XI**s * abs(AMP) * L ** (N / 2)
    want = ref.hilbert_interp_norm(c, L, s0, s1, theta)
    assert accepts_only_exact(lambda v: ref.rel_close(v, want, ref.QUAD), closed)


def test_interp_trivial_split():
    theta = 0.5
    a0, a1 = abs(AMP) * L ** (N / 4), XI * abs(AMP) * L ** (N / 4)  # Hdot^0_4, Hdot^1_4
    closed = a0 ** (1 - theta) * a1**theta  # sup of t^-theta min(a0, t a1)
    bound = ref.trivial_split_bound(a0, a1, theta)
    assert accepts_only_exact(lambda v: 0.0 < v <= bound * (1 + ref.ROUND), closed)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_poisson(p):
    c, s, alpha = wave(N, K, KW), 0.5, 0.5
    p2 = math.sqrt(math.gamma(2 * s)) * (2 * XI) ** -s * XI**alpha * abs(AMP) * L ** (N / 2)
    closed = p2 if p == 2.0 else L ** (-N / 4) * p2
    iv = ref.poisson_interval(c, L, s, alpha, p)
    assert accepts_only_exact(lambda v: ref.within(v, iv), closed)


def test_resolvent():
    lam = 10.0 * np.exp(0.74j * math.pi)
    c = wave(N, K, KW)
    closed = wave(N, K, KW, AMP / (lam + XI**2))
    want = ref.mode_resolvent(c, L, lam)
    assert ref.arrays_close(closed, want, 1e-10)
    assert not ref.arrays_close(closed * (1 + BUMP), want, 1e-10)


def test_resolvent_ratios():
    lam = 10.0 * np.exp(0.25j * math.pi)
    d = abs(lam + XI**2)
    closed = (abs(lam) / d, math.sqrt(abs(lam)) * XI / d, XI**2 / d)
    ivs = ref.resolvent_ratios(wave(N, K, KW), L, lam)
    for value, iv in zip(closed, ivs):
        assert accepts_only_exact(lambda v, iv=iv: ref.within(v, iv), value)


@pytest.mark.parametrize("normal", [False, True])
def test_boundary_condition(normal):
    g = wave(N - 1, K, (3,))
    pts = np.array([[0.3], [1.9], [4.4]])
    want = ref.trig_sum(g, L, pts)
    v = np.zeros((2 * K + 1,) * N, dtype=complex)
    w = g / XI if normal else g  # -d_n of e^(-x_n |xi'|) is |xi'|
    assert ref.boundary_condition_holds(v, w, want, L, pts, normal)
    assert not ref.boundary_condition_holds(v, w * (1 + BUMP), want, L, pts, normal)


def test_restriction():
    c = wave(N, K, KW)
    closed = abs(AMP) * math.sqrt(L**N / 2)  # the zero extension attains it
    exact = math.sqrt(ref.strip_l2sq(c, L)[0])
    assert ref.at_least(closed, exact) and not ref.at_least(closed * (1 - BUMP), exact)


def upper_points(n, count, seed=1):
    rng = random.Random(seed)
    return np.array([[rng.uniform(0, L) for _ in range(n - 1)] + [rng.uniform(0, 3 * L / 8)]
                     for _ in range(count)])


def strip_cut(c, scale=1.0):
    """Coefficients, on c's own lattice, of scale * u times the indicator of the upper half."""
    K = ref.bandlimit(c)
    full = ref.indicator_toeplitz(scale * c, 4)
    return full[tuple(slice(4 * K - K, 4 * K + K + 1) for _ in range(c.ndim))]


def test_reflection_alphas_match_closed_forms():
    assert np.allclose(ref.reflection_alphas(0), [1.0])
    assert np.allclose(ref.reflection_alphas(1), [-3.0, 4.0])
    assert np.allclose(ref.reflection_alphas(2), [6.0, -32.0, 27.0])


def test_projection_even_field():
    """u even in x_n: at m = 0 the projection is 0; u itself and 0 at m = 1 are rejected."""
    K = 16
    c = wave(N, K, (1, 3)) + wave(N, K, (1, -3))
    pts = upper_points(N, 64)
    zero = np.zeros_like(c)
    want0 = ref.zero_projection_values(c, L, pts, 0)
    assert np.max(np.abs(want0)) < 1e-12
    assert ref.projection_holds(zero, c, L, pts, want0)
    assert not ref.projection_holds(c, c, L, pts, want0)
    assert not ref.projection_holds(zero, c, L, pts, ref.zero_projection_values(c, L, pts, 1))


def test_projection_odd_field():
    """u odd in x_n: at m = 0 the projection is 2u on the upper half, 0 below.

    Its truncated Fourier series passes; u itself, u cut to the upper half
    without the reflection, and 0 do not.
    """
    K = 16
    c = wave(N, K, (1, 2)) - wave(N, K, (1, -2))
    pts = upper_points(N, 64)
    want = ref.zero_projection_values(c, L, pts, 0)
    assert ref.projection_holds(strip_cut(c, 2.0), c, L, pts, want)
    for wrong in (c, strip_cut(c), np.zeros_like(c)):
        assert not ref.projection_holds(wrong, c, L, pts, want)


def test_materialized_harmonic_part():
    """The truncated Fourier series of the periodized profile passes; dropping or flipping w does not.

    On 0 <= x_n < L, exp(-a x_n) has coefficients (1 - exp(-a L)) / (L (a + i r)).
    """
    K, kb = 32, 2
    w = wave(N - 1, K, (kb,))
    v = wave(N, K, (3, 1))
    r = np.arange(-K, K + 1)
    a = float(abs(kb))
    profile = (1.0 - math.exp(-a * L)) / (L * (a + 1j * r))
    mat = v.copy()
    mat[K + kb, :] += AMP * profile
    rng = random.Random(2)
    pts = np.array([[rng.uniform(0, L), rng.uniform(L / 8, 3 * L / 8)] for _ in range(32)])
    assert ref.materialized_close(mat, v, w, L, pts)
    assert not ref.materialized_close(v, v, w, L, pts)
    assert not ref.materialized_close(2 * v - mat, v, w, L, pts)


def test_band_l2():
    c = wave(N, K, KW)
    assert math.isclose(ref.band_l2(c, L, -L / 2, 0.0), abs(AMP) * math.sqrt(L**N / 2))
    s = wave(N, K, (0, 1)) - wave(N, K, (0, -1))  # 2i sin(x_n)
    exact = 2 * abs(AMP) * math.sqrt(L * (3 * L / 16 + math.sin(-3 * L / 4) / 4))
    assert math.isclose(ref.band_l2(s, L, -3 * L / 8, 0.0), exact, rel_tol=1e-12)


def test_indicator():
    enlarge, b0 = 4, 3
    c = wave(N, K, (1, b0))
    big = enlarge * K
    closed = np.zeros((2 * big + 1,) * N, dtype=complex)
    for a in range(-big, big + 1):
        r = a - b0
        h = 0.5 if r == 0 else (1 - (-1) ** r) / (2j * math.pi * r)
        closed[big + 1, big + a] = AMP * h
    want = ref.indicator_toeplitz(c, enlarge)
    assert ref.tail_close(closed, want, 0.0)
    assert not ref.tail_close(closed * (1 + BUMP), want, 0.0)
    assert ref.tail_close(closed * (1 + BUMP), want, BUMP)


@pytest.mark.parametrize("M", [32, 48, 64, 256])
def test_rectangle_rule_within_bound(M):
    """A left rectangle rule of step L/M <= L/(4K) lands inside the strip bound."""
    n, K = 2, 8
    c = random_field(n, K)
    pad = np.zeros((M, M), dtype=complex)
    idx = np.arange(-K, K + 1) % M
    pad[np.ix_(idx, idx)] = c
    vals = np.fft.ifft2(pad) * M * M
    rule = (L / M) ** 2 * float(np.sum(np.abs(vals[:, : M // 2]) ** 2))
    exact, bound = ref.strip_l2sq(c, L)
    assert abs(rule - exact) <= bound
    assert abs(rule - exact) > 1e-6 * exact  # the rule is not exact, so the bound is doing work


def test_lp_intervals_hold_for_a_fine_grid():
    n, K, M = 2, 8, 128
    c = random_field(n, K, seed=3)
    pad = np.zeros((M, M), dtype=complex)
    idx = np.arange(-K, K + 1) % M
    pad[np.ix_(idx, idx)] = c
    mags = np.abs(np.fft.ifft2(pad) * M * M)
    for domain, part in (("whole", mags), ("halfspace", mags[:, : M // 2])):
        for p in (4.0 / 3.0, 2.0, 4.0, math.inf):
            value = part.max() if math.isinf(p) else ((L / M) ** 2 * np.sum(part**p)) ** (1 / p)
            assert ref.within(float(value), ref.lp_interval(c, L, p, domain)), (domain, p)
