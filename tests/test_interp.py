import itertools
import math

import numpy as np
import pytest

from fsx.dyadic import lowpass_values
from fsx.errors import FsxError, InvalidExponent, InvalidParameter, NotHilbertCouple, ZeroField
from fsx.interp import (
    Couple,
    KCurve,
    best_k_curve,
    default_tgrid,
    holder_check,
    interp_norm_from_curve,
    k_curve_exact_hilbert,
    k_curve_upper,
    log_grid_integral,
    real_interp_norm,
    _part_norm,
    _space_s,
    split_candidates,
)
from fsx.lattice import Field, field_from_modes, make_lattice, plane_wave, zero_field
from fsx.norms import SpaceSpec, besov_norm, get_family, sobolev_norm

TWO_PI = 2.0 * math.pi

L2 = SpaceSpec("Lp", p=2.0)
H1 = SpaceSpec("Hdot", s=1.0, p=2.0)


def k_functional_upper(u, c, t):
    """The dyadic-split bound on K(t, u) at one t."""
    return float(k_curve_upper(u, c, np.array([t])).values[0])


def k_functional_exact_hilbert(u, c, t):
    """The quadratic-mean split functional at one t."""
    return float(k_curve_exact_hilbert(u, c, np.array([t])).values[0])


def random_zero_dc(lat, seed, count=20):
    rng = np.random.default_rng(seed)
    modes = {}
    while len(modes) < count:
        k = tuple(int(v) for v in rng.integers(-lat.K, lat.K + 1, size=lat.n))
        if any(k):
            modes[k] = complex(rng.standard_normal(), rng.standard_normal()) * (
                1.0 + math.hypot(*k)
            ) ** (-2.0)
    return field_from_modes(lat, modes)


class TestKFunctionalUpper:
    def test_single_wave_min_formula(self):
        # one mode at |k| = sqrt(2): the best split is all-or-nothing, so
        # K(t) = ||u||_2 min(1, sqrt(2) t)
        lat = make_lattice(2, 32)
        u = plane_wave(lat, (1, 1))
        c = Couple(L2, H1)
        for t in (1e-3, 0.5, 1.0 / math.sqrt(2.0), 3.0, 1e4):
            want = TWO_PI * min(1.0, math.sqrt(2.0) * t)
            assert k_functional_upper(u, c, t) == pytest.approx(want, rel=1e-12)

    def test_large_t_limit(self):
        lat = make_lattice(2, 16)
        u = random_zero_dc(lat, 1)
        c = Couple(L2, H1)
        want = sobolev_norm(u, SpaceSpec("Hdot", s=0.0, p=2.0))
        assert k_functional_upper(u, c, 1e9) == pytest.approx(want, rel=1e-9)

    def test_two_mode_brute_force_bracket(self):
        # brute force over all four subset splits of the two modes gives the
        # exact linear-split optimum; the dyadic-cut bound must not beat it
        # and must stay within sqrt(2) of the quadratic-mean value
        lat = make_lattice(2, 32)
        modes = {(1, 0): 1.5, (0, 9): 0.7j}
        u = field_from_modes(lat, modes)
        c = Couple(L2, H1)
        for t in (0.01, 0.2, 1.0, 7.0):
            costs = []
            for assign in itertools.product([0, 1], repeat=2):
                a_modes = {k: v for (k, v), w in zip(modes.items(), assign) if w == 0}
                b_modes = {k: v for (k, v), w in zip(modes.items(), assign) if w == 1}
                a = field_from_modes(lat, a_modes)
                b = field_from_modes(lat, b_modes)
                cost = sobolev_norm(a, SpaceSpec("Hdot", 0.0, 2.0)) + t * sobolev_norm(
                    b, H1
                )
                costs.append(cost)
            brute = min(costs)
            khat = k_functional_upper(u, c, t)
            k2 = k_functional_exact_hilbert(u, c, t)
            assert khat <= brute * (1.0 + 1e-12)
            assert khat >= k2 * (1.0 - 1e-12)
            assert khat <= math.sqrt(2.0) * k2 * 3.0


def explicit_candidates(u, c):
    """split_candidates with every cut computed from its two parts."""
    fam, peak = get_family(u.lattice), u.peak()
    out = [(_part_norm(u, c.X0, peak), 0.0, "all_X0"), (0.0, _part_norm(u, c.X1, peak), "all_X1")]
    for j in range(fam.j_min, fam.j_max + 2):
        low = Field(u.lattice, u.coef * lowpass_values(u.lattice, j))
        a, b = (u - low, low) if _space_s(c.X0) <= _space_s(c.X1) else (low, u - low)
        out.append((_part_norm(a, c.X0, peak), _part_norm(b, c.X1, peak), f"cut_j{j}"))
    return out


class TestSplitCandidates:
    """The cuts at j_min (for zero-mean u) and j_max + 1 repeat the trivial
    splits; split_candidates reuses those norms, and every value stays bitwise."""

    @pytest.mark.parametrize("x0, x1", [
        (SpaceSpec("Hdot", s=0.0, p=4.0), SpaceSpec("Hdot", s=1.0, p=4.0)),
        (SpaceSpec("Hdot", s=0.7, p=4.0 / 3.0), SpaceSpec("Lp", p=4.0 / 3.0)),
        (SpaceSpec("Lp", p=4.0), SpaceSpec("H", s=1.0, p=4.0))])
    @pytest.mark.parametrize("mean", [0.0, 0.3])
    def test_equal_to_explicit_cuts(self, x0, x1, mean):
        u = random_zero_dc(make_lattice(2, 16), 31)
        u.coef[(16, 16)] = mean
        c = Couple(x0, x1)
        explicit = explicit_candidates(u, c)
        assert split_candidates(u, c) == explicit
        aa, bb = (np.array([cand[i] for cand in explicit]) for i in (0, 1))
        t = default_tgrid()
        want = np.min(aa[None, :] + t[:, None] * bb[None, :], axis=1)
        assert np.array_equal(k_curve_upper(u, c).values, want)


class TestExactHilbert:
    def test_single_mode_limits(self):
        lat = make_lattice(2, 16)
        u = plane_wave(lat, (1, 1))
        c = Couple(L2, H1)
        w = math.sqrt(2.0)
        for t in (1e-6, 1e-2):
            want = TWO_PI * w * t / math.sqrt(1.0 + (w * t) ** 2)
            assert k_functional_exact_hilbert(u, c, t) == pytest.approx(want, rel=1e-10)
        # small t behaves like t ||u||_X1
        t = 1e-8
        assert k_functional_exact_hilbert(u, c, t) == pytest.approx(
            t * sobolev_norm(u, H1), rel=1e-9
        )

    def test_large_t_limit(self):
        lat = make_lattice(2, 16)
        u = random_zero_dc(lat, 2)
        c = Couple(L2, H1)
        assert k_functional_exact_hilbert(u, c, 1e9) == pytest.approx(
            sobolev_norm(u, SpaceSpec("Hdot", 0.0, 2.0)), rel=1e-8
        )

    def test_sandwich_on_grid(self):
        lat = make_lattice(2, 32)
        c = Couple(L2, H1)
        for seed in range(4):
            u = random_zero_dc(lat, 10 + seed)
            tgrid = default_tgrid()
            k2 = k_curve_exact_hilbert(u, c, tgrid).values
            khat = k_curve_upper(u, c, tgrid).values
            assert np.all(khat >= k2 * (1.0 - 1e-10))
            assert np.all(khat <= math.sqrt(2.0) * k2 * 3.0)

    def test_rejects_non_hilbert(self):
        lat = make_lattice(2, 8)
        u = plane_wave(lat, (1, 0))
        c = Couple(SpaceSpec("Lp", p=4.0), SpaceSpec("Hdot", s=1.0, p=4.0))
        with pytest.raises(NotHilbertCouple):
            k_functional_exact_hilbert(u, c, 1.0)


class TestCurveShape:
    def test_monotonicity_enforced(self):
        t = np.array([1.0, 2.0, 3.0])
        with pytest.raises(FsxError):
            KCurve(t, np.array([1.0, 0.5, 0.4]), "upper_dyadic")
        with pytest.raises(FsxError):
            KCurve(t, np.array([0.1, 1.0, 3.5]), "upper_dyadic")  # K/t increases

    def test_valid_curves_pass(self):
        lat = make_lattice(2, 16)
        u = random_zero_dc(lat, 3)
        c = Couple(L2, H1)
        k_curve_upper(u, c)
        k_curve_exact_hilbert(u, c)


class TestRealInterpNorm:
    def test_single_wave_scalar_oracle(self):
        # K(t) = 2 pi min(1, w t) integrates in closed form:
        # int t^{-q theta} min(1, w t)^q dt/t = w^{q theta}(1/(q theta) + 1/(q - q theta))
        lat = make_lattice(2, 32)
        u = plane_wave(lat, (1, 1))
        c = Couple(L2, H1)
        w = math.sqrt(2.0)
        theta, q = 0.5, 2.0
        closed = TWO_PI * (
            w ** (q * theta) * (1.0 / (q * theta) + 1.0 / (q - q * theta))
        ) ** (1.0 / q)
        # the dyadic curve is exactly the scalar min for one mode, so the only
        # deviation from the closed form is the quadrature of the kink
        got = interp_norm_from_curve(k_curve_upper(u, c), theta, q)
        assert got == pytest.approx(closed, rel=2e-2)
        # against the same trapezoid applied to the scalar function: tight
        tgrid = default_tgrid()
        scalar = KCurve(tgrid, TWO_PI * np.minimum(1.0, w * tgrid), "upper_dyadic")
        want = interp_norm_from_curve(scalar, theta, q)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_field(self):
        lat = make_lattice(2, 16)
        c = Couple(L2, H1)
        assert real_interp_norm(zero_field(lat), c, 0.5, 2.0) == 0.0

    @pytest.mark.parametrize("q", [0.5, math.nan])
    def test_outer_exponent_below_one_refused(self, q):
        curve = k_curve_upper(plane_wave(make_lattice(2, 8), (1, 1)), Couple(L2, H1))
        with pytest.raises(InvalidExponent):
            interp_norm_from_curve(curve, 0.5, q)

    @pytest.mark.parametrize("theta,q", [(0.25, 1.0), (0.5, 2.0), (0.75, math.inf)])
    def test_comparable_to_besov(self, theta, q):
        lat = make_lattice(2, 32)
        c = Couple(L2, H1)
        s = theta  # (1 - theta) * 0 + theta * 1
        for seed in range(3):
            u = random_zero_dc(lat, 20 + seed)
            num = real_interp_norm(u, c, theta, q)
            den = besov_norm(u, SpaceSpec("Bdot", s=s, p=2.0, q=q))
            assert 0.1 <= num / den <= 10.0


class TestHolder:
    def test_single_mode_ratio_one(self):
        lat = make_lattice(2, 16)
        u = plane_wave(lat, (2, 1))
        (r,) = holder_check(u, s0=0.0, s1=1.0, p0=2.0, p1=2.0, thetas=(0.3,))
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_p2_log_convexity(self):
        lat = make_lattice(2, 32)
        for seed in range(6):
            u = random_zero_dc(lat, 30 + seed)
            (r,) = holder_check(u, s0=-0.5, s1=0.7, p0=2.0, p1=2.0, thetas=(0.4,))
            assert r <= 1.0 + 1e-10

    def test_mixed_p_bounded(self):
        lat = make_lattice(2, 32)
        worst = 0.0
        for seed in range(4):
            u = random_zero_dc(lat, 40 + seed)
            (r,) = holder_check(u, s0=-0.5, s1=0.7, p0=4.0 / 3.0, p1=4.0, thetas=(0.5,))
            worst = max(worst, r, 1.0 / r)
        assert worst <= 10.0

    def test_one_ratio_per_theta(self):
        lat = make_lattice(2, 32)
        u = random_zero_dc(lat, 44)
        thetas = (0.25, 0.5, 0.75)
        got = holder_check(u, -0.5, 0.7, 4.0 / 3.0, 4.0, thetas)
        assert got == [holder_check(u, -0.5, 0.7, 4.0 / 3.0, 4.0, (t,))[0] for t in thetas]

    @pytest.mark.parametrize("theta", [0.0, 1.0, math.nan])
    def test_theta_outside_refused(self, theta):
        u = random_zero_dc(make_lattice(2, 8), 45)
        with pytest.raises(InvalidParameter):
            holder_check(u, 0.0, 1.0, 2.0, 2.0, (0.5, theta))

    def test_zero_field_raises(self):
        lat = make_lattice(2, 8)
        with pytest.raises(ZeroField):
            holder_check(zero_field(lat), 0.0, 1.0, 2.0, 2.0, (0.5,))


class TestBestCurve:
    def test_prefers_exact_on_hilbert_couples(self):
        lat = make_lattice(2, 16)
        u = random_zero_dc(lat, 50)
        assert best_k_curve(u, Couple(L2, H1)).kind == "exact_hilbert"
        c4 = Couple(SpaceSpec("Hdot", 0.0, 4.0), SpaceSpec("Hdot", 1.0, 4.0))
        assert best_k_curve(u, c4).kind == "upper_dyadic"


class TestLogGridIntegral:
    @pytest.mark.parametrize("a", [-0.7, 0.4, 1.5])
    def test_power_with_exact_end_slopes(self, a):
        # t^a dt/t integrates to (t2^a - t1^a) / a; with the exact end slopes
        # the trapezoid rule's h^2 term cancels
        t = np.logspace(-3, 3, 61, base=2.0)
        want = (t[-1] ** a - t[0] ** a) / a
        got = log_grid_integral(t, t**a, a, a)
        plain = np.trapezoid(t**a, np.log(t))
        assert got == pytest.approx(want, rel=1e-5)
        assert abs(got - want) < 1e-2 * abs(plain - want)
