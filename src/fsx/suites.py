"""Registered verification suites.

Each suite executes one family of identities or inequalities over
deterministic corpora, records per-case values with explicit pass bounds, and
logs all measured equivalence constants.  Mathematical failures are recorded
in the report, never raised; only configuration and I/O problems raise.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .corpus import bump_field, DEFAULT_BUMP_SIGMA, generate_corpus
from .dyadic import annulus_values, build_dyadic_family, delta_dot, partition_values
from .errors import ConfigError, UnknownSuite
from .halfspace import (
    extend_reflect,
    far_band_heights,
    indicator_multiply,
    lower_half_defect,
    make_half_field,
    project_zero,
    reflect_parity,
    reflection_coefficients,
    restriction_norm,
)
from .interp import (
    Couple,
    best_k_curve,
    default_tgrid,
    holder_check,
    interp_norm_from_curve,
    k_curve_upper,
)
from .lattice import (
    Field,
    Lattice,
    default_oversample,
    make_lattice,
    plane_wave,
    sample_grid,
    without_mean,
    xi_norm,
    xi_norm_sq,
    zero_field,
)
from .multipliers import derivative, fractional_laplacian, gradient, hessian, laplacian
from .norms import (
    SpaceSpec,
    besov_norm,
    get_family,
    lp_norm,
    pairing,
    sobolev_norm,
    triebel_fubini_l2,
    triebel_norm,
)
from .poisson import materialize_poisson, poisson_besov_norm, poisson_extend, trace
from .report import Report
from .solvers import (
    DIRICHLET,
    NEUMANN,
    bvp_dirichlet,
    bvp_neumann,
    energy_form,
    resolvent_estimate_check,
    resolvent_halfspace,
)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SuiteConfig:
    dim: int = 2
    bandlimit: int = 32
    seed: int = 42
    period: float = TWO_PI
    corpus_size: int = 8
    p_list: tuple = (4.0 / 3.0, 2.0, 4.0)
    s_list: tuple = (-0.5, 0.0, 0.7, 1.2)

    def __post_init__(self):
        if self.dim < 1 or self.bandlimit < 1:
            raise ConfigError("dim and bandlimit must be positive")
        if self.corpus_size < 1:
            raise ConfigError("corpus size must be >= 1")

    def lattice(self) -> Lattice:
        return make_lattice(self.dim, self.bandlimit, self.period)


def _report(name: str, cfg: SuiteConfig, verifies: list[str]) -> Report:
    return Report(
        suite=name,
        params={
            "dim": cfg.dim,
            "bandlimit": cfg.bandlimit,
            "seed": cfg.seed,
            "corpus_size": cfg.corpus_size,
        },
        verifies=verifies,
    )


def _random_corpus(cfg: SuiteConfig, size: int | None = None, lat: Lattice | None = None):
    return generate_corpus(
        cfg.seed, "random_bandlimited", size or cfg.corpus_size, lat or cfg.lattice()
    )


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_lp_partition(cfg: SuiteConfig) -> Report:
    rep = _report(
        "lp_partition",
        cfg,
        [
            "dyadic partition of unity on nonzero lattice frequencies",
            "annular support exactness",
            "near-orthogonality of dyadic blocks",
            "uniform L^p boundedness of block operators",
        ],
    )
    t0 = time.perf_counter()
    lat = cfg.lattice()
    fam = build_dyadic_family(lat)
    r = xi_norm(lat)
    nonzero = r > 0.0
    dev = float(np.max(np.abs(partition_values(fam)[nonzero] - 1.0)))
    rep.add_case("partition_max_dev", dev, 1e-12, dev <= 1e-12)

    support_dev = 0.0
    for j in fam.j_range:
        outside = (r < 3.0 * 2.0 ** (j - 2)) | (r > 2.0 ** (j + 3) / 3.0)
        support_dev = max(support_dev, float(np.max(np.abs(annulus_values(lat, j)[outside]))))
    rep.add_case("support_exactness", support_dev, 0.0, support_dev == 0.0)

    ortho_dev = 0.0
    for j in fam.j_range:
        for jj in fam.j_range:
            if abs(j - jj) >= 2:
                prod = annulus_values(lat, j) * annulus_values(lat, jj)
                ortho_dev = max(ortho_dev, float(np.max(np.abs(prod))))
    rep.add_case("block_orthogonality", ortho_dev, 0.0, ortho_dev == 0.0)

    corpus = _random_corpus(cfg, size=min(cfg.corpus_size, 5))
    for p in (1.0, 2.0, math.inf):
        worst = 0.0
        for u in corpus.fields:
            den = lp_norm(u, p)
            for j in fam.j_range:
                worst = max(worst, lp_norm(delta_dot(u, j, fam), p) / den)
        key = "inf" if math.isinf(p) else f"{p:g}"
        rep.constants[f"block_op_norm_p{key}"] = worst
        rep.add_case(f"block_bound_p{key}", worst, 3.0, worst <= 3.0, corpus.digest())
    rep.wall_time = time.perf_counter() - t0
    return rep


def suite_reconstruction(cfg: SuiteConfig) -> Report:
    from .dyadic import decompose, delta_inhom, low_pass, reconstruct

    rep = _report(
        "reconstruction",
        cfg,
        [
            "block-overlap reconstruction is a left inverse of decomposition",
            "low-pass differences equal annular blocks",
            "inhomogeneous block conventions",
        ],
    )
    t0 = time.perf_counter()
    lat = cfg.lattice()
    fam = build_dyadic_family(lat)
    corpus = _random_corpus(cfg, size=max(cfg.corpus_size, 100))
    worst = 0.0
    for u in corpus.fields:
        v = reconstruct(decompose(u, fam))
        worst = max(worst, float(np.max(np.abs(v.coef - u.coef))) / u.peak())
    rep.add_case("reconstruction_identity", worst, 1e-10, worst <= 1e-10, corpus.digest())

    u = corpus.fields[0]
    dev = 0.0
    for j in fam.j_range:
        a = low_pass(u, j + 1, fam) - low_pass(u, j, fam)
        b = delta_dot(u, j, fam)
        dev = max(dev, float(np.max(np.abs(a.coef - b.coef))) / u.peak())
    rep.add_case("lowpass_telescoping", dev, 1e-13, dev <= 1e-13)

    total = zero_field(lat)
    for k in range(-1, fam.j_max + 1):
        total = total + delta_inhom(u, k, fam)
    dev = float(np.max(np.abs(total.coef - u.coef))) / u.peak()
    rep.add_case("inhomogeneous_resolution", dev, 1e-12, dev <= 1e-12)
    rep.wall_time = time.perf_counter() - t0
    return rep


def _hdot2_norm(u: Field, s: float) -> float:
    """Hdot^{s,2} norm of u less its mean: the Plancherel sum over xi != 0."""
    return sobolev_norm(without_mean(u), SpaceSpec("Hdot", s=s, p=2.0))


def suite_plancherel(cfg: SuiteConfig) -> Report:
    rep = _report(
        "plancherel",
        cfg,
        [
            "potential norm at p=2 equals the weighted mode sum",
            "gradient shifts regularity by one at p=2",
            "duality pairing bound at p=2",
        ],
    )
    t0 = time.perf_counter()
    lat = cfg.lattice()
    corpus = _random_corpus(cfg)
    M = default_oversample(lat)
    for s in cfg.s_list:
        worst_pl, worst_grad = 0.0, 0.0
        for u in corpus.fields:
            plancherel = _hdot2_norm(u, s)
            # sobolev_norm at p=2 is the weighted mode sum; an explicit M
            # makes lp_norm sample the grid, so the rectangle rule is checked
            direct = lp_norm(fractional_laplacian(u, s), 2.0, M=M)
            worst_pl = max(worst_pl, abs(direct - plancherel) / plancherel)
            grad_sq = sum(
                sobolev_norm(d, SpaceSpec("Hdot", s=s, p=2.0)) ** 2 for d in gradient(u)
            )
            up_sq = sobolev_norm(u, SpaceSpec("Hdot", s=s + 1.0, p=2.0)) ** 2
            worst_grad = max(worst_grad, abs(grad_sq - up_sq) / up_sq)
        rep.add_case(f"plancherel_s{s:g}", worst_pl, 1e-12, worst_pl <= 1e-12)
        rep.add_case(f"gradient_identity_s{s:g}", worst_grad, 1e-10, worst_grad <= 1e-10)

    u, v = corpus.fields[0], corpus.fields[1 % len(corpus.fields)]
    s = 0.6
    bound = sobolev_norm(u, SpaceSpec("Hdot", s=s, p=2.0)) * sobolev_norm(
        v, SpaceSpec("Hdot", s=-s, p=2.0)
    )
    val = abs(pairing(u, v))
    rep.add_case("duality_bound", val / bound, 1.0 + 1e-10, val <= bound * (1 + 1e-10))
    rep.wall_time = time.perf_counter() - t0
    return rep


def _cross_lattice(cfg: SuiteConfig, K: int) -> SuiteConfig:
    return replace(cfg, bandlimit=K)


def suite_norm_equiv(cfg: SuiteConfig) -> Report:
    rep = _report(
        "norm_equiv",
        cfg,
        [
            "square-function norm order exchange at p=2",
            "square-function vs potential norm equivalence constants",
            "gradient norm equivalence away from p=2",
            "block-norm gradient equivalence",
            "inhomogeneous norm vs Lebesgue plus homogeneous",
        ],
    )
    t0 = time.perf_counter()

    def measure(cfg_k: SuiteConfig) -> dict:
        corpus = _random_corpus(cfg_k, size=min(cfg_k.corpus_size, 5))
        out: dict[str, float] = {}
        for p in (4.0 / 3.0, 2.0, 4.0):
            for s in (-0.5, 0.0, 0.7):
                hi, lo = 0.0, math.inf
                for u in corpus.fields:
                    ratio = triebel_norm(u, s, p) / sobolev_norm(
                        u, SpaceSpec("Hdot", s=s, p=p)
                    )
                    hi, lo = max(hi, ratio), min(lo, ratio)
                out[f"triebel_over_sobolev_p{p:g}_s{s:g}_max"] = hi
                out[f"triebel_over_sobolev_p{p:g}_s{s:g}_min"] = lo
        return out

    main = measure(cfg)
    small = measure(_cross_lattice(cfg, max(cfg.bandlimit // 2, 8)))
    for key, val in main.items():
        rep.constants[key] = val
    fub_worst = 0.0
    corpus = _random_corpus(cfg, size=min(cfg.corpus_size, 5))
    for u in corpus.fields:
        for s in (-0.5, 0.0, 0.7):
            a = triebel_norm(u, s, 2.0)
            b = triebel_fubini_l2(u, s)
            fub_worst = max(fub_worst, abs(a / b - 1.0))
    rep.add_case("fubini_exchange_p2", fub_worst, 1e-10, fub_worst <= 1e-10)

    eq_ok = True
    stability = 0.0
    for key, val in main.items():
        if key.endswith("_max"):
            eq_ok &= val <= 10.0
        else:
            eq_ok &= val >= 0.1
        other = small[key]
        stability = max(stability, val / other, other / val)
    rep.add_case("equivalence_window", 1.0 if eq_ok else 0.0, 1.0, eq_ok)
    rep.add_case("cross_lattice_stability", stability, 2.0, stability <= 2.0)
    rep.constants["triebel_sobolev_stability"] = stability

    # gradient equivalence for p != 2 and the block-norm analogue
    worst_c = 0.0
    for u in corpus.fields:
        for p in cfg.p_list:
            if math.isinf(p):
                continue
            for s in (-0.5, 0.0):
                num = sum(
                    sobolev_norm(d, SpaceSpec("Hdot", s=s, p=p)) for d in gradient(u)
                )
                den = sobolev_norm(u, SpaceSpec("Hdot", s=s + 1.0, p=p))
                worst_c = max(worst_c, num / den, den / num)
                bnum = sum(
                    besov_norm(d, SpaceSpec("Bdot", s=s, p=p, q=2.0)) for d in gradient(u)
                )
                bden = besov_norm(u, SpaceSpec("Bdot", s=s + 1.0, p=p, q=2.0))
                worst_c = max(worst_c, bnum / bden, bden / bnum)
    rep.constants["gradient_equivalence"] = worst_c
    rep.add_case("gradient_equivalence", worst_c, 10.0, worst_c <= 10.0)

    worst = 0.0
    for u in corpus.fields:
        for s in (0.7, 1.2):
            for p in (2.0, 4.0):
                num = besov_norm(u, SpaceSpec("B", s=s, p=p, q=2.0))
                den = lp_norm(u, p) + besov_norm(u, SpaceSpec("Bdot", s=s, p=p, q=2.0))
                worst = max(worst, num / den, den / num)
    rep.constants["inhom_vs_intersection"] = worst
    rep.add_case("inhom_vs_intersection", worst, 4.0, worst <= 4.0)
    rep.wall_time = time.perf_counter() - t0
    return rep


def suite_holder(cfg: SuiteConfig) -> Report:
    rep = _report(
        "holder",
        cfg,
        ["interpolation inequality of potential norms in (s, 1/p)"],
    )
    t0 = time.perf_counter()
    corpus = _random_corpus(cfg, size=max(cfg.corpus_size, 100))
    worst = 0.0
    for u in corpus.fields:
        worst = max(worst, holder_check(u, -0.5, 0.7, 2.0, 2.0, 0.4))
    rep.add_case("p2_log_convexity", worst, 1.0 + 1e-10, worst <= 1.0 + 1e-10, corpus.digest())
    rep.constants["holder_p2"] = worst

    mixed = 0.0
    for u in corpus.fields[: min(10, len(corpus.fields))]:
        for theta in (0.25, 0.5, 0.75):
            r = holder_check(u, -0.5, 0.7, 4.0 / 3.0, 4.0, theta)
            mixed = max(mixed, r, 1.0 / r)
    rep.constants["holder_mixed_p"] = mixed
    rep.add_case("mixed_p_bounded", mixed, 10.0, mixed <= 10.0)
    rep.wall_time = time.perf_counter() - t0
    return rep


def suite_embedding(cfg: SuiteConfig) -> Report:
    rep = _report(
        "embedding",
        cfg,
        ["L^4 controlled by the half-derivative potential norm in dimension 2"],
    )
    t0 = time.perf_counter()
    if cfg.dim != 2:
        rep.add_case("skipped_dim", float(cfg.dim), 2.0, True)
        rep.wall_time = time.perf_counter() - t0
        return rep

    def measured_constant(cfg_k: SuiteConfig) -> float:
        corpus = _random_corpus(cfg_k)
        worst = 0.0
        for u in corpus.fields:
            ratio = lp_norm(u, 4.0) / sobolev_norm(u, SpaceSpec("Hdot", s=0.5, p=2.0))
            worst = max(worst, ratio)
        return worst

    c_small = measured_constant(_cross_lattice(cfg, max(cfg.bandlimit // 2, 8)))
    c_main = measured_constant(cfg)
    rep.constants["embedding_constant_main"] = c_main
    rep.constants["embedding_constant_small"] = c_small
    stable = max(c_main / c_small, c_small / c_main)
    rep.add_case("constant_bounded", c_main, 100.0, c_main < 100.0)
    rep.add_case("cross_lattice_stability", stable, 2.0, stable <= 2.0)
    rep.wall_time = time.perf_counter() - t0
    return rep


INTERP_GRID = {
    "p": (2.0, 4.0),
    "s_pairs": ((0.0, 1.0), (-0.5, 0.7)),
    "theta": (0.25, 0.5, 0.75),
    "q": (1.0, 2.0, math.inf),
}


def suite_interp_real(cfg: SuiteConfig) -> Report:
    rep = _report(
        "interp_real",
        cfg,
        [
            "real-interpolation norm comparable to the block norm",
            "quadratic-mean vs dyadic-split functional sandwich",
            "reconstruction bounded by the weighted block-norm sequence",
        ],
    )
    t0 = time.perf_counter()
    lat = cfg.lattice()
    corpus = _random_corpus(cfg, size=min(cfg.corpus_size, 4))
    tgrid = default_tgrid()
    ratio_hi, ratio_lo = 0.0, math.inf
    slack = 0.0
    for u in corpus.fields:
        for p in INTERP_GRID["p"]:
            for s0, s1 in INTERP_GRID["s_pairs"]:
                c = Couple(
                    SpaceSpec("Hdot", s=s0, p=p), SpaceSpec("Hdot", s=s1, p=p)
                )
                curve = best_k_curve(u, c, tgrid)
                if math.isclose(p, 2.0):
                    upper = k_curve_upper(u, c, tgrid)
                    exact = curve
                    with np.errstate(invalid="ignore", divide="ignore"):
                        ratios = np.where(
                            exact.values > 0, upper.values / (math.sqrt(2) * exact.values), 1.0
                        )
                    slack = max(slack, float(np.max(ratios)))
                for theta in INTERP_GRID["theta"]:
                    s = (1 - theta) * s0 + theta * s1
                    for q in INTERP_GRID["q"]:
                        num = interp_norm_from_curve(curve, theta, q)
                        den = besov_norm(u, SpaceSpec("Bdot", s=s, p=p, q=q))
                        ratio = num / den
                        ratio_hi = max(ratio_hi, ratio)
                        ratio_lo = min(ratio_lo, ratio)
    rep.constants["interp_over_besov_max"] = ratio_hi
    rep.constants["interp_over_besov_min"] = ratio_lo
    rep.constants["sandwich_slack"] = slack
    ok = ratio_lo >= 0.1 and ratio_hi <= 10.0
    rep.add_case("interp_vs_besov_window", ratio_hi, 10.0, ok, corpus.digest())
    rep.add_case("sandwich", slack, 3.0, 0.0 < slack <= 3.0)

    # reconstruction map bounded from weighted block sequences into block norms
    from .dyadic import BlockSeq, reconstruct
    from .norms import seq_norm

    fam = get_family(lat)
    worst = 0.0
    rng = np.random.default_rng(cfg.seed + 999)
    for u in corpus.fields:
        blocks = {}
        for j in fam.j_range:
            w = delta_dot(u, j, fam)
            blocks[j] = w * complex(rng.standard_normal(), rng.standard_normal())
        seq = BlockSeq(fam, blocks)
        v = reconstruct(seq)
        for s, p, q in [(0.3, 2.0, 2.0), (0.0, 4.0, 1.0)]:
            num = besov_norm(v, SpaceSpec("Bdot", s=s, p=p, q=q))
            den = seq_norm({j: lp_norm(w, p) for j, w in blocks.items()}, s, q)
            if den > 0:
                worst = max(worst, num / den)
    rep.constants["reconstruction_bound"] = worst
    rep.add_case("reconstruction_bounded", worst, 10.0, worst <= 10.0)
    rep.wall_time = time.perf_counter() - t0
    return rep


def suite_strichartz_indicator(cfg: SuiteConfig) -> Report:
    rep = _report(
        "strichartz_indicator",
        cfg,
        [
            "sharp half-space cut bounded on potential norms below the threshold",
            "growth of the cut beyond the threshold regularity",
        ],
    )
    t0 = time.perf_counter()
    lat = cfg.lattice()
    corpus = _random_corpus(cfg, size=min(cfg.corpus_size, 5))
    big_lat = make_lattice(cfg.dim, 2 * cfg.bandlimit, cfg.period)
    bounded, beyond = (-0.4, 0.0, 0.4), 0.9

    def max_ratios(target_lat):
        """Largest norm ratio of cut to field, per s; each field is cut once."""
        worst = dict.fromkeys(bounded + (beyond,), 0.0)
        for u in corpus.fields:
            emb = zero_field(target_lat)
            sl = [slice(target_lat.K - lat.K, target_lat.K + lat.K + 1)] * lat.n
            emb.coef[tuple(sl)] = u.coef
            cut, _ = indicator_multiply(emb)
            for s in worst:
                worst[s] = max(worst[s], _hdot2_norm(cut, s) / _hdot2_norm(emb, s))
        return worst

    main, big = max_ratios(lat), max_ratios(big_lat)
    for s in bounded + (beyond,):
        rep.constants[f"indicator_ratio_s{s:g}_K{cfg.bandlimit}"] = main[s]
        rep.constants[f"indicator_ratio_s{s:g}_K{2 * cfg.bandlimit}"] = big[s]
    for s in bounded:
        growth = big[s] / main[s]
        rep.add_case(f"bounded_s{s:g}", growth, 1.5, growth <= 1.5, corpus.digest())
    rep.add_case("grows_beyond_threshold", big[beyond] / main[beyond], 1.0,
                 big[beyond] > main[beyond])
    rep.wall_time = time.perf_counter() - t0
    return rep


def _strip_wave(lat: Lattice, r: int, odd: bool) -> Field:
    """exp(i x_1) sin(r x_n) if odd, else exp(i x_1) cos(r x_n), in any dimension."""
    up = plane_wave(lat, (1,) + (0,) * (lat.n - 2) + (r,)).coef
    down = plane_wave(lat, (1,) + (0,) * (lat.n - 2) + (-r,)).coef
    return Field(lat, up / 2j - down / 2j if odd else (up + down) / 2.0)


def _one_sided_bump(lat: Lattice, lower: bool = False) -> Field:
    center = lat.L / 4.0
    return bump_field(lat, -center if lower else center, DEFAULT_BUMP_SIGMA)


def suite_reflection(cfg: SuiteConfig) -> Report:
    rep = _report(
        "reflection",
        cfg,
        [
            "moment system of the higher-order reflection coefficients",
            "extension restricts to the data",
            "parity reflections exact on compatible series",
            "tangential derivative commutes with the extension",
            "extension operator norms stable across lattices",
        ],
    )
    t0 = time.perf_counter()
    lat = cfg.lattice()
    worst_res = 0.0
    for m in range(7):
        worst_res = max(worst_res, reflection_coefficients(m).moment_residual())
    rep.add_case("moment_residuals", worst_res, 1e-9, worst_res <= 1e-9)
    a1 = reflection_coefficients(1).alpha
    a2 = reflection_coefficients(2).alpha
    dev = max(
        float(np.max(np.abs(a1 - np.array([-3.0, 4.0])))),
        float(np.max(np.abs(a2 - np.array([6.0, -32.0, 27.0])))),
    )
    rep.add_case("known_orders", dev, 1e-9, dev <= 1e-9)

    bump = make_half_field(_one_sided_bump(lat))
    M = default_oversample(lat)
    worst = 0.0
    for m in (0, 1, 2):
        ext, res = extend_reflect(bump, m, window=True)
        up = sample_grid(ext, M).values[..., : M // 2 + 1]
        ref = sample_grid(bump.field, M).values[..., : M // 2 + 1]
        err = float(np.max(np.abs(up - ref)))
        worst = max(worst, err - 10.0 * res)
    rep.add_case("restriction_identity", worst, 1e-10, worst <= 1e-10)

    sine = make_half_field(_strip_wave(lat, 2, odd=True))
    _, res_odd = reflect_parity(sine, "odd")
    cosine = make_half_field(_strip_wave(lat, 1, odd=False))
    _, res_even = reflect_parity(cosine, "even")
    rep.add_case("parity_exact_on_series", max(res_odd, res_even), 1e-12,
                 max(res_odd, res_even) <= 1e-12)

    _, res_mismatch_main = reflect_parity(cosine, "odd")
    big = make_lattice(cfg.dim, 2 * cfg.bandlimit, cfg.period)
    cos_big = make_half_field(_strip_wave(big, 1, odd=False))
    _, res_mismatch_big = reflect_parity(cos_big, "odd")
    rep.constants["odd_of_cosine_residual_main"] = res_mismatch_main
    rep.constants["odd_of_cosine_residual_big"] = res_mismatch_big
    rep.add_case(
        "jump_residual_decays", res_mismatch_big / res_mismatch_main, 1.0,
        res_mismatch_big < res_mismatch_main
    )

    du = make_half_field(derivative(bump.field, (1,) + (0,) * (lat.n - 1)))
    lhs, r1 = extend_reflect(bump, 1, window=True)
    lhs = derivative(lhs, (1,) + (0,) * (lat.n - 1))
    rhs, r2 = extend_reflect(du, 1, window=True)
    scale = max(rhs.peak(), 1e-30)
    comm = float(np.max(np.abs(lhs.coef - rhs.coef)))
    rep.add_case("tangential_commutation", comm, scale * (1e-9 + 10 * (r1 + r2)),
                 comm <= scale * (1e-9 + 10 * (r1 + r2)))

    def op_constants(lat_k: Lattice) -> float:
        u = make_half_field(_one_sided_bump(lat_k))
        worst_c = 0.0
        den, _ = restriction_norm(u, SpaceSpec("Hdot", s=0.4, p=2.0, domain="halfspace"))
        for m in (0, 1, 2):
            ext, _ = extend_reflect(u, m, window=True)
            num = sobolev_norm(ext, SpaceSpec("Hdot", s=0.4, p=2.0))
            worst_c = max(worst_c, num / den)
        return worst_c

    c_main = op_constants(lat)
    c_big = op_constants(big)
    rep.constants["extension_norm_ratio_main"] = c_main
    rep.constants["extension_norm_ratio_big"] = c_big
    stab = max(c_main / c_big, c_big / c_main)
    rep.add_case("extension_ratio_stability", stab, 2.0, stab <= 2.0)

    # gradient shifts the half-space potential norm by one order (estimator level)
    hs = SpaceSpec("Hdot", s=1.2, p=2.0, domain="halfspace")
    hs_down = SpaceSpec("Hdot", s=0.2, p=2.0, domain="halfspace")
    den, _ = restriction_norm(bump, hs)
    num = sum(restriction_norm(make_half_field(d), hs_down)[0] for d in gradient(bump.field))
    ratio = max(num / den, den / num)
    rep.constants["halfspace_gradient_equivalence"] = ratio
    rep.add_case("halfspace_gradient_equivalence", ratio, 20.0, ratio <= 20.0)
    rep.wall_time = time.perf_counter() - t0
    return rep


def suite_projection(cfg: SuiteConfig) -> Report:
    rep = _report(
        "projection",
        cfg,
        [
            "zero-boundary projection fixes upper-supported data",
            "output vanishes on the open lower half",
            "idempotence of the projection",
        ],
    )
    t0 = time.perf_counter()
    lat = cfg.lattice()
    up = _one_sided_bump(lat)
    scale = lp_norm(up, math.inf)
    worst = 0.0
    for m in (0, 1, 2):
        p = project_zero(up, m)
        worst = max(worst, float(np.max(np.abs(p.coef - up.coef))) / scale)
    rep.add_case("upper_fixed_point", worst, 1e-8, worst <= 1e-8)

    low = _one_sided_bump(lat, lower=True)
    defect = lower_half_defect(project_zero(low, 0)) / lp_norm(low, math.inf)
    rep.add_case("lower_content_removed", defect, 1e-8, defect <= 1e-8)

    idem = 0.0
    for m in (0, 1, 2):
        p1 = project_zero(up, m)
        p2 = project_zero(p1, m)
        idem = max(idem, float(np.max(np.abs(p2.coef - p1.coef))) / scale)
    p1 = project_zero(low, 0)
    p2 = project_zero(p1, 0)
    idem = max(idem, float(np.max(np.abs(p2.coef - p1.coef))) / lp_norm(low, math.inf))
    rep.add_case("idempotence_bumps", idem, 1e-8, idem <= 1e-8)

    corpus = _random_corpus(cfg, size=3)
    rc = reflection_coefficients(1)
    amp = 1.0 + float(np.sum(np.abs(rc.alpha)))
    worst_excess = 0.0
    for u in corpus.fields:
        p1 = project_zero(u, 1)
        p2 = project_zero(p1, 1)
        err = float(np.max(np.abs(p2.coef - p1.coef)))
        bound = 1e-8 * u.peak() + 2.0 * amp * lower_half_defect(p1)
        worst_excess = max(worst_excess, err / bound)
    rep.add_case("idempotence_random_bound", worst_excess, 1.0, worst_excess <= 1.0,
                 corpus.digest())
    rep.wall_time = time.perf_counter() - t0
    return rep


def _zero_horizontal_mean(u: Field) -> Field:
    v = u.copy()
    K = u.lattice.K
    v.coef[(K,) * (u.lattice.n - 1)] = 0.0
    return v


def suite_trace(cfg: SuiteConfig) -> Report:
    rep = _report(
        "trace",
        cfg,
        [
            "boundary restriction collapses vertical modes",
            "boundary block norm controlled by the half-space potential norm",
        ],
    )
    t0 = time.perf_counter()
    lat = cfg.lattice()
    u = plane_wave(lat, (2,) * (lat.n - 1) + (3,))
    g = trace(u)
    want = plane_wave(lat.boundary(), (2,) * (lat.n - 1))
    dev = float(np.max(np.abs(g.coef - want.coef)))
    rep.add_case("trace_of_wave", dev, 0.0, dev == 0.0)

    gen = generate_corpus(cfg.seed, "cosine_strip", min(cfg.corpus_size, 4), lat)
    worst = 0.0
    for u in gen.fields:
        u = _zero_horizontal_mean(u)
        gb = trace(u)
        if gb.peak() <= 1e-14:
            continue
        for s in (0.7, 1.2):
            num = besov_norm(gb, SpaceSpec("Bdot", s=s - 0.5, p=2.0, q=2.0))
            den, _ = restriction_norm(
                make_half_field(u), SpaceSpec("Hdot", s=s, p=2.0, domain="halfspace")
            )
            worst = max(worst, num / den)
    rep.constants["trace_estimate_constant"] = worst
    rep.add_case("trace_estimate", worst, 20.0, worst <= 20.0, gen.digest())
    rep.wall_time = time.perf_counter() - t0
    return rep


def suite_poisson(cfg: SuiteConfig) -> Report:
    rep = _report(
        "poisson",
        cfg,
        [
            "trace of the harmonic extension recovers the data",
            "semigroup characterization matches the scalar gamma integral",
            "semigroup norm comparable to the block norm",
            "extension bounded from boundary block norms into strip potential norms",
        ],
    )
    t0 = time.perf_counter()
    lat = cfg.lattice()
    blat = lat.boundary()

    g = plane_wave(blat, (3,) * blat.n)
    pf = poisson_extend(g)
    dev = float(np.max(np.abs(pf.slice_field(0.0).coef - g.coef)))
    rep.add_case("trace_of_extension", dev, 0.0, dev == 0.0)

    u = plane_wave(lat, (3,) + (0,) * (lat.n - 2) + (4,))
    w = 5.0
    s, alpha, p, q = 0.5, 0.0, 2.0, 2.0
    want = (
        w ** (alpha - s)
        * (math.gamma(s * q) / q ** (s * q)) ** (1.0 / q)
        * (lat.L**lat.n) ** (1.0 / p)
    )
    got = poisson_besov_norm(u, s, alpha, p, q)
    err = abs(got / want - 1.0)
    rep.add_case("gamma_integral_oracle", err, 1e-6, err <= 1e-6)

    corpus = _random_corpus(cfg, size=min(cfg.corpus_size, 4))
    hi, lo = 0.0, math.inf
    for u in corpus.fields:
        for s, p, q in [(0.5, 2.0, 2.0), (0.3, 2.0, 1.0), (0.8, 4.0, 2.0)]:
            num = poisson_besov_norm(u, s, 0.0, p, q)
            den = besov_norm(u, SpaceSpec("Bdot", s=-s, p=p, q=q))
            ratio = num / den
            hi, lo = max(hi, ratio), min(lo, ratio)
    rep.constants["semigroup_over_besov_max"] = hi
    rep.constants["semigroup_over_besov_min"] = lo
    rep.add_case("semigroup_vs_besov", hi, 10.0, lo >= 0.1 and hi <= 10.0, corpus.digest())

    g1 = plane_wave(blat, (1,) + (0,) * (blat.n - 1))
    hf, _ = materialize_poisson(poisson_extend(g1), lat)
    # the sup of exp(-x_n) over the far band sits at its lowest height
    want_leak = math.exp(-far_band_heights(default_oversample(lat), lat.L)[0])
    rep.add_case(
        "materialize_leakage_analytic",
        abs(hf.leakage - want_leak),
        1e-6,
        abs(hf.leakage - want_leak) <= 1e-6,
    )

    worst = 0.0
    rng = np.random.default_rng(cfg.seed + 5)
    for _ in range(3):
        modes = {}
        while len(modes) < 10:
            k = tuple(int(v) for v in rng.integers(-blat.K, blat.K + 1, size=blat.n))
            if any(k):
                modes[k] = complex(rng.standard_normal(), rng.standard_normal()) * (
                    1 + math.hypot(*k)
                ) ** -2.0
        from .lattice import field_from_modes

        gb = field_from_modes(blat, modes)
        hf, _ = materialize_poisson(poisson_extend(gb), lat)
        for s, p in [(0.5, 2.0), (1.0, 2.0), (1.5, 2.0), (1.0, 4.0)]:
            num = sobolev_norm(hf.field, SpaceSpec("Hdot", s=s, p=p, domain="halfspace"))
            den = besov_norm(gb, SpaceSpec("Bdot", s=s - 1.0 / p, p=p, q=p))
            worst = max(worst, num / den)
    rep.constants["extension_boundedness"] = worst
    rep.add_case("extension_bounded", worst, 20.0, worst <= 20.0)
    rep.wall_time = time.perf_counter() - t0
    return rep


RAYS = (0.0, math.pi / 4.0, math.pi / 2.0, 0.74 * math.pi)
MODULI = (0.1, 1.0, 10.0, 100.0)


def suite_resolvent(cfg: SuiteConfig) -> Report:
    rep = _report(
        "resolvent",
        cfg,
        [
            "image method agrees with direct mode division on parity corpora",
            "scaled resolvent estimates per sector ray",
            "sector constants grow toward the negative axis",
        ],
    )
    t0 = time.perf_counter()
    lat = cfg.lattice()
    sines = generate_corpus(cfg.seed, "sine_strip", 3, lat)
    coss = generate_corpus(cfg.seed, "cosine_strip", 3, lat)
    worst = 0.0
    for theta in RAYS:
        for mod in MODULI:
            lam = mod * cmath.exp(1j * theta)
            for f, bc in [(sines.fields[0], DIRICHLET), (coss.fields[0], NEUMANN)]:
                direct = Field(lat, f.coef / (lam + xi_norm_sq(lat)))
                u, _ = resolvent_halfspace(make_half_field(f), lam, bc)
                scale = max(np.abs(direct.coef).max(), 1e-30)
                worst = max(worst, float(np.max(np.abs(u.field.coef - direct.coef))) / scale)
    rep.add_case("image_identity", worst, 1e-10, worst <= 1e-10, sines.digest())

    # Per-(ray, modulus) constants: max of the ratio sum over both parities.
    # Uniformity is asserted over moduli at or above the smallest lattice
    # eigenvalue; below it (|lam| = 0.1 here) the constant deflates because
    # the surrogate spectrum has a gap at 1, which is logged, not failed.
    ray_constants: dict[float, list[float]] = {}
    pairs = [(make_half_field(sines.fields[1]), DIRICHLET),
             (make_half_field(coss.fields[1]), NEUMANN)]
    for theta in RAYS:
        per_mod = []
        for mod in MODULI:
            lam = mod * cmath.exp(1j * theta)
            worst = 0.0
            for f, bc in pairs:
                r0, r1, r2 = resolvent_estimate_check(f, lam, bc)
                worst = max(worst, r0 + r1 + r2)
            per_mod.append(worst)
        ray_constants[theta] = per_mod
        rep.constants[f"sector_constant_ray{theta:.3f}"] = max(per_mod)
        rep.constants[f"sector_constant_ray{theta:.3f}_full_spread"] = max(per_mod) / min(
            per_mod
        )
    resolved = [i for i, mod in enumerate(MODULI) if mod >= 1.0]
    for theta in RAYS[:3]:
        vals = [ray_constants[theta][i] for i in resolved]
        uniform = max(vals) / min(vals)
        rep.add_case(f"uniformity_ray{theta:.3f}", uniform, 1.5, uniform <= 1.5)
    steep = ray_constants[RAYS[3]]
    rep.constants["sector_constant_steep_spread"] = max(steep) / min(steep)
    maxima = [max(ray_constants[th]) for th in RAYS]
    monotone = all(maxima[i] <= maxima[i + 1] * (1 + 1e-9) for i in range(len(maxima) - 1))
    rep.add_case("sector_growth_monotone", maxima[-1] / maxima[0], math.inf, monotone)
    rep.wall_time = time.perf_counter() - t0
    return rep


def suite_bvp(cfg: SuiteConfig) -> Report:
    rep = _report(
        "bvp",
        cfg,
        [
            "inhomogeneous Dirichlet and Neumann problems solved by the split",
            "pure boundary data reproduces the decaying harmonic profile",
            "energy form identities",
        ],
    )
    t0 = time.perf_counter()
    lat = cfg.lattice()
    blat = lat.boundary()
    g = plane_wave(blat, (1,) + (0,) * (blat.n - 1))
    sol = bvp_dirichlet(None, g, lat=lat)
    rng = np.random.default_rng(cfg.seed + 7)
    worst = 0.0
    for _ in range(20):
        x = np.concatenate(
            [rng.uniform(0, lat.L, lat.n - 1), [rng.uniform(0.05, lat.L / 2 - 0.05)]]
        )
        want = cmath.exp(-x[-1]) * cmath.exp(1j * x[0])
        worst = max(worst, abs(sol.evaluate(x) - want))
    rep.add_case("poisson_profile", worst, 1e-10, worst <= 1e-10)

    sines = generate_corpus(cfg.seed, "sine_strip", 2, lat)
    coss = generate_corpus(cfg.seed, "cosine_strip", 2, lat)
    bump = _one_sided_bump(lat)
    worst_res, worst_bc = 0.0, 0.0
    gb = 0.2 * plane_wave(blat, (2,) + (0,) * (blat.n - 1))
    for f, kind in [
        (sines.fields[0], DIRICHLET),
        (coss.fields[0], NEUMANN),
        (bump, DIRICHLET),
    ]:
        hf = make_half_field(f)
        sol = (bvp_dirichlet if kind == DIRICHLET else bvp_neumann)(hf, gb)
        scale = max(lp_norm(f, 2.0, "halfspace"), 1e-30)
        worst_res = max(
            worst_res, (sol.interior_residual() - 10.0 * sol.reflection_residual) / scale
        )
        worst_bc = max(worst_bc, sol.boundary_mismatch())
    rep.add_case("interior_residual", worst_res, 1e-8, worst_res <= 1e-8)
    rep.add_case("boundary_mismatch", worst_bc, 1e-8, worst_bc <= 1e-8)

    u0 = bvp_dirichlet(make_half_field(zero_field(lat)), None)
    zero_ok = u0.v.peak() == 0.0 and u0.w.boundary.peak() == 0.0
    rep.add_case("zero_data_zero_solution", 0.0, 0.0, zero_ok)

    sine1 = make_half_field(sines.fields[0])
    a = energy_form(sine1, sine1)
    ok = a.real >= 0 and abs(a.imag) <= 1e-12 * max(a.real, 1.0)
    rep.add_case("energy_accretive", a.real, math.inf, ok)
    from .norms import halfspace_product_integral

    u1 = make_half_field(_strip_wave(lat, 1, odd=True))
    v1 = make_half_field(_strip_wave(lat, 2, odd=True))
    lhs = energy_form(u1, v1)
    rhs = halfspace_product_integral(-1.0 * laplacian(u1.field), v1.field, conjugate=True)
    err = abs(lhs - rhs)
    rep.add_case("integration_by_parts", err, 1e-9, err <= 1e-9 * max(abs(rhs), 1.0))

    # second-order estimate constant for the Dirichlet problem at s = 0, p = 2
    f = make_half_field(sines.fields[1])
    gb = 0.3 * plane_wave(blat, (1,) + (0,) * (blat.n - 1))
    sol = bvp_dirichlet(f, gb)
    mat, _ = sol.materialize()
    num = math.sqrt(sum(lp_norm(d, 2.0, "halfspace") ** 2 for d in hessian(mat.field)))
    den = lp_norm(f.field, 2.0, "halfspace") + besov_norm(
        gb, SpaceSpec("Bdot", s=2.0 - 0.5, p=2.0, q=2.0)
    )
    rep.constants["dirichlet_second_order_constant"] = num / den
    rep.add_case("second_order_estimate", num / den, 50.0, num / den <= 50.0)
    rep.wall_time = time.perf_counter() - t0
    return rep


def suite_scaling(cfg: SuiteConfig) -> Report:
    rep = _report(
        "scaling",
        cfg,
        ["dyadic dilation scales potential norms with the whole-space exponent"],
    )
    t0 = time.perf_counter()
    lat = cfg.lattice()
    from .lattice import dilate

    rng = np.random.default_rng(cfg.seed)
    kmax = max(lat.K // 4, 1)  # leaves room for two dyadic dilations
    modes = {}
    while len(modes) < 12:
        k = tuple(int(v) for v in rng.integers(-kmax, kmax + 1, size=lat.n))
        if any(k):
            modes[k] = complex(rng.standard_normal(), rng.standard_normal())
    from .lattice import field_from_modes

    u = field_from_modes(lat, modes)
    worst = 0.0
    for s in cfg.s_list:
        a = sobolev_norm(dilate(u, 1), SpaceSpec("Hdot", s=s, p=2.0))
        b = 2.0 ** (s - lat.n / 2.0) * sobolev_norm(u, SpaceSpec("Hdot", s=s, p=2.0))
        worst = max(worst, abs(a / b - 1.0))
    rep.add_case("dilation_scaling", worst, 1e-10, worst <= 1e-10)

    v1 = dilate(dilate(u, 1), 1)
    v2 = dilate(u, 2)
    dev = float(np.max(np.abs(v1.coef - v2.coef)))
    rep.add_case("dilation_composition", dev, 1e-14, dev <= 1e-14)
    rep.wall_time = time.perf_counter() - t0
    return rep


SUITES = {
    "lp_partition": suite_lp_partition,
    "reconstruction": suite_reconstruction,
    "plancherel": suite_plancherel,
    "norm_equiv": suite_norm_equiv,
    "holder": suite_holder,
    "embedding": suite_embedding,
    "interp_real": suite_interp_real,
    "strichartz_indicator": suite_strichartz_indicator,
    "reflection": suite_reflection,
    "projection": suite_projection,
    "trace": suite_trace,
    "poisson": suite_poisson,
    "resolvent": suite_resolvent,
    "bvp": suite_bvp,
    "scaling": suite_scaling,
}


def run_suite(name: str, cfg: SuiteConfig) -> Report:
    try:
        fn = SUITES[name]
    except KeyError:
        raise UnknownSuite(f"unknown suite {name!r}; known: {sorted(SUITES)}") from None
    return fn(cfg)


def run_all(cfg: SuiteConfig) -> list[Report]:
    return [run_suite(name, cfg) for name in SUITES]
