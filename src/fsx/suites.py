"""Registered verification suites.

Each suite executes one family of identities or inequalities over
deterministic corpora, records per-case values with explicit pass bounds, and
logs all measured equivalence constants.  Mathematical failures are recorded
in the report, never raised; only configuration and I/O problems raise.

Every identity that the acceptance tests also check is one public
measurement function here.  It takes its inputs (lattice, fields, exponents)
and returns the values it is judged on; its bound is the constant defined
beside it.  The suites call these functions on their corpora, and the tests
call them on theirs.
"""

from __future__ import annotations

import cmath
import functools
import math
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace

import numpy as np

from .corpus import DEFAULT_BUMP_SIGMA, bump_field, generate_corpus
from .dyadic import (
    PARTITION_TOL,
    BlockSeq,
    DyadicFamily,
    annulus_values,
    build_dyadic_family,
    decompose,
    delta_dot,
    delta_inhom,
    low_pass,
    partition_values,
    reconstruct,
)
from .errors import ConfigError, UnknownSuite
from .halfspace import (
    HalfField,
    extend_reflect,
    far_band_rows,
    indicator_columns,
    lower_half_defect,
    project_zero,
    reflect_parity,
    reflection_coefficients,
    restriction_norm,
)
from .interp import Couple, best_k_curve, holder_check, interp_norm_from_curve, k_curve_upper
from .lattice import (
    Field,
    TWO_PI,
    Lattice,
    column_shells,
    default_oversample,
    dilate,
    exact_grid,
    field_from_modes,
    make_lattice,
    occupied,
    plane_wave,
    xi_norm,
    xi_norm_sq,
    zero_field,
)
from .multipliers import derivative, fractional_laplacian, gradient, laplacian
from .norms import (
    SpaceSpec,
    besov_norm,
    block_norms,
    get_family,
    halfspace_product_integral,
    lp_norm,
    mode_sum,
    pairing,
    potential_sq,
    rectangle_rule,
    seq_norm,
    shell_sum,
    sobolev_norm,
    sobolev_norms,
    square_function,
    strip_derivative_norms,
    triebel_norms,
    weighted_blocks,
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

# Largest complex sample grid, in bytes, that a suite config may imply.
GRID_BUDGET = 1 << 30


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
        if any(math.isnan(p) or p < 1.0 for p in self.p_list):
            raise ConfigError(f"every p must lie in [1, inf], got {self.p_list}")
        if not all(math.isfinite(s) for s in self.s_list):
            raise ConfigError(f"every s must be finite, got {self.s_list}")
        M, size = default_oversample(self.lattice()), 16  # bytes of a complex sample
        for _ in range(self.dim):  # stops early: a huge dim must not build a huge integer
            size *= M
            if size > GRID_BUDGET:
                raise ConfigError(
                    f"dim={self.dim}, bandlimit={self.bandlimit} needs {M}^{self.dim} "
                    f"16-byte samples, over the {GRID_BUDGET >> 30} GiB grid budget")

    def lattice(self) -> Lattice:
        return make_lattice(self.dim, self.bandlimit, self.period)


SUITES: dict[str, Callable[[SuiteConfig], Report]] = {}
FLOORS: dict[str, tuple[int, int]] = {}


def suite(name: str, *verifies: str, floor: tuple[int, int] = (1, 1)):
    """Register body(cfg, rep) as the suite name; each run fills a fresh, timed report.
    floor is the least (dim, bandlimit) at which the suite's premises hold."""

    def register(body):
        @functools.wraps(body)
        def run(cfg: SuiteConfig) -> Report:
            rep = Report(suite=name, params=asdict(cfg), verifies=list(verifies))
            t0 = time.perf_counter()
            body(cfg, rep)
            rep.wall_time = time.perf_counter() - t0
            return rep

        SUITES[name], FLOORS[name] = run, floor
        return run

    return register


def _random_corpus(cfg: SuiteConfig, size: int | None = None, lat: Lattice | None = None):
    return generate_corpus(
        cfg.seed, "random_bandlimited", size or cfg.corpus_size, lat or cfg.lattice()
    )


def distinct_modes(rng: np.random.Generator, n: int, kmax: int, count: int) -> dict:
    """min(count, (2 kmax + 1)^n - 1) distinct nonzero modes k with |k_i| <= kmax, each
    with a complex standard-normal amplitude; a mode drawn again takes the new one."""
    modes = {}
    while len(modes) < min(count, (2 * kmax + 1) ** n - 1):
        k = tuple(int(v) for v in rng.integers(-kmax, kmax + 1, size=n))
        if any(k):
            modes[k] = complex(rng.standard_normal(), rng.standard_normal())
    return modes


def _coarse_lattice(cfg: SuiteConfig) -> Lattice:
    """The cross-lattice check's other side: half the bandlimit, or 2 at bandlimit 1."""
    return replace(cfg, bandlimit=cfg.bandlimit // 2 or 2).lattice()


# Shared bounds: an exact identity holds to ROUNDOFF_TOL relative to its
# scale; an equivalence constant stays inside EQUIVALENCE_WINDOW and within
# STABILITY_BOUND of its value on another lattice.
ROUNDOFF_TOL = 1e-10
STABILITY_BOUND = 2.0
EQUIVALENCE_WINDOW = (0.1, 10.0)


def spread(a: float, b: float) -> float:
    """max(a/b, b/a): how far two measurements of one constant are apart."""
    return max(a / b, b / a)


def in_window(*ratios: float) -> bool:
    """Whether every ratio lies inside EQUIVALENCE_WINDOW."""
    return all(EQUIVALENCE_WINDOW[0] <= r <= EQUIVALENCE_WINDOW[1] for r in ratios)


def partition_defects(fam: DyadicFamily) -> tuple[float, float, float]:
    """Largest deviation of the blocks' sum from 1 off xi = 0, largest block value off its
    annulus, and largest product of two blocks two or more scales apart (bound 0)."""
    lat = fam.lattice
    r = xi_norm(lat)
    dev = float(np.max(np.abs(partition_values(fam)[r > 0.0] - 1.0)))
    support = ortho = 0.0
    for j in fam.j_range:
        outside = (r < 3.0 * 2.0 ** (j - 2)) | (r > 2.0 ** (j + 3) / 3.0)
        support = max(support, float(np.max(np.abs(annulus_values(lat, j)[outside]))))
        for jj in fam.j_range:
            if abs(j - jj) >= 2:
                prod = annulus_values(lat, j) * annulus_values(lat, jj)
                ortho = max(ortho, float(np.max(np.abs(prod))))
    return dev, support, ortho


@suite(
    "lp_partition",
    "dyadic partition of unity on nonzero lattice frequencies",
    "annular support exactness",
    "near-orthogonality of dyadic blocks",
    "uniform L^p boundedness of block operators",
)
def suite_lp_partition(cfg: SuiteConfig, rep: Report) -> None:
    fam = build_dyadic_family(cfg.lattice())
    dev, support, ortho = partition_defects(fam)
    rep.add_case("partition_max_dev", dev, PARTITION_TOL, roundoff=True)
    rep.add_case("support_exactness", support, 0.0)
    rep.add_case("block_orthogonality", ortho, 0.0)

    corpus = _random_corpus(cfg, size=min(cfg.corpus_size, 5))
    exponents = (1.0, 2.0, math.inf)
    worst = dict.fromkeys(exponents, 0.0)
    for u in corpus.fields:
        den = lp_norm(u, exponents)
        for j in fam.j_range:
            for p, num, d in zip(exponents, lp_norm(delta_dot(u, j, fam), exponents), den):
                worst[p] = max(worst[p], num / d)
    for p in exponents:
        key = "inf" if math.isinf(p) else f"{p:g}"
        rep.constants[f"block_op_norm_p{key}"] = worst[p]
        rep.add_case(f"block_bound_p{key}", worst[p], 3.0, digest=corpus.digest())


def reconstruction_error(fields: list[Field], fam: DyadicFamily) -> float:
    """Largest mode deviation of reconstruct(decompose(u)) from u, relative to u's peak."""
    return max(
        float(np.max(np.abs(reconstruct(decompose(u, fam)).coef - u.coef))) / u.peak()
        for u in fields
    )


@suite(
    "reconstruction",
    "block-overlap reconstruction is a left inverse of decomposition",
    "low-pass differences equal annular blocks",
    "inhomogeneous block conventions",
)
def suite_reconstruction(cfg: SuiteConfig, rep: Report) -> None:
    lat = cfg.lattice()
    fam = build_dyadic_family(lat)
    corpus = _random_corpus(cfg, size=max(cfg.corpus_size, 100))
    worst = reconstruction_error(corpus.fields, fam)
    rep.add_case("reconstruction_identity", worst, ROUNDOFF_TOL, digest=corpus.digest(),
                 roundoff=True)

    u = corpus.fields[0]
    dev = 0.0
    for j in fam.j_range:
        a = low_pass(u, j + 1, fam) - low_pass(u, j, fam)
        b = delta_dot(u, j, fam)
        dev = max(dev, float(np.max(np.abs(a.coef - b.coef))) / u.peak())
    rep.add_case("lowpass_telescoping", dev, 1e-13, roundoff=True)

    total = zero_field(lat)
    for k in range(-1, fam.j_max + 1):
        total = total + delta_inhom(u, k, fam)
    rep.add_case("inhomogeneous_resolution", float(np.max(np.abs(total.coef - u.coef))) / u.peak(),
                 1e-12, roundoff=True)


def gradient_shift_error(fields: list[Field], s: float) -> float:
    """Largest relative gap between sum_i ||d_i u||^2 in Hdot^s_2 and ||u||^2 in Hdot^(s+1)_2."""
    worst = 0.0
    for u in fields:
        grad_sq = sum(sobolev_norm(d, SpaceSpec("Hdot", s=s, p=2.0)) ** 2 for d in gradient(u))
        up_sq = sobolev_norm(u, SpaceSpec("Hdot", s=s + 1.0, p=2.0)) ** 2
        worst = max(worst, abs(grad_sq - up_sq) / up_sq)
    return worst


@suite(
    "plancherel",
    "potential norm at p=2 equals the weighted mode sum",
    "gradient shifts regularity by one at p=2",
    "duality pairing bound at p=2",
)
def suite_plancherel(cfg: SuiteConfig, rep: Report) -> None:
    corpus = _random_corpus(cfg)
    M = exact_grid(cfg.lattice(), 2.0)
    for s in cfg.s_list:
        worst = 0.0
        for u in corpus.fields:
            plancherel = sobolev_norm(u, SpaceSpec("Hdot", s=s, p=2.0))
            # sobolev_norm at p=2 is the weighted mode sum; the rectangle rule
            # on the smallest grid where it is exact checks it against the samples
            direct = rectangle_rule([(1.0, occupied(fractional_laplacian(u, s)))], 2.0, None, M)
            worst = max(worst, abs(direct - plancherel) / plancherel)
        rep.add_case(f"plancherel_s{s:g}", worst, 1e-12, roundoff=True)
        rep.add_case(f"gradient_identity_s{s:g}", gradient_shift_error(corpus.fields, s),
                     ROUNDOFF_TOL, roundoff=True)

    u, v = corpus.fields[0], corpus.fields[1 % len(corpus.fields)]
    s = 0.6
    bound = sobolev_norm(u, SpaceSpec("Hdot", s=s)) * sobolev_norm(v, SpaceSpec("Hdot", s=-s))
    rep.add_case("duality_bound", abs(pairing(u, v)) / bound, 1.0 + ROUNDOFF_TOL)


TRIEBEL_S, TRIEBEL_P = (-0.5, 0.0, 0.7), (4.0 / 3.0, 2.0, 4.0)


def triebel_table(fields: list[Field]) -> list[dict[float, tuple[list[float], dict]]]:
    """Per field and p of TRIEBEL_P, the square-function norms at TRIEBEL_S and the
    Bdot block norms: one pass over each field's blocks (square_function)."""
    return [dict(zip(TRIEBEL_P, square_function(u, TRIEBEL_S, TRIEBEL_P))) for u in fields]


def fubini_exchange_error(fields: list[Field]) -> float:
    """Largest relative gap between the p = 2 square-function norms at TRIEBEL_S sampled
    on their exact grid and triebel_norms, their exchange-of-sums form."""
    return max(abs(a / b - 1.0) for u in fields for a, b in zip(
        rectangle_rule(weighted_blocks(u, TRIEBEL_S), 2.0, None, exact_grid(u.lattice, 2.0))[0],
        triebel_norms(u, TRIEBEL_S, 2.0)))


def triebel_sobolev_ratios(fields: list[Field], table: list | None = None) -> dict[str, float]:
    """Largest and smallest ||u||_{Fdot^s_{p,2}} / ||u||_{Hdot^s_p} over the fields, per p, s,
    from the fields' triebel_table when given; each potential is sampled once for every p."""
    out = {}
    table = table or triebel_table(fields)
    potential = {s: [sobolev_norms(u, SpaceSpec("Hdot", s=s), TRIEBEL_P) for u in fields]
                 for s in TRIEBEL_S}
    for k, p in enumerate(TRIEBEL_P):
        for i, s in enumerate(TRIEBEL_S):
            ratios = [row[p][0][i] / den[k] for row, den in zip(table, potential[s])]
            out[f"triebel_over_sobolev_p{p:g}_s{s:g}_max"] = max(ratios)
            out[f"triebel_over_sobolev_p{p:g}_s{s:g}_min"] = min(ratios)
    return out


def lattice_spread(main: dict[str, float], coarse: dict[str, float]) -> float:
    """Largest spread of each constant between its two lattices."""
    return max(spread(val, coarse[key]) for key, val in main.items())


@suite(
    "norm_equiv",
    "square-function norm order exchange at p=2",
    "square-function vs potential norm equivalence constants",
    "gradient norm equivalence away from p=2",
    "block-norm gradient equivalence",
    "inhomogeneous norm vs Lebesgue plus homogeneous",
)
def suite_norm_equiv(cfg: SuiteConfig, rep: Report) -> None:
    size = min(cfg.corpus_size, 5)
    corpus = _random_corpus(cfg, size=size)
    table = triebel_table(corpus.fields)
    main = triebel_sobolev_ratios(corpus.fields, table)
    coarse = triebel_sobolev_ratios(_random_corpus(cfg, size, _coarse_lattice(cfg)).fields)
    rep.constants.update(main)
    rep.add_case("fubini_exchange_p2", fubini_exchange_error(corpus.fields), ROUNDOFF_TOL,
                 roundoff=True)

    eq_ok = in_window(*main.values())
    stability = lattice_spread(main, coarse)
    rep.add_case("equivalence_window", 1.0 if eq_ok else 0.0, 1.0, eq_ok)
    rep.add_case("cross_lattice_stability", stability, STABILITY_BOUND)
    rep.constants["triebel_sobolev_stability"] = stability

    # gradient equivalence for p != 2 and the block-norm analogue, then the
    # inhomogeneous norm, from the Bdot block norms of the square function's
    # pass; every other field is sampled once for all of grad_p
    grad_p = [p for p in cfg.p_list if not math.isinf(p)]
    fam = get_family(cfg.lattice())
    worst_c, worst = 0.0, 0.0
    for u, row in zip(corpus.fields, table):
        blocks = {p: b for p, (_, b) in row.items()}
        missing = [p for p in grad_p if p not in blocks]
        blocks.update(zip(missing, block_norms(u, missing)))
        grads = gradient(u)
        grad_blocks = [block_norms(d, grad_p) for d in grads]
        for s in (-0.5, 0.0):
            nums = [sobolev_norms(d, SpaceSpec("Hdot", s=s), grad_p) for d in grads]
            dens = sobolev_norms(u, SpaceSpec("Hdot", s=s + 1.0), grad_p)
            for k, p in enumerate(grad_p):
                num, den = sum(n[k] for n in nums), dens[k]
                worst_c = max(worst_c, num / den, den / num)
                bnum = sum(seq_norm(b[k], s, 2.0) for b in grad_blocks)
                bden = seq_norm(blocks[p], s + 1.0, 2.0)
                worst_c = max(worst_c, bnum / bden, bden / bnum)
        low, lebesgue = (lp_norm(v, (2.0, 4.0)) for v in (delta_inhom(u, -1, fam), u))
        for k, p in enumerate((2.0, 4.0)):
            # B's blocks k >= 0 are Bdot's blocks j >= 0; only the low-pass k = -1 is new
            inhom = {-1: low[k], **{j: b for j, b in blocks[p].items() if j >= 0}}
            for s in (0.7, 1.2):
                num = seq_norm(inhom, s, 2.0)
                den = lebesgue[k] + seq_norm(blocks[p], s, 2.0)
                worst = max(worst, num / den, den / num)
    rep.constants["gradient_equivalence"] = worst_c
    rep.add_case("gradient_equivalence", worst_c, 10.0)
    rep.constants["inhom_vs_intersection"] = worst
    rep.add_case("inhom_vs_intersection", worst, 4.0)


HOLDER_P2_BOUND = 1.0 + ROUNDOFF_TOL
HOLDER_MIXED_BOUND = 10.0


def holder_constants(fields: list[Field]) -> tuple[float, float]:
    """Largest holder_check ratio at p = 2 over the fields, and largest either way round
    from p = 4/3 to p = 4 over the first ten."""
    p2 = max(holder_check(u, -0.5, 0.7, 2.0, 2.0, (0.4,))[0] for u in fields)
    mixed = 0.0
    for u in fields[:10]:
        for r in holder_check(u, -0.5, 0.7, 4.0 / 3.0, 4.0, (0.25, 0.5, 0.75)):
            mixed = max(mixed, r, 1.0 / r)
    return p2, mixed


@suite("holder", "interpolation inequality of potential norms in (s, 1/p)")
def suite_holder(cfg: SuiteConfig, rep: Report) -> None:
    corpus = _random_corpus(cfg, size=max(cfg.corpus_size, 100))
    p2, mixed = holder_constants(corpus.fields)
    rep.add_case("p2_log_convexity", p2, HOLDER_P2_BOUND, digest=corpus.digest())
    rep.constants["holder_p2"] = p2
    rep.constants["holder_mixed_p"] = mixed
    rep.add_case("mixed_p_bounded", mixed, HOLDER_MIXED_BOUND)


EMBEDDING_BOUND = 100.0


def embedding_constant(fields: list[Field]) -> float:
    """Largest ||u||_{L^4} / ||u||_{Hdot^(1/2)} over the fields (dimension 2)."""
    return max(lp_norm(u, 4.0) / sobolev_norm(u, SpaceSpec("Hdot", s=0.5, p=2.0)) for u in fields)


@suite("embedding", "L^4 controlled by the half-derivative potential norm in dimension 2")
def suite_embedding(cfg: SuiteConfig, rep: Report) -> None:
    if cfg.dim != 2:
        rep.add_case("skipped_dim", float(cfg.dim), 2.0, True)
        return
    c_small = embedding_constant(_random_corpus(cfg, lat=_coarse_lattice(cfg)).fields)
    c_main = embedding_constant(_random_corpus(cfg).fields)
    rep.constants["embedding_constant_main"] = c_main
    rep.constants["embedding_constant_small"] = c_small
    rep.add_case("constant_bounded", c_main, EMBEDDING_BOUND, c_main < EMBEDDING_BOUND)
    rep.add_case("cross_lattice_stability", spread(c_main, c_small), STABILITY_BOUND)


INTERP_GRID = {
    "p": (2.0, 4.0),
    "s_pairs": ((0.0, 1.0), (-0.5, 0.7)),
    "theta": (0.25, 0.5, 0.75),
    "q": (1.0, 2.0, math.inf),
}
SANDWICH_BOUND = 3.0
SANDWICH_FLOOR = 1.0 - ROUNDOFF_TOL


def interp_besov_ratios(fields: list[Field]) -> tuple[float, float, float, float]:
    """Smallest and largest interpolation norm over block norm on INTERP_GRID; then, at
    p = 2, largest split curve over sqrt(2) exact curve, and smallest split over exact."""
    ratio_hi, ratio_lo = 0.0, math.inf
    slack, floor = 0.0, math.inf
    for u in fields:
        for p in INTERP_GRID["p"]:
            blocks = block_norms(u, p)
            for s0, s1 in INTERP_GRID["s_pairs"]:
                c = Couple(SpaceSpec("Hdot", s=s0, p=p), SpaceSpec("Hdot", s=s1, p=p))
                curve = best_k_curve(u, c)
                if math.isclose(p, 2.0):
                    upper, exact = k_curve_upper(u, c).values, curve.values
                    with np.errstate(invalid="ignore", divide="ignore"):
                        slacks = np.where(exact > 0, upper / (math.sqrt(2) * exact), 1.0)
                        floors = np.where(exact > 0, upper / exact, 1.0)
                    slack = max(slack, float(np.max(slacks)))
                    floor = min(floor, float(np.min(floors)))
                for theta in INTERP_GRID["theta"]:
                    s = (1 - theta) * s0 + theta * s1
                    for q in INTERP_GRID["q"]:
                        num = interp_norm_from_curve(curve, theta, q)
                        ratio = num / seq_norm(blocks, s, q)
                        ratio_hi, ratio_lo = max(ratio_hi, ratio), min(ratio_lo, ratio)
    return ratio_lo, ratio_hi, slack, floor


@suite(
    "interp_real",
    "real-interpolation norm comparable to the block norm",
    "quadratic-mean vs dyadic-split functional sandwich",
    "reconstruction bounded by the weighted block-norm sequence",
)
def suite_interp_real(cfg: SuiteConfig, rep: Report) -> None:
    corpus = _random_corpus(cfg, size=min(cfg.corpus_size, 4))
    ratio_lo, ratio_hi, slack, _ = interp_besov_ratios(corpus.fields)
    rep.constants["interp_over_besov_max"] = ratio_hi
    rep.constants["interp_over_besov_min"] = ratio_lo
    rep.constants["sandwich_slack"] = slack
    rep.add_case("interp_vs_besov_window", ratio_hi, EQUIVALENCE_WINDOW[1],
                 in_window(ratio_lo, ratio_hi), corpus.digest())
    rep.add_case("sandwich", slack, SANDWICH_BOUND, 0.0 < slack <= SANDWICH_BOUND)

    # reconstruction map bounded from weighted block sequences into block norms
    fam = get_family(cfg.lattice())
    worst = 0.0
    rng = np.random.default_rng(cfg.seed + 999)
    for u in corpus.fields:
        blocks = {}
        for j in fam.j_range:
            w = delta_dot(u, j, fam)
            blocks[j] = w * complex(rng.standard_normal(), rng.standard_normal())
        v = reconstruct(BlockSeq(fam, blocks))
        for s, p, q in [(0.3, 2.0, 2.0), (0.0, 4.0, 1.0)]:
            num = besov_norm(v, SpaceSpec("Bdot", s=s, p=p, q=q))
            den = seq_norm({j: lp_norm(w, p) for j, w in blocks.items()}, s, q)
            if den > 0:
                worst = max(worst, num / den)
    rep.constants["reconstruction_bound"] = worst
    rep.add_case("reconstruction_bounded", worst, 10.0)


INDICATOR_BOUNDED = (-0.4, 0.0, 0.4)
INDICATOR_BEYOND = 0.9
INDICATOR_GROWTH_BOUND = 1.5


def indicator_ratios(fields: list[Field], target: Lattice) -> dict[float, float]:
    """Per s, largest Hdot^s norm of the sharp cut of u over that of u, u embedded in target.

    The cut's norms are read from its column block, on the shells of the
    bandlimit 4K that indicator_multiply's dense field would have."""
    worst = dict.fromkeys(INDICATOR_BOUNDED + (INDICATOR_BEYOND,), 0.0)
    # the Hdot^s_2 norms at every s, of the field less its mean (the weight is 0 at xi = 0)
    weights = [potential_sq(s) for s in worst]

    def rows(rsq):
        return [w(rsq) for w in weights]

    cut_shells = column_shells(target, 4 * target.K)
    for u in fields:
        emb = zero_field(target)
        emb.coef[(slice(target.K - u.lattice.K, target.K + u.lattice.K + 1),) * target.n] = u.coef
        # the cut is not bound to a name, so it is freed before the next is built
        cut_norms = shell_sum(target, indicator_columns(emb)[0], cut_shells, rows)
        for s, ratio in zip(worst, cut_norms / mode_sum(emb, rows)):
            worst[s] = max(worst[s], ratio)
    return worst


@suite(
    "strichartz_indicator",
    "sharp half-space cut bounded on potential norms below the threshold",
    "growth of the cut beyond the threshold regularity",
)
def suite_strichartz_indicator(cfg: SuiteConfig, rep: Report) -> None:
    corpus = _random_corpus(cfg, size=min(cfg.corpus_size, 5))
    big_lat = make_lattice(cfg.dim, 2 * cfg.bandlimit, cfg.period)
    main = indicator_ratios(corpus.fields, cfg.lattice())
    big = indicator_ratios(corpus.fields, big_lat)
    for s in main:
        rep.constants[f"indicator_ratio_s{s:g}_K{cfg.bandlimit}"] = main[s]
        rep.constants[f"indicator_ratio_s{s:g}_K{2 * cfg.bandlimit}"] = big[s]
    for s in INDICATOR_BOUNDED:
        rep.add_case(f"bounded_s{s:g}", big[s] / main[s], INDICATOR_GROWTH_BOUND,
                     digest=corpus.digest())
    beyond = INDICATOR_BEYOND
    rep.add_case("grows_beyond_threshold", big[beyond] / main[beyond], 1.0,
                 big[beyond] > main[beyond])


def _strip_wave(lat: Lattice, r: int, odd: bool) -> Field:
    """exp(i x_1) sin(r x_n) if odd, else exp(i x_1) cos(r x_n), in any dimension."""
    up = plane_wave(lat, (1,) + (0,) * (lat.n - 2) + (r,)).coef
    down = plane_wave(lat, (1,) + (0,) * (lat.n - 2) + (-r,)).coef
    return Field(lat, up / 2j - down / 2j if odd else (up + down) / 2.0)


def _one_sided_bump(lat: Lattice, lower: bool = False) -> Field:
    center = lat.L / 4.0
    return bump_field(lat, -center if lower else center, DEFAULT_BUMP_SIGMA)


REFLECTION_TOL = 1e-9


def reflection_coefficient_errors() -> tuple[float, float]:
    """Largest moment residual of orders 0-6, and deviation of orders 1, 2 from closed form."""
    residual = max(reflection_coefficients(m).moment_residual() for m in range(7))
    a1, a2 = reflection_coefficients(1).alpha, reflection_coefficients(2).alpha
    dev = max(
        float(np.max(np.abs(a1 - np.array([-3.0, 4.0])))),
        float(np.max(np.abs(a2 - np.array([6.0, -32.0, 27.0])))),
    )
    return residual, dev


def restriction_excess(u: HalfField) -> float:
    """Largest upper-half sup of |E_m u - u| less 10 residuals, windowed m = 0, 1, 2."""
    M = default_oversample(u.field.lattice)
    upper = np.arange(M // 2 + 1)
    worst = 0.0
    for m in (0, 1, 2):
        ext, res = extend_reflect(u, m)
        worst = max(worst, rectangle_rule([(1.0, occupied(ext - u.field))], math.inf, upper, M)
                    - 10.0 * res)
    return worst


def extension_ratio(u: HalfField) -> float:
    """Largest ||E_m u||_{Hdot^0.4} over u's restriction norm, windowed m = 0, 1, 2."""
    hdot = SpaceSpec("Hdot", s=0.4, p=2.0)
    den, _ = restriction_norm(u, replace(hdot, domain="halfspace"))
    return max(sobolev_norm(extend_reflect(u, m)[0], hdot) / den for m in (0, 1, 2))


@suite(
    "reflection",
    "moment system of the higher-order reflection coefficients",
    "extension restricts to the data",
    "parity reflections exact on compatible series",
    "tangential derivative commutes with the extension",
    "extension operator norms stable across lattices",
    floor=(2, 2),
)
def suite_reflection(cfg: SuiteConfig, rep: Report) -> None:
    lat = cfg.lattice()
    residual, dev = reflection_coefficient_errors()
    rep.add_case("moment_residuals", residual, REFLECTION_TOL, roundoff=True)
    rep.add_case("known_orders", dev, REFLECTION_TOL, roundoff=True)
    bump = HalfField(_one_sided_bump(lat))
    rep.add_case("restriction_identity", restriction_excess(bump), ROUNDOFF_TOL)

    sine = HalfField(_strip_wave(lat, 2, odd=True))
    _, res_odd = reflect_parity(sine, "odd")
    cosine = HalfField(_strip_wave(lat, 1, odd=False))
    _, res_even = reflect_parity(cosine, "even")
    rep.add_case("parity_exact_on_series", max(res_odd, res_even), 1e-12, roundoff=True)

    _, res_mismatch_main = reflect_parity(cosine, "odd")
    big = make_lattice(cfg.dim, 2 * cfg.bandlimit, cfg.period)
    _, res_mismatch_big = reflect_parity(HalfField(_strip_wave(big, 1, odd=False)), "odd")
    rep.constants["odd_of_cosine_residual_main"] = res_mismatch_main
    rep.constants["odd_of_cosine_residual_big"] = res_mismatch_big
    rep.add_case("jump_residual_decays", res_mismatch_big / res_mismatch_main, 1.0,
                 res_mismatch_big < res_mismatch_main)

    du = HalfField(derivative(bump.field, (1,) + (0,) * (lat.n - 1)))
    lhs, r1 = extend_reflect(bump, 1)
    lhs = derivative(lhs, (1,) + (0,) * (lat.n - 1))
    rhs, r2 = extend_reflect(du, 1)
    scale = max(rhs.peak(), 1e-30)
    comm = float(np.max(np.abs(lhs.coef - rhs.coef)))
    rep.add_case("tangential_commutation", comm, scale * (1e-9 + 10 * (r1 + r2)), roundoff=True)

    c_main = extension_ratio(bump)
    c_big = extension_ratio(HalfField(_one_sided_bump(big)))
    rep.constants["extension_norm_ratio_main"] = c_main
    rep.constants["extension_norm_ratio_big"] = c_big
    rep.add_case("extension_ratio_stability", spread(c_main, c_big), STABILITY_BOUND)

    # gradient shifts the half-space potential norm by one order (estimator level)
    hs = SpaceSpec("Hdot", s=1.2, p=2.0, domain="halfspace")
    hs_down = SpaceSpec("Hdot", s=0.2, p=2.0, domain="halfspace")
    den, _ = restriction_norm(bump, hs)
    num = sum(restriction_norm(HalfField(d), hs_down)[0] for d in gradient(bump.field))
    ratio = max(num / den, den / num)
    rep.constants["halfspace_gradient_equivalence"] = ratio
    rep.add_case("halfspace_gradient_equivalence", ratio, 20.0)


PROJECTION_TOL = 1e-8


def idempotence_defect(u: Field, orders: tuple[int, ...]) -> float:
    """Largest mode deviation of P_m P_m u from P_m u over the orders, relative to sup |u|."""
    scale = lp_norm(u, math.inf)
    worst = 0.0
    for m in orders:
        p1 = project_zero(u, m)
        p2 = project_zero(p1, m)
        worst = max(worst, float(np.max(np.abs(p2.coef - p1.coef))) / scale)
    return worst


def lower_content(u: Field) -> float:
    """Sup of project_zero(u, 0) over the open lower half, relative to sup |u|."""
    return lower_half_defect(project_zero(u, 0)) / lp_norm(u, math.inf)


@suite(
    "projection",
    "zero-boundary projection fixes upper-supported data",
    "output vanishes on the open lower half",
    "idempotence of the projection",
)
def suite_projection(cfg: SuiteConfig, rep: Report) -> None:
    lat = cfg.lattice()
    up, low = _one_sided_bump(lat), _one_sided_bump(lat, lower=True)
    scale = lp_norm(up, math.inf)
    worst = 0.0
    for m in (0, 1, 2):
        p = project_zero(up, m)
        worst = max(worst, float(np.max(np.abs(p.coef - up.coef))) / scale)
    rep.add_case("upper_fixed_point", worst, PROJECTION_TOL)
    rep.add_case("lower_content_removed", lower_content(low), PROJECTION_TOL)
    idem = max(idempotence_defect(up, (0, 1, 2)), idempotence_defect(low, (0,)))
    rep.add_case("idempotence_bumps", idem, PROJECTION_TOL)

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
    rep.add_case("idempotence_random_bound", worst_excess, 1.0, digest=corpus.digest())


TRACE_BOUND = 20.0


def trace_constant(fields: list[Field]) -> float:
    """Largest Bdot^(s-1/2) norm of the trace over the Hdot^s restriction norm, per
    field less its horizontal mean; a vanishing trace is skipped."""
    worst = 0.0
    for u in fields:
        u = u.copy()
        u.coef[(u.lattice.K,) * (u.lattice.n - 1)] = 0.0
        gb = trace(u)
        if gb.peak() <= 1e-14:
            continue
        blocks = block_norms(gb, 2.0)
        for s in (0.7, 1.2):
            num = seq_norm(blocks, s - 0.5, 2.0)
            den, _ = restriction_norm(
                HalfField(u), SpaceSpec("Hdot", s=s, p=2.0, domain="halfspace")
            )
            worst = max(worst, num / den)
    return worst


@suite(
    "trace",
    "boundary restriction collapses vertical modes",
    "boundary block norm controlled by the half-space potential norm",
    floor=(2, 3),
)
def suite_trace(cfg: SuiteConfig, rep: Report) -> None:
    lat = cfg.lattice()
    g = trace(plane_wave(lat, (2,) * (lat.n - 1) + (3,)))
    want = plane_wave(lat.boundary(), (2,) * (lat.n - 1))
    rep.add_case("trace_of_wave", float(np.max(np.abs(g.coef - want.coef))), 0.0)

    gen = generate_corpus(cfg.seed, "cosine_strip", min(cfg.corpus_size, 4), lat)
    worst = trace_constant(gen.fields)
    rep.constants["trace_estimate_constant"] = worst
    rep.add_case("trace_estimate", worst, TRACE_BOUND, digest=gen.digest())


def extension_trace_error(g: Field) -> float:
    """Largest mode deviation of the harmonic extension of g at x_n = 0 from g (bound 0)."""
    return float(np.max(np.abs(poisson_extend(g).slice_field(0.0).coef - g.coef)))


GAMMA_TOL = 1e-6


def gamma_oracle_error(lat: Lattice) -> float:
    """Relative error of the p = 2 semigroup norm of a |xi| = 5 wave against its gamma integral."""
    u = plane_wave(lat, (3,) + (0,) * (lat.n - 2) + (4,))
    s, alpha, p, q = 0.5, 0.0, 2.0, 2.0
    want = 5.0 ** (alpha - s) * (math.gamma(s * q) / q ** (s * q)) ** (1.0 / q)
    want *= (lat.L**lat.n) ** (1.0 / p)
    return abs(poisson_besov_norm(u, s, alpha, p, q) / want - 1.0)


def semigroup_ratios(fields: list[Field]) -> tuple[float, float]:
    """Smallest and largest semigroup norm over the Bdot^(-s)_{p,q} norm, over the fields."""
    hi, lo = 0.0, math.inf
    for u in fields:
        for s, p, q in [(0.5, 2.0, 2.0), (0.3, 2.0, 1.0), (0.8, 4.0, 2.0)]:
            num = poisson_besov_norm(u, s, 0.0, p, q)
            ratio = num / besov_norm(u, SpaceSpec("Bdot", s=-s, p=p, q=q))
            hi, lo = max(hi, ratio), min(lo, ratio)
    return lo, hi


@suite(
    "poisson",
    "trace of the harmonic extension recovers the data",
    "semigroup characterization matches the scalar gamma integral",
    "semigroup norm comparable to the block norm",
    "extension bounded from boundary block norms into strip potential norms",
    floor=(2, 4),
)
def suite_poisson(cfg: SuiteConfig, rep: Report) -> None:
    lat = cfg.lattice()
    blat = lat.boundary()
    rep.add_case("trace_of_extension", extension_trace_error(plane_wave(blat, (3,) * blat.n)), 0.0)
    rep.add_case("gamma_integral_oracle", gamma_oracle_error(lat), GAMMA_TOL)

    corpus = _random_corpus(cfg, size=min(cfg.corpus_size, 4))
    lo, hi = semigroup_ratios(corpus.fields)
    rep.constants["semigroup_over_besov_max"] = hi
    rep.constants["semigroup_over_besov_min"] = lo
    rep.add_case("semigroup_vs_besov", hi, EQUIVALENCE_WINDOW[1], in_window(lo, hi),
                 corpus.digest())

    g1 = plane_wave(blat, (1,) + (0,) * (blat.n - 1))
    # the sup of exp(-x_n) over the far band sits at its lowest height
    M = default_oversample(lat)
    want_leak = math.exp(-far_band_rows(M)[0] * (lat.L / M))
    rep.add_case("materialize_leakage_analytic",
                 abs(poisson_extend(g1).leakage() - want_leak), 1e-6, roundoff=True)

    worst = 0.0
    rng = np.random.default_rng(cfg.seed + 5)
    for _ in range(3):
        modes = distinct_modes(rng, blat.n, blat.K, 10)
        gb = field_from_modes(blat, {k: c * (1 + math.hypot(*k)) ** -2.0 for k, c in modes.items()})
        hf, _ = materialize_poisson(poisson_extend(gb), lat)
        for s, p in [(0.5, 2.0), (1.0, 2.0), (1.5, 2.0), (1.0, 4.0)]:
            num = sobolev_norm(hf.field, SpaceSpec("Hdot", s=s, p=p, domain="halfspace"))
            den = besov_norm(gb, SpaceSpec("Bdot", s=s - 1.0 / p, p=p, q=p))
            worst = max(worst, num / den)
    rep.constants["extension_boundedness"] = worst
    rep.add_case("extension_bounded", worst, 20.0)


RAYS = (0.0, math.pi / 4.0, math.pi / 2.0, 0.74 * math.pi)
MODULI = (0.1, 1.0, 10.0, 100.0)
UNIFORMITY_BOUND = 1.5


def image_identity_error(sine: Field, cosine: Field) -> float:
    """Largest relative gap of the image-method resolvents from mode division, over lam."""
    worst = 0.0
    for theta in RAYS:
        for mod in MODULI:
            lam = mod * cmath.exp(1j * theta)
            for f, bc in [(sine, DIRICHLET), (cosine, NEUMANN)]:
                direct = f.coef / (lam + xi_norm_sq(f.lattice))
                u, _ = resolvent_halfspace(HalfField(f), lam, bc)
                scale = max(np.abs(direct).max(), 1e-30)
                worst = max(worst, float(np.max(np.abs(u.field.coef - direct))) / scale)
    return worst


def sector_constants(sine: HalfField, cosine: HalfField) -> dict[float, list[float]]:
    """Per ray and modulus, the largest sum of the scaled resolvent ratios over both fields."""
    pairs = [(sine, DIRICHLET), (cosine, NEUMANN)]
    table = {}
    for theta in RAYS:
        lams = [mod * cmath.exp(1j * theta) for mod in MODULI]
        table[theta] = [max(sum(resolvent_estimate_check(f, lam, bc)) for f, bc in pairs)
                        for lam in lams]
    return table


def ray_spread(per_mod: list[float]) -> float:
    """Spread of a ray's constants over the moduli at or above the lowest eigenvalue 1;
    below it the surrogate spectrum has a gap, and the constant deflates."""
    vals = [c for c, mod in zip(per_mod, MODULI) if mod >= 1.0]
    return max(vals) / min(vals)


def grows_toward_negative_axis(table: dict[float, list[float]]) -> bool:
    """Whether each ray's largest constant is at most the next ray's (to 1e-9)."""
    maxima = [max(table[theta]) for theta in RAYS]
    return all(maxima[i] <= maxima[i + 1] * (1 + 1e-9) for i in range(len(maxima) - 1))


@suite(
    "resolvent",
    "image method agrees with direct mode division on parity corpora",
    "scaled resolvent estimates per sector ray",
    "sector constants grow toward the negative axis",
)
def suite_resolvent(cfg: SuiteConfig, rep: Report) -> None:
    lat = cfg.lattice()
    sines = generate_corpus(cfg.seed, "sine_strip", 3, lat)
    coss = generate_corpus(cfg.seed, "cosine_strip", 3, lat)
    worst = image_identity_error(sines.fields[0], coss.fields[0])
    rep.add_case("image_identity", worst, ROUNDOFF_TOL, digest=sines.digest(), roundoff=True)

    table = sector_constants(HalfField(sines.fields[1]), HalfField(coss.fields[1]))
    for theta, per_mod in table.items():
        rep.constants[f"sector_constant_ray{theta:.3f}"] = max(per_mod)
        rep.constants[f"sector_constant_ray{theta:.3f}_full_spread"] = max(per_mod) / min(per_mod)
    for theta in RAYS[:3]:
        rep.add_case(f"uniformity_ray{theta:.3f}", ray_spread(table[theta]), UNIFORMITY_BOUND)
    steep = table[RAYS[3]]
    rep.constants["sector_constant_steep_spread"] = max(steep) / min(steep)
    rep.add_case("sector_growth_monotone", max(table[RAYS[-1]]) / max(table[RAYS[0]]), math.inf,
                 grows_toward_negative_axis(table))


BVP_TOL = 1e-8


def profile_error(lat: Lattice, rng: np.random.Generator) -> float:
    """Largest gap of the Dirichlet solution for data exp(i x_1) from its profile, 20 points."""
    blat = lat.boundary()
    sol = bvp_dirichlet(None, plane_wave(blat, (1,) + (0,) * (blat.n - 1)))
    worst = 0.0
    for _ in range(20):
        x = np.append(rng.uniform(0, lat.L, lat.n - 1), rng.uniform(0.05, lat.L / 2 - 0.05))
        want = cmath.exp(-x[-1]) * cmath.exp(1j * x[0])
        worst = max(worst, abs(sol.evaluate(x) - want))
    return worst


def bvp_defects(sine: Field, cosine: Field, bump: Field) -> tuple[float, float]:
    """Largest relative interior residual, less 10 reflection residuals, and largest
    boundary mismatch: Dirichlet on sine and bump, Neumann on cosine."""
    blat = sine.lattice.boundary()
    gb = 0.2 * plane_wave(blat, (2,) + (0,) * (blat.n - 1))
    worst_res, worst_bc = 0.0, 0.0
    for f, kind in [(sine, DIRICHLET), (cosine, NEUMANN), (bump, DIRICHLET)]:
        sol = (bvp_dirichlet if kind == DIRICHLET else bvp_neumann)(HalfField(f), gb)
        scale = max(lp_norm(f, 2.0, "halfspace"), 1e-30)
        residual = sol.interior_residual() - 10.0 * sol.reflection_residual
        worst_res = max(worst_res, residual / scale)
        worst_bc = max(worst_bc, sol.boundary_mismatch())
    return worst_res, worst_bc


@suite(
    "bvp",
    "inhomogeneous Dirichlet and Neumann problems solved by the split",
    "pure boundary data reproduces the decaying harmonic profile",
    "energy form identities",
    floor=(2, 2),
)
def suite_bvp(cfg: SuiteConfig, rep: Report) -> None:
    lat = cfg.lattice()
    blat = lat.boundary()
    rng = np.random.default_rng(cfg.seed + 7)
    rep.add_case("poisson_profile", profile_error(lat, rng), ROUNDOFF_TOL, roundoff=True)

    sines = generate_corpus(cfg.seed, "sine_strip", 2, lat)
    coss = generate_corpus(cfg.seed, "cosine_strip", 2, lat)
    worst_res, worst_bc = bvp_defects(sines.fields[0], coss.fields[0], _one_sided_bump(lat))
    rep.add_case("interior_residual", worst_res, BVP_TOL)
    rep.add_case("boundary_mismatch", worst_bc, BVP_TOL, roundoff=True)

    u0 = bvp_dirichlet(HalfField(zero_field(lat)), None)
    zero_ok = u0.v.peak() == 0.0 and u0.w.boundary.peak() == 0.0
    rep.add_case("zero_data_zero_solution", 0.0, 0.0, zero_ok)

    sine0, sine1 = HalfField(sines.fields[0]), HalfField(sines.fields[1])
    a = energy_form(sine0, sine0)
    ok = a.real >= 0 and abs(a.imag) <= 1e-12 * max(a.real, 1.0)
    rep.add_case("energy_accretive", a.real, math.inf, ok)
    lhs = energy_form(sine0, sine1)
    rhs = halfspace_product_integral(-1.0 * laplacian(sine0.field), sine1.field)
    rep.add_case("integration_by_parts", abs(lhs - rhs), 1e-9 * max(abs(rhs), 1.0), roundoff=True)

    # second-order estimate constant for the Dirichlet problem at s = 0, p = 2
    gb = 0.3 * plane_wave(blat, (1,) + (0,) * (blat.n - 1))
    num = strip_derivative_norms(bvp_dirichlet(sine1, gb).materialize()[0].field, 2)[2]
    den = lp_norm(sine1.field, 2.0, "halfspace") + besov_norm(
        gb, SpaceSpec("Bdot", s=2.0 - 0.5, p=2.0, q=2.0)
    )
    rep.constants["dirichlet_second_order_constant"] = num / den
    rep.add_case("second_order_estimate", num / den, 50.0)


def dilation_error(u: Field, s_values: tuple[float, ...]) -> float:
    """Largest relative gap between ||u(2 .)||_{Hdot^s_2} and 2^(s - n/2) ||u||_{Hdot^s_2}."""
    worst = 0.0
    for s in s_values:
        a = sobolev_norm(dilate(u, 1), SpaceSpec("Hdot", s=s, p=2.0))
        b = 2.0 ** (s - u.lattice.n / 2.0) * sobolev_norm(u, SpaceSpec("Hdot", s=s, p=2.0))
        worst = max(worst, abs(a / b - 1.0))
    return worst


@suite("scaling", "dyadic dilation scales potential norms with the whole-space exponent",
       floor=(1, 4))
def suite_scaling(cfg: SuiteConfig, rep: Report) -> None:
    lat = cfg.lattice()
    rng = np.random.default_rng(cfg.seed)
    kmax = max(lat.K // 4, 1)  # leaves room for two dyadic dilations
    u = field_from_modes(lat, distinct_modes(rng, lat.n, kmax, 12))
    rep.add_case("dilation_scaling", dilation_error(u, cfg.s_list), ROUNDOFF_TOL, roundoff=True)
    dev = float(np.max(np.abs(dilate(dilate(u, 1), 1).coef - dilate(u, 2).coef)))
    rep.add_case("dilation_composition", dev, 1e-14, roundoff=True)


def require_floors(names, cfg: SuiteConfig) -> None:
    """Refuse an unknown suite, or one whose floor (dim, bandlimit) cfg is below."""
    for name in names:
        if name not in SUITES:
            raise UnknownSuite(f"unknown suite {name!r}; known: {sorted(SUITES)}")
        if cfg.dim < FLOORS[name][0] or cfg.bandlimit < FLOORS[name][1]:
            raise ConfigError(f"suite {name} needs dim >= {FLOORS[name][0]} and bandlimit >= "
                              f"{FLOORS[name][1]}, got dim={cfg.dim}, bandlimit={cfg.bandlimit}")


def run_suite(name: str, cfg: SuiteConfig) -> Report:
    require_floors([name], cfg)
    return SUITES[name](cfg)


def run_all(cfg: SuiteConfig) -> list[Report]:
    require_floors(SUITES, cfg)
    return [run_suite(name, cfg) for name in SUITES]
