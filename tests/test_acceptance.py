"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line with its measured quantities at the
stated tolerance.  Desk scale throughout: n = 2, K = 32, L = 2*pi, M = 256,
with cross-lattice checks against K = 16 and K = 64 where required.
"""

import cmath
import json
import math
import os

import numpy as np

from fsx.corpus import bump_field, generate_corpus
from fsx.dyadic import (
    annulus_values,
    build_dyadic_family,
    decompose,
    partition_values,
    reconstruct,
)
from fsx.halfspace import (
    extend_reflect,
    half_peak,
    indicator_multiply,
    lower_half_defect,
    make_half_field,
    project_zero,
    reflection_coefficients,
    restriction_norm,
)
from fsx.interp import (
    Couple,
    default_tgrid,
    holder_check,
    interp_norm_from_curve,
    k_curve_exact_hilbert,
    k_curve_upper,
)
from fsx.lattice import (
    Field,
    default_oversample,
    dilate,
    make_lattice,
    plane_wave,
    sample_grid,
    xi_norm,
    xi_norm_sq,
    zero_field,
)
from fsx.multipliers import gradient
from fsx.norms import (
    SpaceSpec,
    besov_norm,
    lp_norm,
    sobolev_norm,
    triebel_fubini_l2,
    triebel_norm,
)
from fsx.poisson import poisson_besov_norm, poisson_extend, trace
from fsx.report import report_digest
from fsx.solvers import (
    DIRICHLET,
    NEUMANN,
    bvp_dirichlet,
    bvp_neumann,
    resolvent_estimate_check,
    resolvent_halfspace,
)
from fsx.suites import SuiteConfig, run_all

SEED = 42
LAT = make_lattice(2, 32)
FAM = build_dyadic_family(LAT)
DEFAULT_SIGMA = 0.19


def _announce(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {label} ({detail})")
    assert ok, f"criterion {num}: {label}: {detail}"


def _random_corpus(size, lat=LAT, seed=SEED):
    return generate_corpus(seed, "random_bandlimited", size, lat).fields


def test_criterion_01_dyadic_partition():
    r = xi_norm(LAT)
    nonzero = r > 0
    dev = float(np.max(np.abs(partition_values(FAM)[nonzero] - 1.0)))
    support = 0.0
    ortho = 0.0
    for j in FAM.j_range:
        outside = (r < 3.0 * 2.0 ** (j - 2)) | (r > 2.0 ** (j + 3) / 3.0)
        support = max(support, float(np.max(np.abs(annulus_values(LAT, j)[outside]))))
        for jj in FAM.j_range:
            if abs(j - jj) >= 2:
                prod = annulus_values(LAT, j) * annulus_values(LAT, jj)
                ortho = max(ortho, float(np.max(np.abs(prod))))
    ok = dev <= 1e-12 and support == 0.0 and ortho == 0.0
    _announce(1, "dyadic partition exact", ok,
              f"partition_dev={dev:.2e} support={support:.1e} ortho={ortho:.1e}")


def test_criterion_02_reconstruction():
    worst = 0.0
    M = 128
    for u in _random_corpus(100):
        v = reconstruct(decompose(u, FAM))
        diff = lp_norm(v - u, math.inf, M=M)
        worst = max(worst, diff / lp_norm(u, math.inf, M=M))
    _announce(2, "block reconstruction identity", worst <= 1e-10,
              f"max_rel_sup={worst:.2e} <= 1e-10 over 100 fields")


def test_criterion_03_plancherel_gradient_identity():
    worst = 0.0
    for u in _random_corpus(20):
        for s in (-0.5, 0.0, 0.7, 1.2):
            grad_sq = sum(
                sobolev_norm(d, SpaceSpec("Hdot", s=s, p=2.0)) ** 2 for d in gradient(u)
            )
            up_sq = sobolev_norm(u, SpaceSpec("Hdot", s=s + 1.0, p=2.0)) ** 2
            worst = max(worst, abs(grad_sq - up_sq) / up_sq)
    _announce(3, "gradient shifts p=2 regularity by one", worst <= 1e-10,
              f"max_rel_dev={worst:.2e} <= 1e-10, s in {{-0.5,0,0.7,1.2}}")


def test_criterion_04_square_function_vs_potential():
    # at p = 2 the two evaluation orders of the square-function norm agree to
    # round-off; away from p = 2 the equivalence constants are logged and must
    # be stable across bandlimits (the single-block examples show the
    # square-function and potential norms themselves differ at p = 2 by the
    # in-block frequency offset, so the identity clause is the order exchange)
    fub = 0.0
    for u in _random_corpus(10):
        for s in (-0.5, 0.0, 0.7):
            fub = max(fub, abs(triebel_norm(u, s, 2.0) / triebel_fubini_l2(u, s) - 1.0))
    ok_p2 = fub <= 1e-10

    def constants(lat):
        out = {}
        fields = _random_corpus(5, lat=lat)
        for p in (4.0 / 3.0, 4.0):
            for s in (-0.5, 0.0, 0.7):
                hi, lo = 0.0, math.inf
                for u in fields:
                    ratio = triebel_norm(u, s, p) / sobolev_norm(
                        u, SpaceSpec("Hdot", s=s, p=p)
                    )
                    hi, lo = max(hi, ratio), min(lo, ratio)
                out[(p, s)] = (lo, hi)
        return out

    c32 = constants(LAT)
    c16 = constants(make_lattice(2, 16))
    ok_window = all(lo >= 0.1 and hi <= 10.0 for lo, hi in c32.values())
    stability = max(
        max(c32[k][1] / c16[k][1], c16[k][1] / c32[k][1]) for k in c32
    )
    ok = ok_p2 and ok_window and stability <= 2.0
    _announce(4, "square-function vs potential norm", ok,
              f"p2_order_dev={fub:.2e} window_ok={ok_window} stability={stability:.3f}<=2")


def test_criterion_05_holder_interpolation():
    worst = 0.0
    fields = _random_corpus(100)
    for u in fields:
        worst = max(worst, holder_check(u, -0.5, 0.7, 2.0, 2.0, 0.4))
    mixed = 0.0
    for u in fields[:10]:
        for theta in (0.25, 0.5, 0.75):
            r = holder_check(u, -0.5, 0.7, 4.0 / 3.0, 4.0, theta)
            mixed = max(mixed, r, 1.0 / r)
    ok = worst <= 1.0 + 1e-10 and mixed <= 10.0
    _announce(5, "interpolation inequality", ok,
              f"p2_constant={worst:.12f}<=1+1e-10 mixed_p={mixed:.2f}<=10")


def test_criterion_06_sobolev_embedding():
    def constant(lat):
        worst = 0.0
        for u in _random_corpus(8, lat=lat):
            worst = max(
                worst, lp_norm(u, 4.0) / sobolev_norm(u, SpaceSpec("Hdot", s=0.5, p=2.0))
            )
        return worst

    c32 = constant(LAT)
    c16 = constant(make_lattice(2, 16))
    stable = max(c32 / c16, c16 / c32)
    ok = math.isfinite(c32) and stable <= 2.0
    _announce(6, "L4 embedding constant stable", ok,
              f"C(K=32)={c32:.3f} C(K=16)={c16:.3f} spread={stable:.3f}<=2")


def test_criterion_07_real_interpolation():
    tgrid = default_tgrid()
    hi, lo, slack = 0.0, math.inf, 0.0
    for u in _random_corpus(3):
        for p in (2.0, 4.0):
            for s0, s1 in ((0.0, 1.0), (-0.5, 0.7)):
                c = Couple(SpaceSpec("Hdot", s=s0, p=p), SpaceSpec("Hdot", s=s1, p=p))
                if math.isclose(p, 2.0):
                    curve = k_curve_exact_hilbert(u, c, tgrid)
                    upper = k_curve_upper(u, c, tgrid)
                    mask = curve.values > 0
                    sandwich_lo = float(np.min(upper.values[mask] / curve.values[mask]))
                    assert sandwich_lo >= 1.0 - 1e-10
                    slack = max(
                        slack,
                        float(np.max(upper.values[mask] / (math.sqrt(2) * curve.values[mask]))),
                    )
                else:
                    curve = k_curve_upper(u, c, tgrid)
                for theta in (0.25, 0.5, 0.75):
                    s = (1 - theta) * s0 + theta * s1
                    for q in (1.0, 2.0, math.inf):
                        num = interp_norm_from_curve(curve, theta, q)
                        den = besov_norm(u, SpaceSpec("Bdot", s=s, p=p, q=q))
                        ratio = num / den
                        hi, lo = max(hi, ratio), min(lo, ratio)
    ok = lo >= 0.1 and hi <= 10.0 and 0.0 < slack <= 3.0
    _announce(7, "real interpolation comparable to block norm", ok,
              f"ratio in [{lo:.3f},{hi:.3f}] subset [0.1,10]; sandwich_slack={slack:.3f}<=3")


def _hdot2(u, s):
    r = xi_norm(u.lattice)
    mask = r > 0
    mass = np.abs(u.coef) ** 2
    return math.sqrt(u.lattice.L**2 * float(np.sum(mass[mask] * r[mask] ** (2 * s))))


def test_criterion_08_indicator_multiplier():
    fields32 = _random_corpus(5)
    lat64 = make_lattice(2, 64)

    def embedded(u, lat):
        out = zero_field(lat)
        sl = [slice(lat.K - LAT.K, lat.K + LAT.K + 1)] * 2
        out.coef[tuple(sl)] = u.coef
        return out

    detail = []
    ok = True
    for s in (-0.4, 0.0, 0.4, 0.9):
        c32 = max(
            _hdot2(indicator_multiply(u)[0], s) / _hdot2(u, s) for u in fields32
        )
        c64 = max(
            _hdot2(indicator_multiply(embedded(u, lat64))[0], s)
            / _hdot2(embedded(u, lat64), s)
            for u in fields32
        )
        if s < 0.5:
            ok &= c64 / c32 <= 1.5
            detail.append(f"s={s:g}: C64/C32={c64 / c32:.3f}")
        else:
            ok &= c64 > c32
            detail.append(f"s={s:g}: growth {c32:.3f}->{c64:.3f}")
    _announce(8, "sharp-cut boundedness window", ok, "; ".join(detail))


def test_criterion_09_reflection_coefficients():
    worst = max(reflection_coefficients(m).moment_residual() for m in range(7))
    a1 = reflection_coefficients(1).alpha
    a2 = reflection_coefficients(2).alpha
    dev = max(
        float(np.max(np.abs(a1 - np.array([-3.0, 4.0])))),
        float(np.max(np.abs(a2 - np.array([6.0, -32.0, 27.0])))),
    )
    ok = worst <= 1e-9 and dev <= 1e-9
    _announce(9, "reflection coefficient moment system", ok,
              f"moment_residual={worst:.2e} known_orders_dev={dev:.2e}")


def test_criterion_10_extension_projection():
    bump_up = bump_field(LAT, LAT.L / 4.0, DEFAULT_SIGMA)
    bump_lo = bump_field(LAT, -LAT.L / 4.0, DEFAULT_SIGMA)
    scale = lp_norm(bump_up, math.inf)
    M = default_oversample(LAT)

    restr = 0.0
    hf = make_half_field(bump_up)
    for m in (0, 1, 2):
        ext, res = extend_reflect(hf, m, window=True)
        up = sample_grid(ext, M).values[..., : M // 2 + 1]
        ref = sample_grid(bump_up, M).values[..., : M // 2 + 1]
        restr = max(restr, float(np.max(np.abs(up - ref))) - 10.0 * res)
    ok_restr = restr <= 1e-10

    idem = 0.0
    for m in (0, 1, 2):
        p1 = project_zero(bump_up, m)
        p2 = project_zero(p1, m)
        idem = max(idem, float(np.max(np.abs(p2.coef - p1.coef))) / scale)
    ok_idem = idem <= 1e-8

    # a bump living in the lower half is annihilated there: the output keeps
    # no lower-half content (the oblique projection moves a reflected ghost
    # into the upper half by construction)
    defect = lower_half_defect(project_zero(bump_lo, 0)) / lp_norm(bump_lo, math.inf)
    ok_kill = defect <= 1e-8

    def op_constant(lat):
        u = make_half_field(bump_field(lat, lat.L / 4.0, DEFAULT_SIGMA))
        den, _ = restriction_norm(u, SpaceSpec("Hdot", s=0.4, p=2.0, domain="halfspace"))
        worst = 0.0
        for m in (0, 1, 2):
            ext, _ = extend_reflect(u, m, window=True)
            worst = max(worst, sobolev_norm(ext, SpaceSpec("Hdot", s=0.4, p=2.0)) / den)
        return worst

    c32 = op_constant(LAT)
    c64 = op_constant(make_lattice(2, 64))
    stab = max(c32 / c64, c64 / c32)
    ok = ok_restr and ok_idem and ok_kill and stab <= 2.0
    _announce(10, "extension and zero-boundary projection", ok,
              f"restriction_excess={restr:.2e} idem={idem:.2e} "
              f"lower_defect={defect:.2e} ext_ratio_spread={stab:.3f}<=2")


RAYS = (0.0, math.pi / 4.0, math.pi / 2.0, 0.74 * math.pi)
MODULI = (0.1, 1.0, 10.0, 100.0)


def test_criterion_11_resolvent_image_identity():
    sines = generate_corpus(SEED, "sine_strip", 2, LAT).fields
    coss = generate_corpus(SEED, "cosine_strip", 2, LAT).fields
    worst = 0.0
    for theta in RAYS:
        for mod in MODULI:
            lam = mod * cmath.exp(1j * theta)
            for f, bc in [(sines[0], DIRICHLET), (coss[0], NEUMANN)]:
                direct = Field(LAT, f.coef / (lam + xi_norm_sq(LAT)))
                u, _ = resolvent_halfspace(make_half_field(f), lam, bc)
                scale = float(np.abs(direct.coef).max())
                worst = max(
                    worst, float(np.max(np.abs(u.field.coef - direct.coef))) / scale
                )
    _announce(11, "image method equals direct mode division", worst <= 1e-10,
              f"max_rel_dev={worst:.2e} over 16 shifts x 2 conditions")


def test_criterion_12_resolvent_estimates():
    # constants are logged per ray; uniformity is asserted over the moduli the
    # lattice spectrum resolves (>= its smallest eigenvalue 1); the |lam|=0.1
    # point and the steep ray are reported through the monotone growth check
    sines = generate_corpus(SEED, "sine_strip", 2, LAT).fields
    coss = generate_corpus(SEED, "cosine_strip", 2, LAT).fields
    pairs = [(make_half_field(sines[1]), DIRICHLET), (make_half_field(coss[1]), NEUMANN)]
    table = {}
    for theta in RAYS:
        per_mod = []
        for mod in MODULI:
            lam = mod * cmath.exp(1j * theta)
            per_mod.append(
                max(sum(resolvent_estimate_check(f, lam, bc)) for f, bc in pairs)
            )
        table[theta] = per_mod
    spreads = {}
    ok = True
    for theta in RAYS[:3]:
        vals = [v for v, mod in zip(table[theta], MODULI) if mod >= 1.0]
        spreads[theta] = max(vals) / min(vals)
        ok &= spreads[theta] <= 1.5
    maxima = [max(table[t]) for t in RAYS]
    monotone = all(maxima[i] <= maxima[i + 1] * (1 + 1e-9) for i in range(3))
    ok &= monotone
    detail = " ".join(f"ray{t:.2f}:spread={s:.3f}" for t, s in spreads.items())
    _announce(12, "sector resolvent estimates uniform per ray", ok,
              f"{detail}; c_mu={['%.2f' % m for m in maxima]} monotone={monotone}")


def test_criterion_13_trace_and_poisson():
    blat = LAT.boundary()
    rng = np.random.default_rng(SEED)
    modes = {}
    while len(modes) < 10:
        k = (int(rng.integers(-blat.K, blat.K + 1)),)
        if k[0] != 0:
            modes[k] = complex(rng.standard_normal(), rng.standard_normal())
    from fsx.lattice import field_from_modes

    g = field_from_modes(blat, modes)
    pf = poisson_extend(g)
    ident = float(np.max(np.abs(pf.slice_field(0.0).coef - g.coef)))
    ok_id = ident == 0.0

    u = plane_wave(LAT, (3, 4))
    s, alpha, p, q = 0.5, 0.0, 2.0, 2.0
    want = (
        5.0 ** (alpha - s)
        * (math.gamma(s * q) / q ** (s * q)) ** (1.0 / q)
        * (LAT.L**2) ** (1.0 / p)
    )
    gamma_err = abs(poisson_besov_norm(u, s, alpha, p, q) / want - 1.0)
    ok_gamma = gamma_err <= 1e-6

    hi, lo = 0.0, math.inf
    for w in _random_corpus(3):
        for s_, p_, q_ in [(0.5, 2.0, 2.0), (0.3, 2.0, 1.0), (0.8, 4.0, 2.0)]:
            num = poisson_besov_norm(w, s_, 0.0, p_, q_)
            den = besov_norm(w, SpaceSpec("Bdot", s=-s_, p=p_, q=q_))
            ratio = num / den
            hi, lo = max(hi, ratio), min(lo, ratio)
    ok_ratio = lo >= 0.1 and hi <= 10.0

    worst_tc = 0.0
    coss = generate_corpus(SEED, "cosine_strip", 3, LAT).fields
    for w in coss:
        w = w.copy()
        w.coef[LAT.K] = 0.0  # zero-mean trace
        gb = trace(w)
        if gb.peak() <= 1e-14:
            continue
        for s_ in (0.7, 1.2):
            num = besov_norm(gb, SpaceSpec("Bdot", s=s_ - 0.5, p=2.0, q=2.0))
            den, _ = restriction_norm(
                make_half_field(w), SpaceSpec("Hdot", s=s_, p=2.0, domain="halfspace")
            )
            worst_tc = max(worst_tc, num / den)
    ok_tc = worst_tc <= 20.0
    ok = ok_id and ok_gamma and ok_ratio and ok_tc
    _announce(13, "trace and harmonic extension", ok,
              f"trace_of_extension_dev={ident:.1e} gamma_err={gamma_err:.2e} "
              f"ratio=[{lo:.2f},{hi:.2f}] trace_constant={worst_tc:.2f}<=20")


def test_criterion_14_boundary_value_problems():
    blat = LAT.boundary()
    g = plane_wave(blat, (1,))
    sol = bvp_dirichlet(None, g, lat=LAT)
    rng = np.random.default_rng(SEED + 1)
    worst_pt = 0.0
    for _ in range(20):
        x = (rng.uniform(0, LAT.L), rng.uniform(0.05, LAT.L / 2 - 0.05))
        want = cmath.exp(-x[1]) * cmath.exp(1j * x[0])
        worst_pt = max(worst_pt, abs(sol.evaluate(x) - want))
    ok_profile = worst_pt <= 1e-10

    sines = generate_corpus(SEED, "sine_strip", 2, LAT).fields
    coss = generate_corpus(SEED, "cosine_strip", 2, LAT).fields
    bump = bump_field(LAT, LAT.L / 4.0, DEFAULT_SIGMA)
    gb = 0.2 * plane_wave(blat, (2,))
    worst_res, worst_bc = 0.0, 0.0
    for f, kind in [(sines[0], DIRICHLET), (coss[0], NEUMANN), (bump, DIRICHLET)]:
        hf = make_half_field(f)
        solver = bvp_dirichlet if kind == DIRICHLET else bvp_neumann
        s = solver(hf, gb)
        scale = lp_norm(f, 2.0, "halfspace")
        slack = 10.0 * s.reflection_residual + hf.leakage / max(half_peak(hf), 1e-30)
        worst_res = max(worst_res, s.interior_residual() / scale - slack)
        worst_bc = max(worst_bc, s.boundary_mismatch())
    ok = ok_profile and worst_res <= 1e-8 and worst_bc <= 1e-8
    _announce(14, "boundary value problems", ok,
              f"profile_dev={worst_pt:.2e} interior_excess={worst_res:.2e} "
              f"boundary_mismatch={worst_bc:.2e}")


def test_criterion_15_dilation_scaling():
    rng = np.random.default_rng(SEED)
    modes = {}
    while len(modes) < 15:
        k = tuple(int(v) for v in rng.integers(-LAT.K // 2, LAT.K // 2 + 1, size=2))
        if any(k):
            modes[k] = complex(rng.standard_normal(), rng.standard_normal())
    from fsx.lattice import field_from_modes

    u = field_from_modes(LAT, modes)
    worst = 0.0
    for s in (-0.5, 0.0, 0.7, 1.2):
        a = sobolev_norm(dilate(u, 1), SpaceSpec("Hdot", s=s, p=2.0))
        b = 2.0 ** (s - 1.0) * sobolev_norm(u, SpaceSpec("Hdot", s=s, p=2.0))
        worst = max(worst, abs(a / b - 1.0))
    _announce(15, "dilation scales potential norms", worst <= 1e-10,
              f"max_rel_dev={worst:.2e} (exponent s - n/2)")


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "run_all_corpus3.json")


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= max(1e-9 * abs(want), 1e-12)


def _golden_mismatches(reports) -> list[str]:
    """Where the reports differ from the recorded run at the same config.

    Case ids, verdicts and corpus digests must be equal; values and
    constants may differ by round-off.
    """
    with open(GOLDEN) as fh:
        golden = json.load(fh)["suites"]
    bad = []
    if [r.suite for r in reports] != [g["suite"] for g in golden]:
        return ["suite list"]
    for rep, gold in zip(reports, golden):
        got = [[c["case"], c["digest"], c["passed"]] for c in rep.cases]
        if got != [c[:3] for c in gold["cases"]]:
            bad.append(f"{rep.suite}: cases")
            continue
        for case, want in zip(rep.cases, gold["cases"]):
            if not _close(case["value"], want[3]):
                bad.append(f"{rep.suite}.{case['case']}")
        if sorted(rep.constants) != sorted(gold["constants"]):
            bad.append(f"{rep.suite}: constant names")
            continue
        for key, want in gold["constants"].items():
            if not _close(rep.constants[key], want):
                bad.append(f"{rep.suite}.{key}")
    return bad


def test_criterion_16_determinism():
    cfg = SuiteConfig(corpus_size=3)
    reports = run_all(cfg)
    first = [report_digest(r) for r in reports]
    second = [report_digest(r) for r in run_all(cfg)]
    bad = _golden_mismatches(reports)
    ok = first == second and not bad
    _announce(16, "identical seeds give identical reports", ok,
              f"{len(first)} suite digests match modulo timing; "
              f"recorded values differ at {bad or 'no case'}")
