"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line with its measured quantities at the
stated tolerance.  Every identity is measured by the fsx.suites function that
its suite calls too, against the bound defined beside that function; a test
chooses its own inputs, often larger ones than the suite's.  Desk scale
throughout: n = 2, K = 32, L = 2*pi, with cross-lattice checks against K = 16
and K = 64 where required.
"""

import json
import os

import numpy as np

from fsx import suites
from fsx.corpus import DEFAULT_BUMP_SIGMA, bump_field, generate_corpus
from fsx.dyadic import PARTITION_TOL, build_dyadic_family
from fsx.halfspace import make_half_field
from fsx.lattice import field_from_modes, make_lattice
from fsx.report import report_digest
from fsx.suites import SUITES, SuiteConfig, run_suite

SEED = 42
LAT = make_lattice(2, 32)
FAM = build_dyadic_family(LAT)
S_VALUES = (-0.5, 0.0, 0.7, 1.2)


def _announce(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {label} ({detail})")
    assert ok, f"criterion {num}: {label}: {detail}"


def _random_corpus(size, lat=LAT):
    return generate_corpus(SEED, "random_bandlimited", size, lat).fields


def _strip_fields(kind):
    return generate_corpus(SEED, kind, 2, LAT).fields


def _bump(lat, lower=False):
    """Gaussian bump at x_n = L/4 (or -L/4), inside one open half."""
    return bump_field(lat, (-lat.L if lower else lat.L) / 4.0, DEFAULT_BUMP_SIGMA)


def _random_modes(lat, count, kmax):
    """count distinct nonzero modes with |k_i| <= kmax and normal amplitudes."""
    rng = np.random.default_rng(SEED)
    return field_from_modes(lat, suites.distinct_modes(rng, lat.n, kmax, count))


def test_criterion_01_dyadic_partition():
    dev, support, ortho = suites.partition_defects(FAM)
    ok = dev <= PARTITION_TOL and support == 0.0 and ortho == 0.0
    _announce(1, "dyadic partition exact", ok,
              f"partition_dev={dev:.2e} support={support:.1e} ortho={ortho:.1e}")


def test_criterion_02_reconstruction():
    worst = suites.reconstruction_error(_random_corpus(100), FAM)
    _announce(2, "block reconstruction identity", worst <= suites.ROUNDOFF_TOL,
              f"max_rel_mode_dev={worst:.2e} <= {suites.ROUNDOFF_TOL:g} over 100 fields")


def test_criterion_03_plancherel_gradient_identity():
    fields = _random_corpus(20)
    worst = max(suites.gradient_shift_error(fields, s) for s in S_VALUES)
    _announce(3, "gradient shifts p=2 regularity by one", worst <= suites.ROUNDOFF_TOL,
              f"max_rel_dev={worst:.2e} <= {suites.ROUNDOFF_TOL:g}, s in {S_VALUES}")


def test_criterion_04_square_function_vs_potential():
    # at p = 2 the two evaluation orders of the square-function norm agree to
    # round-off; the equivalence constants must sit in their window and be
    # stable across bandlimits (the single-block examples show the
    # square-function and potential norms themselves differ at p = 2 by the
    # in-block frequency offset, so the identity clause is the order exchange)
    fub = suites.fubini_exchange_error(_random_corpus(10))
    c32 = suites.triebel_sobolev_ratios(_random_corpus(5))
    c16 = suites.triebel_sobolev_ratios(_random_corpus(5, lat=make_lattice(2, 16)))
    window_ok = suites.in_window(*c32.values())
    stability = suites.lattice_spread(c32, c16)
    ok = fub <= suites.ROUNDOFF_TOL and window_ok and stability <= suites.STABILITY_BOUND
    _announce(4, "square-function vs potential norm", ok,
              f"p2_order_dev={fub:.2e} window_ok={window_ok} "
              f"stability={stability:.3f}<={suites.STABILITY_BOUND:g}")


def test_criterion_05_holder_interpolation():
    p2, mixed = suites.holder_constants(_random_corpus(100))
    ok = p2 <= suites.HOLDER_P2_BOUND and mixed <= suites.HOLDER_MIXED_BOUND
    _announce(5, "interpolation inequality", ok,
              f"p2_constant={p2:.12f}<={suites.HOLDER_P2_BOUND!r} "
              f"mixed_p={mixed:.2f}<={suites.HOLDER_MIXED_BOUND:g}")


def test_criterion_06_sobolev_embedding():
    c32 = suites.embedding_constant(_random_corpus(8))
    c16 = suites.embedding_constant(_random_corpus(8, lat=make_lattice(2, 16)))
    stable = suites.spread(c32, c16)
    ok = c32 < suites.EMBEDDING_BOUND and stable <= suites.STABILITY_BOUND
    _announce(6, "L4 embedding constant bounded and stable", ok,
              f"C(K=32)={c32:.3f}<{suites.EMBEDDING_BOUND:g} C(K=16)={c16:.3f} "
              f"spread={stable:.3f}<={suites.STABILITY_BOUND:g}")


def test_criterion_07_real_interpolation():
    lo, hi, slack, floor = suites.interp_besov_ratios(_random_corpus(3))
    ok = (suites.in_window(lo, hi) and 0.0 < slack <= suites.SANDWICH_BOUND
          and floor >= suites.SANDWICH_FLOOR)
    _announce(7, "real interpolation comparable to block norm", ok,
              f"ratio in [{lo:.3f},{hi:.3f}] subset {suites.EQUIVALENCE_WINDOW}; "
              f"sandwich_slack={slack:.3f}<={suites.SANDWICH_BOUND:g}; "
              f"sandwich_floor={floor:.12f}>={suites.SANDWICH_FLOOR!r}")


def test_criterion_08_indicator_multiplier():
    fields = _random_corpus(5)
    c32 = suites.indicator_ratios(fields, LAT)
    c64 = suites.indicator_ratios(fields, make_lattice(2, 64))
    beyond = suites.INDICATOR_BEYOND
    growth = {s: c64[s] / c32[s] for s in suites.INDICATOR_BOUNDED}
    ok = max(growth.values()) <= suites.INDICATOR_GROWTH_BOUND and c64[beyond] > c32[beyond]
    detail = [f"s={s:g}: C64/C32={g:.3f}" for s, g in growth.items()]
    detail.append(f"s={beyond:g}: growth {c32[beyond]:.3f}->{c64[beyond]:.3f}")
    _announce(8, "sharp-cut boundedness window", ok, "; ".join(detail))


def test_criterion_09_reflection_coefficients():
    residual, dev = suites.reflection_coefficient_errors()
    ok = residual <= suites.REFLECTION_TOL and dev <= suites.REFLECTION_TOL
    _announce(9, "reflection coefficient moment system", ok,
              f"moment_residual={residual:.2e} known_orders_dev={dev:.2e}")


def test_criterion_10_extension_projection():
    up = _bump(LAT)
    restr = suites.restriction_excess(make_half_field(up))
    idem = suites.idempotence_defect(up, (0, 1, 2))
    # a bump living in the lower half is annihilated there: the output keeps
    # no lower-half content (the oblique projection moves a reflected ghost
    # into the upper half by construction)
    defect = suites.lower_content(_bump(LAT, lower=True))
    c32 = suites.extension_ratio(make_half_field(up))
    c64 = suites.extension_ratio(make_half_field(_bump(make_lattice(2, 64))))
    stab = suites.spread(c32, c64)
    ok = (restr <= suites.ROUNDOFF_TOL and idem <= suites.PROJECTION_TOL
          and defect <= suites.PROJECTION_TOL and stab <= suites.STABILITY_BOUND)
    _announce(10, "extension and zero-boundary projection", ok,
              f"restriction_excess={restr:.2e} idem={idem:.2e} "
              f"lower_defect={defect:.2e} ext_ratio_spread={stab:.3f}<={suites.STABILITY_BOUND:g}")


def test_criterion_11_resolvent_image_identity():
    worst = suites.image_identity_error(_strip_fields("sine_strip")[0],
                                        _strip_fields("cosine_strip")[0])
    _announce(11, "image method equals direct mode division", worst <= suites.ROUNDOFF_TOL,
              f"max_rel_dev={worst:.2e} over 16 shifts x 2 conditions")


def test_criterion_12_resolvent_estimates():
    # constants are logged per ray; uniformity is asserted over the moduli the
    # lattice spectrum resolves (>= its smallest eigenvalue 1); the |lam|=0.1
    # point and the steep ray are reported through the monotone growth check
    table = suites.sector_constants(make_half_field(_strip_fields("sine_strip")[1]),
                                    make_half_field(_strip_fields("cosine_strip")[1]))
    spreads = {theta: suites.ray_spread(table[theta]) for theta in suites.RAYS[:3]}
    monotone = suites.grows_toward_negative_axis(table)
    ok = max(spreads.values()) <= suites.UNIFORMITY_BOUND and monotone
    detail = " ".join(f"ray{t:.2f}:spread={s:.3f}" for t, s in spreads.items())
    maxima = ["%.2f" % max(table[t]) for t in suites.RAYS]
    _announce(12, "sector resolvent estimates uniform per ray", ok,
              f"{detail}; c_mu={maxima} monotone={monotone}")


def test_criterion_13_trace_and_poisson():
    ident = suites.extension_trace_error(_random_modes(LAT.boundary(), 10, LAT.K))
    gamma_err = suites.gamma_oracle_error(LAT)
    lo, hi = suites.semigroup_ratios(_random_corpus(3))
    trace_c = suites.trace_constant(generate_corpus(SEED, "cosine_strip", 3, LAT).fields)
    ok = (ident == 0.0 and gamma_err <= suites.GAMMA_TOL and suites.in_window(lo, hi)
          and trace_c <= suites.TRACE_BOUND)
    _announce(13, "trace and harmonic extension", ok,
              f"trace_of_extension_dev={ident:.1e} gamma_err={gamma_err:.2e} "
              f"ratio=[{lo:.2f},{hi:.2f}] trace_constant={trace_c:.2f}<={suites.TRACE_BOUND:g}")


def test_criterion_14_boundary_value_problems():
    profile = suites.profile_error(LAT, np.random.default_rng(SEED + 1))
    sine, cosine = _strip_fields("sine_strip")[0], _strip_fields("cosine_strip")[0]
    residual, mismatch = suites.bvp_defects(sine, cosine, _bump(LAT))
    ok = (profile <= suites.ROUNDOFF_TOL and residual <= suites.BVP_TOL
          and mismatch <= suites.BVP_TOL)
    _announce(14, "boundary value problems", ok,
              f"profile_dev={profile:.2e} interior_excess={residual:.2e} "
              f"boundary_mismatch={mismatch:.2e}")


def test_criterion_15_dilation_scaling():
    worst = suites.dilation_error(_random_modes(LAT, 15, LAT.K // 2), S_VALUES)
    _announce(15, "dilation scales potential norms", worst <= suites.ROUNDOFF_TOL,
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
    reports = [run_suite(name, cfg) for name in SUITES]
    first = [report_digest(r) for r in reports]
    second = [report_digest(run_suite(name, cfg)) for name in SUITES]
    bad = _golden_mismatches(reports)
    ok = first == second and not bad
    _announce(16, "identical seeds give identical reports", ok,
              f"{len(first)} suite digests match modulo timing; "
              f"recorded values differ at {bad or 'no case'}")
