"""The restriction norm's witness operators, built once per lattice.

restriction_norm takes the five witnesses of WITNESSES one at a time, each
one product with the kept rows of its operator in the reflections' one cache,
halfspace._operator, which the parities and extend_reflect share: E0 is the
even reflection, ED the odd one, and E0w, E1w and E2w are extend_reflect(u, m)
for m = 0, 1, 2.  Every witness and every (value, witness)
must be bitwise what the per-call route gives
(grid_reference.witnesses_per_call), with the cache cold and warm.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsx.halfspace as fsx_halfspace
from fsx.corpus import generate_corpus
from fsx.errors import FsxError
from fsx.halfspace import (
    WITNESSES,
    extend_reflect,
    make_half_field,
    reflect_parity,
    reflection_coefficients,
    restriction_norm,
)
from fsx.lattice import Field, make_lattice
from fsx.norms import SpaceSpec, lp_norm, norm_ignoring_mean
from fsx.suites import SuiteConfig, run_suite
from grid_reference import witnesses_per_call

SPECS = [SpaceSpec("Lp", p=p, domain="halfspace") for p in (4.0 / 3.0, 2.0, 4.0)] + [
    SpaceSpec("Hdot", s=0.7, p=2.0, domain="halfspace")
]
# the bound fails where projecting the extensions moves their upper half, as
# on many random fields at small K: for complex standard-normal fields over the
# whole mode array at p in {4/3, 2, 4}, on 293, 183, 123 and 55 of the 900
# (field, p) pairs of seeds 0-299 at (n, K) = (2, 1), (2, 2), (2, 3), (2, 4)
BELOW = "witness norm below the exact half-domain bound"


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def witnesses(hf):
    """The witnesses (name, field) as restriction_norm forms them, from the cache."""
    lat = hf.field.lattice
    return [(name, fsx_halfspace._columns_through(hf.field, fsx_halfspace._operator(lat, *key)[0]))
            for name, key in WITNESSES.items()]


def norm_per_call(hf, spec):
    """restriction_norm's (value, witness) over the per-call witnesses, or
    BELOW when an Lp value falls below the exact half-domain bound."""
    whole = replace(spec, domain="whole")
    best, witness = math.inf, ""
    for name, cand in witnesses_per_call(hf):
        val = norm_ignoring_mean(cand, whole)
        if val < best:
            best, witness = val, name
    if spec.family == "Lp" and best < lp_norm(hf.field, spec.p, domain="halfspace") * (1 - 1e-9):
        return BELOW
    return best, witness


def restriction_outcome(hf, spec):
    try:
        return restriction_norm(hf, spec)
    except FsxError:
        return BELOW


@st.composite
def half_fields(draw):
    """A random field on n <= 3, K <= 8, declared on the upper half."""
    n = draw(st.integers(1, 3))
    lat = make_lattice(n, draw(st.integers(1, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coef = rng.standard_normal(lat.mode_shape) + 1j * rng.standard_normal(lat.mode_shape)
    return make_half_field(Field(lat, coef))


class TestWitnessOperators:
    @settings(max_examples=25)
    @given(half_fields(), st.sampled_from(SPECS))
    def test_equal_the_per_call_route_cold_and_warm(self, hf, spec):
        want = witnesses_per_call(hf)
        want_norm = norm_per_call(hf, spec)
        fsx_halfspace._operator.cache_clear()
        for _ in range(2):  # cold, then warm
            got = witnesses(hf)
            assert [name for name, _f in got] == [name for name, _f in want] == list(WITNESSES)
            assert all(same_bits(g.coef, w.coef) for (_a, g), (_b, w) in zip(got, want))
            assert restriction_outcome(hf, spec) == want_norm

    def test_cached_operators_are_read_only(self):
        for key in WITNESSES.values():
            for op in fsx_halfspace._operator(make_lattice(2, 4), *key):
                assert op.shape == (9, 9)
                with pytest.raises(ValueError):
                    op[0, 0] = 1.0

    def test_built_once_per_lattice(self):
        lat = make_lattice(2, 8)
        fields = generate_corpus(7, "boundary_bump", 2, lat).fields
        fsx_halfspace._operator.cache_clear()
        for i in range(10):
            restriction_norm(make_half_field(fields[i % 2]), SPECS[i % len(SPECS)])
        info = fsx_halfspace._operator.cache_info()
        assert (info.misses, info.hits, info.currsize) == (5, 45, 5)

    def test_witnesses_stream_through_the_norm(self):
        # one restriction_norm call holds one witness field at a time, not all
        # of them: with the operators warm, its peak allocation stays below the
        # bytes of the whole witness set
        lat = make_lattice(2, 32)
        hf = make_half_field(generate_corpus(42, "sine_strip", 1, lat).fields[0])
        spec = SpaceSpec("Hdot", s=0.4, p=2.0, domain="halfspace")
        restriction_norm(hf, spec)
        tracemalloc.start()
        try:
            restriction_norm(hf, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(WITNESSES) * hf.field.coef.nbytes


class TestOneOperatorCache:
    """The parities, the extensions and the witnesses read one cache, so an
    operator two of them share is built once."""

    def test_cold_reflection_suite_builds_five_operators_per_lattice(self):
        # the desk reflection suite reads the five witnesses at K=32 and K=64 and
        # nothing else: its parities are E0 and ED, its extensions E0w-E2w
        fsx_halfspace._operator.cache_clear()
        run_suite("reflection", SuiteConfig())
        info = fsx_halfspace._operator.cache_info()
        assert (info.misses, info.currsize) == (10, 10)
        for K in (32, 64):
            for key in WITNESSES.values():
                fsx_halfspace._operator(make_lattice(2, K), *key)
        assert fsx_halfspace._operator.cache_info().misses == 10

    def test_extensions_on_one_lattice_build_once(self):
        hf = make_half_field(generate_corpus(7, "boundary_bump", 1, make_lattice(2, 8)).fields[0])
        fsx_halfspace._operator.cache_clear()
        for _ in range(10):
            extend_reflect(hf, 2)
        info = fsx_halfspace._operator.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 9, 1)

    def test_even_parity_and_order_zero_share_the_witness_e0(self):
        # the unwindowed order-0 reflection is the even one: one entry, E0
        lat = make_lattice(2, 8)
        hf = make_half_field(generate_corpus(7, "cosine_strip", 1, lat).fields[0])
        fsx_halfspace._operator.cache_clear()
        even, _ = reflect_parity(hf, "even")
        restriction_norm(hf, SPECS[1])
        info = fsx_halfspace._operator.cache_info()
        assert (info.misses, info.hits, info.currsize) == (5, 1, 5)
        order_zero = fsx_halfspace._operator(lat, tuple(reflection_coefficients(0).alpha), False)
        assert same_bits(fsx_halfspace._columns_through(hf.field, order_zero[0]).coef, even.coef)
        assert same_bits(dict(witnesses(hf))["E0"].coef, even.coef)
        assert fsx_halfspace._operator.cache_info().misses == 5

    @pytest.mark.parametrize("n, K", [(2, 8), (2, 32), (3, 8)])
    def test_extensions_are_the_windowed_witnesses(self, n, K):
        # extend_reflect(u, m) is the witness Emw, bit for bit, read from its entry
        hf = make_half_field(generate_corpus(7, "boundary_bump", 1, make_lattice(n, K)).fields[0])
        fsx_halfspace._operator.cache_clear()
        restriction_norm(hf, SPECS[1])
        assert fsx_halfspace._operator.cache_info().misses == 5
        cached = dict(witnesses(hf))
        for m in (0, 1, 2):
            assert same_bits(extend_reflect(hf, m)[0].coef, cached[f"E{m}w"].coef)
        assert fsx_halfspace._operator.cache_info().misses == 5
