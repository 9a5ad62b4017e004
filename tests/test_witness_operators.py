"""The restriction norm's witness operators, built once per lattice.

restriction_norm streams the witness extensions of extension_candidates,
each one product with the kept rows of its cached operator; every witness
and every (value, witness) must be bitwise what the per-call route gives
(grid_reference.witnesses_per_call), with the caches cold and warm.
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
from fsx.halfspace import WITNESSES, extension_candidates, make_half_field, restriction_norm
from fsx.lattice import Field, make_lattice
from fsx.norms import SpaceSpec, lp_norm, norm_ignoring_mean
from grid_reference import witnesses_per_call

SPECS = [SpaceSpec("Lp", p=p, domain="halfspace") for p in (4.0 / 3.0, 2.0, 4.0)] + [
    SpaceSpec("Hdot", s=0.7, p=2.0, domain="halfspace")
]
# the bound fails where projecting the extensions moves their upper half, as
# on many random fields at small K: for complex standard-normal fields at p in
# {4/3, 2, 4}, on about 1 in 3 (n, K) = (2, 1) pairs and 1 in 16 at (2, 4)
BELOW = "witness norm below the exact half-domain bound"


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def clear_caches():
    fsx_halfspace._witness_operators.cache_clear()
    fsx_halfspace._parity_operator.cache_clear()


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
        clear_caches()
        for _ in range(2):  # cold, then warm
            got = list(extension_candidates(hf))
            assert [name for name, _f in got] == [name for name, _f in want] == list(WITNESSES)
            assert all(same_bits(g.coef, w.coef) for (_a, g), (_b, w) in zip(got, want))
            assert restriction_outcome(hf, spec) == want_norm

    def test_cached_operators_are_read_only(self):
        ops = fsx_halfspace._witness_operators(make_lattice(2, 4))
        assert ops.shape == (len(WITNESSES), 9, 9)
        with pytest.raises(ValueError):
            ops[0, 0, 0] = 1.0

    def test_built_once_per_lattice(self):
        lat = make_lattice(2, 8)
        fields = generate_corpus(7, "boundary_bump", 2, lat).fields
        clear_caches()
        for i in range(10):
            restriction_norm(make_half_field(fields[i % 2]), SPECS[i % len(SPECS)])
        info = fsx_halfspace._witness_operators.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 9, 1)

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
