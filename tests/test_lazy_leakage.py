"""HalfField.leakage is sampled on its first read and kept.

The solvers and the suites build half fields whose far-face leakage nobody
reads, so building one samples nothing.  The first read runs the rule's sup
over the far band, bitwise equal to taking it directly (eager_leakage);
later reads return it.  materialize_poisson samples nothing: the leakage of
the extension itself is PoissonField.leakage, read only where it is used.
resolvent_estimate_check samples nothing: it refuses a zero source by its
strip L2 norm, read from a triangular factor.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsx.halfspace as fsx_halfspace
import fsx.lattice as fsx_lattice
import fsx.norms as fsx_norms
import fsx.poisson as fsx_poisson
import fsx.solvers as fsx_solvers
from fsx.cli import main as cli_main
from fsx.halfspace import far_band_rows, make_half_field
from fsx.lattice import (
    Field,
    default_oversample,
    field_from_modes,
    make_lattice,
    occupied,
    plane_wave,
    save_field,
)
from fsx.norms import rectangle_rule
from fsx.poisson import materialize_poisson, poisson_extend
from fsx.solvers import (
    DIRICHLET,
    NEUMANN,
    bvp_dirichlet,
    bvp_neumann,
    resolvent_estimate_check,
    resolvent_halfspace,
)

SAMPLERS = ("rectangle_rule", "grid_slabs", "horizontal_samples")


def eager_leakage(f):
    """The far-band sup taken directly, the reference for the lazy read."""
    M = default_oversample(f.lattice)
    return rectangle_rule([(1.0, occupied(f))], math.inf, far_band_rows(M), M)


@pytest.fixture
def sampled(monkeypatch):
    """Every call of the rule and of the two samplers, wherever fsx imported
    them, as (name, p) with p the rule's exponent and None for a sampler."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, args[1] if name == "rectangle_rule" else None))
            return fn(*args, **kwargs)

        return wrapper

    for mod in (fsx_lattice, fsx_norms, fsx_halfspace, fsx_poisson, fsx_solvers):
        for name in SAMPLERS:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    return calls


def strip_sups(calls):
    return [c for c in calls if c[0] == "rectangle_rule" and np.isinf(np.atleast_1d(c[1])).any()]


@st.composite
def fields(draw):
    n = draw(st.integers(1, 3))
    K = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lat = make_lattice(n, K, draw(st.sampled_from([2.0 * math.pi, 3.0, 11.0])))
    shape = lat.mode_shape
    return Field(lat, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestLazyLeakage:
    @settings(max_examples=30)
    @given(fields())
    def test_first_read_is_the_eager_value_and_is_kept(self, f):
        hf = make_half_field(f)
        assert "leakage" not in hf.__dict__
        first = hf.leakage
        assert first == eager_leakage(f)  # bitwise
        with mock.patch.object(fsx_halfspace, "rectangle_rule", side_effect=AssertionError):
            assert hf.leakage is first

    @pytest.mark.parametrize("n,K", [(2, 8), (3, 4)])
    def test_solvers_sample_nothing_until_read(self, sampled, n, K):
        lat = make_lattice(n, K)
        rng = np.random.default_rng(n)
        f = Field(lat, rng.standard_normal(lat.mode_shape) + 0j)
        f.coef[(K,) * (n - 1)] = 0.0  # no horizontal mean, so the BVPs take f
        g = plane_wave(lat.boundary(), (1,) + (0,) * (n - 2))
        hf = make_half_field(f)
        solutions = [resolvent_halfspace(hf, 2.0, bc)[0] for bc in (DIRICHLET, NEUMANN)]
        bvps = [bvp_dirichlet(hf, g), bvp_neumann(hf, g), bvp_neumann(None, g)]
        assert sampled == []
        # one strip sup per first read; eager_leakage calls the rule unpatched
        for u in solutions + [sol.source for sol in bvps]:
            assert u.leakage == eager_leakage(u.field)
        assert len(strip_sups(sampled)) == 4  # bvp_neumann(hf, g) shares hf

    def test_estimate_check_takes_no_strip_sup(self, sampled, monkeypatch):
        """It samples nothing: its four strip L2 sums, f's and u's times 1,
        xi_n and xi_n^2, are read from the strip's triangular factor."""
        read = []
        monkeypatch.setattr(fsx_norms, "strip_rows",
                            lambda v, M, rows=fsx_norms.strip_rows: read.append(M) or rows(v, M))
        lat = make_lattice(2, 8)
        f = make_half_field(field_from_modes(lat, {(1, 1): 0.5j, (1, -1): -0.5j, (2, 3): 0.25}))
        resolvent_estimate_check(f, 1.0, DIRICHLET)
        assert sampled == [] and read == [default_oversample(lat)] * 4

    def test_poisson_leakage_is_read_from_the_profile(self, sampled):
        lat = make_lattice(2, 16)
        pf = poisson_extend(plane_wave(lat.boundary(), (1,)))
        materialize_poisson(pf, lat)
        assert sampled == []
        M = default_oversample(lat)
        # the sup of exp(-x_n) over the far band, at its lowest height
        want = math.exp(-far_band_rows(M)[0] * (lat.L / M))
        assert pf.leakage() == pytest.approx(want, rel=1e-12)
        assert [name for name, _ in sampled] == ["horizontal_samples"]

    @pytest.mark.parametrize("problem,want", [
        ("dirichlet-resolvent", 0.1095535473968684),
        ("neumann-resolvent", 0.2057808513627592),
    ])
    def test_cli_solve_writes_the_same_leakage(self, tmp_path, problem, want):
        """want is the value written when every HalfField sampled its leakage as it was built."""
        lat = make_lattice(2, 8)
        fpath, out = str(tmp_path / "f.json"), str(tmp_path / "u.json")
        save_field(field_from_modes(lat, {(1, 1): 0.5j, (-2, 3): 0.25, (3, -5): 0.125 - 0.5j}),
                   fpath)
        assert cli_main(["solve", "--problem", problem, "--lambda", "2@0.5pi", "--f", fpath,
                         "--out", out]) == 0
        assert json.load(open(out))["leakage"] == want

    def test_cli_bvp_writes_the_same_leakage(self, tmp_path):
        lat = make_lattice(2, 8)
        fpath, gpath, out = (str(tmp_path / name) for name in ("f.json", "g.json", "u.json"))
        save_field(field_from_modes(lat, {(1, 1): 0.5j, (1, -1): -0.5j, (-2, 3): 0.25,
                                          (-2, -3): -0.25}), fpath)
        save_field(field_from_modes(lat.boundary(), {(2,): 0.75, (-2,): 0.75}), gpath)
        assert cli_main(["solve", "--problem", "dirichlet-bvp", "--f", fpath, "--g", gpath,
                         "--out", out]) == 0
        assert json.load(open(out))["leakage"] == 0.22976390207160585

