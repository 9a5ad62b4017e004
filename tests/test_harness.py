import ast
import glob
import importlib
import inspect
import json
import math
import os
import pkgutil
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import fsx
import fsx.halfspace
import fsx.lattice
import fsx.norms
import fsx.suites
from fsx.cli import main as cli_main, parse_lambda
from fsx.corpus import _decay_weights, generate_corpus
from fsx.errors import ConfigError, InvalidParameter, UnknownSuite
from fsx.lattice import (
    field_from_modes,
    grid_slabs,
    load_field,
    make_lattice,
    plane_wave,
    save_field,
)
from fsx.poisson import trace
from fsx.report import Report, canonical_json, report_digest, write_report
from fsx.suites import SuiteConfig, run_suite


@pytest.fixture(scope="module")
def lat():
    return make_lattice(2, 16)


class TestCorpus:
    def test_deterministic_digest(self, lat):
        a = generate_corpus(42, "random_bandlimited", 10, lat)
        b = generate_corpus(42, "random_bandlimited", 10, lat)
        assert a.digest() == b.digest()

    def test_different_seeds_differ(self, lat):
        a = generate_corpus(42, "random_bandlimited", 5, lat)
        b = generate_corpus(43, "random_bandlimited", 5, lat)
        assert a.digest() != b.digest()

    def test_unknown_kind_refused(self, lat):
        with pytest.raises(InvalidParameter, match="kind"):
            generate_corpus(42, "plane_waves", 3, lat)

    def test_sine_strip_traces_vanish(self, lat):
        c = generate_corpus(7, "sine_strip", 5, lat)
        for u in c.fields:
            assert trace(u).peak() < 1e-14 * u.peak()

    def test_boundary_bump_leakage(self):
        # the 1e-8 far-face budget needs the default bandlimit; below ~K=20
        # the uncertainty tradeoff makes it unattainable
        from fsx.halfspace import make_half_field
        from grid_reference import half_peak

        c = generate_corpus(3, "boundary_bump", 3, make_lattice(2, 32))
        for u in c.fields:
            hf = make_half_field(u)
            assert hf.leakage <= 1e-8 * half_peak(hf)

    def test_decay_weights_drawn_once_per_lattice(self, lat):
        weights = _decay_weights(lat)
        assert _decay_weights(lat) is weights and not weights.flags.writeable
        warm = generate_corpus(42, "random_bandlimited", 3, lat).digest()
        _decay_weights.cache_clear()
        assert generate_corpus(42, "random_bandlimited", 3, lat).digest() == warm

    def test_invalid_inputs(self, lat):
        with pytest.raises(InvalidParameter):
            generate_corpus(1, "random_bandlimited", 0, lat)
        with pytest.raises(InvalidParameter):
            generate_corpus(1, "nope", 3, lat)


class TestReport:
    def _sample(self):
        rep = Report(suite="demo", params={"dim": 2, "seed": 1})
        rep.add_case("alpha", 0.5, 1.0, True, digest="abc")
        rep.add_case("beta", 2.0, 1.0, False)
        rep.constants["c1"] = math.pi
        rep.verifies.append("demo identity")
        rep.wall_time = 1.234
        return rep

    def test_passed_is_conjunction(self):
        rep = self._sample()
        assert not rep.passed
        rep.cases[1]["passed"] = True
        assert rep.passed

    def test_canonical_floats(self):
        text = canonical_json({"x": 1.0, "y": [2.5, True, None]})
        assert '"x":1.000000000000e+00' in text
        assert '"y":[2.500000000000e+00,true,null]' in text

    def test_sorted_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_digest_masks_timing(self):
        rep = self._sample()
        d1 = report_digest(rep)
        rep.wall_time = 99.0
        assert report_digest(rep) == d1

    def test_roundoff_cases_listed_outside_the_digest(self):
        rep, flagged = self._sample(), self._sample()
        rep.add_case("gamma", 2e-16, 1e-12)
        flagged.add_case("gamma", 2e-16, 1e-12, roundoff=True)
        assert (rep.roundoff_cases, flagged.roundoff_cases) == ([], ["gamma"])
        assert flagged.to_dict()["roundoff_cases"] == ["gamma"]
        assert report_digest(flagged) == report_digest(rep)

    def test_suites_flag_their_roundoff_cases(self):
        rep = run_suite("plancherel", SuiteConfig(bandlimit=8, corpus_size=2))
        s_list = SuiteConfig().s_list
        assert rep.roundoff_cases == [f"{name}_s{s:g}" for s in s_list
                                      for name in ("plancherel", "gradient_identity")]

    def test_write_read_roundtrip(self, tmp_path):
        rep = self._sample()
        path = str(tmp_path / "r.json")
        write_report(rep, path)
        data = json.loads(Path(path).read_text())
        assert data["suite"] == "demo"
        assert data["passed"] is False
        assert len(data["cases"]) == 2

    def test_nonfinite_floats_serializable(self):
        text = canonical_json({"v": math.inf, "w": float("nan")})
        assert '"inf"' in text and '"nan"' in text


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("nope", SuiteConfig())

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            SuiteConfig(corpus_size=0)

    @pytest.mark.parametrize("kw", [{"p_list": (0.5, 2.0)}, {"p_list": (math.nan,)},
                                    {"s_list": (0.0, math.nan)}, {"s_list": (math.inf,)}])
    def test_bad_exponents_refused(self, kw):
        with pytest.raises(ConfigError):
            SuiteConfig(**kw)

    def test_infinite_p_accepted(self):
        SuiteConfig(p_list=(1.0, math.inf))

    @pytest.mark.parametrize("dim, bandlimit", [(4, 32), (3, 64), (2, 1025), (10**6, 8)])
    def test_oversized_grid_refused_without_allocating(self, dim, bandlimit):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="GiB"):
                SuiteConfig(dim=dim, bandlimit=bandlimit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("dim, bandlimit", [(2, 32), (3, 8), (3, 32), (2, 1024)])
    def test_grids_within_budget_accepted(self, dim, bandlimit):
        # (2, 1024) needs an 8192^2 grid of 16-byte samples: exactly the budget
        SuiteConfig(dim=dim, bandlimit=bandlimit)

    def test_deterministic_reports(self):
        cfg = SuiteConfig(bandlimit=16, corpus_size=3)
        r1 = run_suite("lp_partition", cfg)
        r2 = run_suite("lp_partition", cfg)
        assert report_digest(r1) == report_digest(r2)

    def test_suite_metadata(self):
        cfg = SuiteConfig(bandlimit=16, corpus_size=3)
        rep = run_suite("scaling", cfg)
        assert rep.verifies  # every suite declares what it checks
        assert rep.params == {"dim": 2, "bandlimit": 16, "seed": 42, "period": 2.0 * math.pi,
                              "corpus_size": 3, "p_list": cfg.p_list, "s_list": cfg.s_list}


class TestCli:
    def test_parse_lambda(self):
        assert parse_lambda("10@0.5pi") == pytest.approx(10j, abs=1e-12)
        assert parse_lambda("2@0") == pytest.approx(2.0)
        assert parse_lambda("1+2j") == 1 + 2j

    def test_norm_command(self, tmp_path, capsys):
        lat = make_lattice(2, 8)
        u = field_from_modes(lat, {(1, 1): 1.0})
        path = str(tmp_path / "u.json")
        save_field(u, path)
        rc = cli_main(["norm", "--input", path, "--space", "Lp:p=2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "6.283185307180e+00" in out

    def test_verify_command_writes_report(self, tmp_path, capsys):
        out = str(tmp_path / "rep.json")
        rc = cli_main(
            ["verify", "--suite", "scaling", "--bandlimit", "16", "--out", out]
        )
        assert rc == 0
        data = json.loads(Path(out).read_text())
        assert data["suite"] == "scaling"
        assert data["passed"] is True

    def test_solve_roundtrip(self, tmp_path):
        lat = make_lattice(2, 8)
        f = field_from_modes(lat, {(1, 1): 1 / 2j, (1, -1): -1 / 2j})
        fpath = str(tmp_path / "f.json")
        save_field(f, fpath)
        out = str(tmp_path / "u.json")
        rc = cli_main(
            [
                "solve",
                "--problem",
                "dirichlet-resolvent",
                "--lambda",
                "1@0",
                "--f",
                fpath,
                "--out",
                out,
            ]
        )
        assert rc == 0
        u = load_field(out)
        # eigenmode: (1 - Lap)^{-1} divides by 1 + 2
        assert np.max(np.abs(u.coef - f.coef / 3.0)) < 1e-12
        meta = json.load(open(out))
        assert meta["halfspace"] is True

    def test_nonfinite_shift_refused(self, tmp_path, capsys):
        fpath = str(tmp_path / "f.json")
        save_field(field_from_modes(make_lattice(2, 8), {(1, 1): 1 / 2j, (1, -1): -1 / 2j}), fpath)
        out = tmp_path / "u.json"
        rc = cli_main(["solve", "--problem", "dirichlet-resolvent", "--lambda", "nan",
                       "--f", fpath, "--out", str(out)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_defaults_are_the_suite_config(self, tmp_path, capsys):
        out = str(tmp_path / "rep.json")
        assert cli_main(["verify", "--suite", "scaling", "--out", out]) == 0
        want = json.loads(canonical_json(asdict(SuiteConfig())))
        assert json.loads(Path(out).read_text())["params"] == want

    def test_error_exit_code(self, tmp_path, capsys):
        rc = cli_main(["norm", "--input", str(tmp_path / "missing.json"),
                       "--space", "Lp:p=2"])
        assert rc == 2

    @pytest.mark.parametrize(
        "data",
        [
            {"n": 2, "K": 4, "L": math.inf, "modes": [[1, 0, 1.0, 0.0]]},
            {"n": 2, "K": 4, "L": 2 * math.pi, "modes": [[1, 0, math.nan, 0.0]]},
        ],
    )
    def test_nonfinite_field_file_refused(self, tmp_path, capsys, data):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))  # json writes Infinity / NaN literals
        rc = cli_main(["norm", "--input", str(path), "--space", "Lp:p=2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "finite" in err
        assert "zero-mean" not in err

    @pytest.mark.parametrize("key, value", [("K", 4.7), ("n", 2.9)])
    def test_non_integral_lattice_refused(self, tmp_path, capsys, key, value):
        data = {"n": 2, "K": 4, "L": 2 * math.pi, "modes": [[1, 0, 1.0, 0.0]]}
        data[key] = value
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        rc = cli_main(["norm", "--input", str(path), "--space", "Lp:p=2"])
        assert rc == 2
        assert "integer" in capsys.readouterr().err

    def test_oversized_lattice_refused_before_allocating(self, tmp_path, capsys, monkeypatch):
        def no_allocation(lat):
            raise AssertionError(f"allocated a field on {lat}")

        monkeypatch.setattr(fsx.lattice, "zero_field", no_allocation)
        data = {"n": 2, "K": 1000000000, "L": 2 * math.pi, "modes": [[1, 0, 1.0, 0.0]]}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        rc = cli_main(["norm", "--input", str(path), "--space", "Lp:p=2"])
        assert rc == 2
        assert "modes" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--problem", "dirichlet-resolvent", "--lambda", "abc"],
                                       ["--problem", "neumann-bvp", "--lambda", "2@x"]])
    def test_malformed_lambda_is_one_error_line(self, tmp_path, capsys, flags):
        fpath = str(tmp_path / "f.json")
        save_field(field_from_modes(make_lattice(2, 4), {(1, 1): 1.0}), fpath)
        out = tmp_path / "u.json"
        assert cli_main(["solve", *flags, "--f", fpath, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "lambda" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("space", ["Hdot:s=abc", "Lp:p=two"])
    def test_malformed_space_is_one_error_line(self, tmp_path, capsys, space):
        path = str(tmp_path / "u.json")
        save_field(field_from_modes(make_lattice(2, 4), {(1, 1): 1.0}), path)
        assert cli_main(["norm", "--input", path, "--space", space]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "not a number" in err[0]

    def test_norm_domains_are_the_norms_domains(self, tmp_path, capsys):
        path = str(tmp_path / "u.json")
        save_field(field_from_modes(make_lattice(2, 4), {(1, 1): 1.0}), path)
        for domain in fsx.norms.DOMAINS:
            assert cli_main(["norm", "--input", path, "--space", "Lp:p=2",
                             "--domain", domain]) == 0
        with pytest.raises(SystemExit) as exc:
            cli_main(["norm", "--input", path, "--space", "Lp:p=2", "--domain", "halfspace_zero"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_nan_regularity_refused(self, tmp_path, capsys):
        lat = make_lattice(2, 8)
        path = str(tmp_path / "u.json")
        save_field(field_from_modes(lat, {(1, 1): 1.0}), path)
        rc = cli_main(["norm", "--input", path, "--space", "Hdot:s=nan,p=2"])
        assert rc == 2

    @pytest.mark.parametrize("flag", [["--p", "0.5,2"], ["--s", "nan"],
                                      ["--dim", "4", "--bandlimit", "32"]])
    def test_bad_verify_config_refused_before_any_suite(self, tmp_path, capsys, flag):
        out = tmp_path / "rep.json"
        rc = cli_main(["verify", "--suite", "all", "--bandlimit", "8", "--size", "2",
                       *flag, "--out", str(out)])
        assert rc == 2
        assert "pass" not in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize("suite", ["reflection", "bvp"])
    def test_half_space_suites_run_in_dim3(self, tmp_path, capsys, suite):
        out = str(tmp_path / "rep.json")
        rc = cli_main(["verify", "--suite", suite, "--dim", "3", "--bandlimit", "8",
                       "--size", "1", "--out", out])
        assert rc in (0, 1)
        assert json.loads(Path(out).read_text())["params"]["dim"] == 3

    def test_all_report_carries_the_full_config(self, tmp_path):
        out = str(tmp_path / "rep.json")
        cli_main(["verify", "--suite", "all", "--bandlimit", "8", "--size", "1",
                  "--p", "2,4", "--s", "0.5", "--out", out])
        params = json.loads(Path(out).read_text())["params"]
        assert params["p_list"] == [2.0, 4.0] and params["s_list"] == [0.5]
        assert params["period"] == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert (params["dim"], params["bandlimit"], params["corpus_size"]) == (2, 8, 1)

    def test_all_report_nests_every_suite_report(self, tmp_path, capsys):
        out = str(tmp_path / "rep.json")
        rc = cli_main(["verify", "--suite", "all", "--bandlimit", "8", "--size", "1", "--out", out])
        data = json.loads(Path(out).read_text())
        nested = data["reports"]
        assert [r["suite"] for r in nested] == list(fsx.suites.SUITES)
        assert all(r["params"] == data["params"] and r["cases"] for r in nested)
        assert data["passed"] == all(r["passed"] for r in nested) == (rc == 0)
        assert data["wall_time"] == pytest.approx(sum(r["wall_time"] for r in nested))
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == [f"{r['suite']}: {'pass' if r['passed'] else 'FAIL'}" for r in nested]


def test_every_cache_is_emptied_by_the_benchmark(monkeypatch):
    """Every lru_cache of fsx is reachable from the modules whose caches the
    benchmark's desk_verify empties before each round, so no round of it
    runs warm."""
    bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
    monkeypatch.syspath_prepend(bench)
    desk = importlib.import_module("workloads").DeskVerify(0)
    desk.load()
    emptied = {id(clear.__self__) for clear in desk.caches}
    caches = {
        f"{mod.name}.{name}"
        for mod in pkgutil.iter_modules(fsx.__path__)
        for name, obj in inspect.getmembers(importlib.import_module(f"fsx.{mod.name}"))
        if hasattr(obj, "cache_clear") and obj.__module__ == f"fsx.{mod.name}"
        and id(obj) not in emptied
    }
    assert not caches, f"caches the benchmark leaves warm: {sorted(caches)}"


def test_benchmark_sweep_empties_the_witness_operators(monkeypatch):
    """desk_verify's sweep (the module-level objects of fsx modules that have
    cache_clear) reaches the reflections' operators, the restriction norm's
    five witnesses among them, so each round builds them cold, as a CLI call
    does."""
    bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
    monkeypatch.syspath_prepend(bench)
    desk = importlib.import_module("workloads").DeskVerify(0)
    desk.load()
    operator = fsx.halfspace._operator
    assert id(operator) in {id(clear.__self__) for clear in desk.caches}
    for key in fsx.halfspace.WITNESSES.values():
        operator(make_lattice(2, 4), *key)
    for clear in desk.caches:
        clear()
    assert operator.cache_info().currsize == 0


@pytest.mark.parametrize("cache, args", [
    ("halfspace._operator", (make_lattice(2, 4), (-1.0,), False)),
    ("halfspace._zero_operator", (make_lattice(2, 4), 1)),
    ("norms._strip_factor", (4, 32)),
])
def test_benchmark_sweep_empties_the_column_caches(monkeypatch, cache, args):
    """desk_verify's sweep reaches the reflections' kept rows and factors,
    the parities' among them, the zero projection's kept rows and the strip's
    factors, so each round builds them cold, as a CLI call does."""
    bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
    monkeypatch.syspath_prepend(bench)
    desk = importlib.import_module("workloads").DeskVerify(0)
    desk.load()
    mod, name = cache.split(".")
    cached = getattr(importlib.import_module(f"fsx.{mod}"), name)
    assert id(cached) in {id(clear.__self__) for clear in desk.caches}
    cached(*args)
    for clear in desk.caches:
        clear()
    assert cached.cache_info().currsize == 0


CACHE_DECORATORS = ("lru_cache", "cache")


def nested_caches(source: str) -> list[str]:
    """Functions under an lru_cache (or functools.cache) decorator that are
    not defined at module level: methods and nested functions."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or id(node) in top:
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name in CACHE_DECORATORS:
                found.append(f"{node.name} (line {node.lineno})")
    return found


def test_nested_caches_finds_methods_and_closures():
    source = (
        "import functools\n"
        "@functools.lru_cache(maxsize=2)\ndef top(x): return x\n"
        "class A:\n    @functools.lru_cache\n    def method(self): return 1\n"
        "def outer():\n    @lru_cache(maxsize=None)\n    def inner(): return 2\n    return inner\n"
    )
    assert nested_caches(source) == ["method (line 6)", "inner (line 9)"]


def test_every_cache_is_at_module_level():
    """Only module-level caches are among the module attributes that the
    benchmark's desk_verify sweeps with cache_clear before each round, so
    that each round starts cold, as a CLI call does; a cache on a method or a
    nested function would stay warm."""
    found = {}
    for path in sorted(glob.glob(os.path.join(os.path.dirname(fsx.__file__), "*.py"))):
        with open(path) as fh:
            nested = nested_caches(fh.read())
        if nested:
            found[os.path.basename(path)] = nested
    assert not found, f"caches below module level: {found}"


def test_benchmark_traces_every_grid_transform(monkeypatch):
    """The benchmark times FFTs by wrapping np.fft.fftn and np.fft.ifftn, so
    grid_slabs runs its passes through np.fft.ifftn, one per axis, and never
    through np.fft.ifft, which the benchmark does not see."""
    bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
    monkeypatch.syspath_prepend(bench)
    assert importlib.import_module("spans").NUMPY_SPANS["numpy.fft.ifftn"] == (np.fft, "ifftn")
    calls = []
    ifftn = np.fft.ifftn

    def counted(*args, **kwargs):
        calls.append(kwargs.get("axes"))
        return ifftn(*args, **kwargs)

    def untraced(*args, **kwargs):
        raise AssertionError("np.fft.ifft is not traced by the benchmark")

    monkeypatch.setattr(np.fft, "ifftn", counted)
    monkeypatch.setattr(np.fft, "ifft", untraced)
    for n in (1, 2, 3):
        calls.clear()
        list(grid_slabs(plane_wave(make_lattice(n, 3), (1,) * n), 8))
        assert sorted(calls) == [(a,) for a in range(n)]


def test_benchmark_times_every_registered_suite(monkeypatch):
    """The benchmark times `suites.suite_<name>` and finds each suite's entry
    in SUITES by object identity, and runs its desk suites in registry order."""
    bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
    monkeypatch.syspath_prepend(bench)
    desk = importlib.import_module("workloads").DESK_SUITES
    for name, fn in fsx.suites.SUITES.items():
        assert fn is getattr(fsx.suites, f"suite_{name}"), name
    registry = list(fsx.suites.SUITES)
    assert set(desk) <= set(registry)
    assert sorted(desk, key=registry.index) == list(desk)


@pytest.mark.parametrize("name, ops", [("halfspace_solves", 120), ("norm_queries", 114)])
def test_benchmark_stream_round_fails_no_operation(monkeypatch, name, ops):
    """One checked round of a stream workload at the benchmark's default seed,
    after its set-up: every operation returns and passes its check against
    bench/reference.py, so an fsx name or parameter the benchmark calls cannot
    be deleted unnoticed."""
    bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
    monkeypatch.syspath_prepend(bench)
    workload = importlib.import_module("workloads").WORKLOADS[name](42)
    workload.load()
    workload.prepare()
    outcomes = workload.round(None).outcomes
    assert len(outcomes) == ops
    assert [o.name for o in outcomes if o.failed] == []
