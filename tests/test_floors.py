"""Every config fsx verify accepts runs to a verdict or is refused up front.

A suite declares its floor, the least (dim, bandlimit) at which its premises
hold.  fsx verify checks the floor of every requested suite before any suite
runs, and refuses a config below one with a ConfigError that names the suite
and its floor: exit 2, no report written.  The config sweep runs the CLI in
a subprocess with a timeout, so a suite that never ends fails the test
instead of stalling the run.
"""

import json
import os
import subprocess
import sys

import pytest

import fsx
from fsx.cli import main as cli_main
from fsx.errors import ConfigError, FsxError, UnknownSuite
from fsx.suites import FLOORS, SUITES, SuiteConfig, require_floors, run_all, run_suite

SRC = os.path.dirname(os.path.dirname(fsx.__file__))

# the floors found by running each suite at dim 1-3 and bandlimit 1-4
DECLARED = {"reflection": (2, 2), "trace": (2, 3), "poisson": (2, 4), "bvp": (2, 2),
            "scaling": (1, 4)}


def test_every_suite_declares_its_floor():
    assert set(FLOORS) == set(SUITES)
    assert {name: floor for name, floor in FLOORS.items() if floor != (1, 1)} == DECLARED


@pytest.mark.parametrize("name", sorted(DECLARED))
def test_each_floor_is_where_the_premises_start_to_hold(name):
    """One step below the floor in dim or bandlimit, the suite's body raises;
    at the floor it runs to a verdict."""
    dim, K = DECLARED[name]
    below = [(dim, K - 1)] + ([(dim - 1, K)] if dim > 1 else [])
    for d, k in below:
        with pytest.raises(FsxError):
            SUITES[name](SuiteConfig(dim=d, bandlimit=k, corpus_size=1))
    rep = run_suite(name, SuiteConfig(dim=dim, bandlimit=K, corpus_size=1))
    assert rep.suite == name and rep.cases


def test_run_suite_and_run_all_refuse_below_the_floor():
    with pytest.raises(ConfigError, match="suite trace needs dim >= 2 and bandlimit >= 3"):
        run_suite("trace", SuiteConfig(bandlimit=2, corpus_size=1))
    with pytest.raises(ConfigError, match="suite poisson"):
        run_all(SuiteConfig(bandlimit=3, corpus_size=1))
    with pytest.raises(UnknownSuite):
        require_floors(["nope"], SuiteConfig())


@pytest.mark.parametrize("argv", [["--suite", "all", "--dim", "1", "--bandlimit", "8"],
                                  ["--suite", "trace", "--dim", "2", "--bandlimit", "2"]])
def test_cli_refuses_before_any_suite_runs(tmp_path, capsys, argv):
    out = tmp_path / "rep.json"
    assert cli_main(["verify", *argv, "--size", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "needs dim >=" in captured.err
    assert not out.exists()


SWEEP = [(dim, K) for dim in (1, 2, 3) for K in (1, 2, 4)]


def test_config_sweep_ends_with_a_verdict_or_a_floor_refusal(tmp_path):
    """fsx verify --suite all --size 1 at every dim in 1-3 and bandlimit in
    {1, 2, 4}: each run exits 0 or 1 with its report written, or exits 2 with
    the floor's ConfigError before any suite runs.  The runs go two at a time,
    each under a 60 s timeout."""
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

    def start(dim, K):
        out = tmp_path / f"rep_{dim}_{K}.json"
        cmd = [sys.executable, "-m", "fsx.cli", "verify", "--suite", "all", "--size", "1",
               "--dim", str(dim), "--bandlimit", str(K), "--out", str(out)]
        return out, subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)

    results = {}
    for i in range(0, len(SWEEP), 2):
        running = [(cfg, *start(*cfg)) for cfg in SWEEP[i : i + 2]]
        for cfg, out, proc in running:
            try:
                stdout, stderr = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                pytest.fail(f"fsx verify at (dim, bandlimit) = {cfg} ran past 60 s")
            results[cfg] = (proc.returncode, stdout, stderr, out)
    for cfg, (code, stdout, stderr, out) in results.items():
        if code == 2:
            assert "needs dim >=" in stderr and stdout == "" and not out.exists(), (cfg, stderr)
        else:
            assert code in (0, 1), (cfg, code, stderr)
            assert json.loads(out.read_text())["params"]["dim"] == cfg[0]
    # the suites' joint floor is (2, 4): only those configs run
    assert sorted(cfg for cfg, r in results.items() if r[0] != 2) == [(2, 4), (3, 4)]
