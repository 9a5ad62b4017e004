"""Command-line interface.

Subcommands:

- verify: run one or all verification suites and write a canonical report
- norm:   evaluate a function-space norm of a field file
- solve:  run a half-space resolvent or boundary-value problem
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys

from .errors import ConfigError, FsxError, InvalidParameter
from .halfspace import HalfField
from .lattice import load_field, save_field
from .norms import DOMAINS, parse_space_spec, space_norm
from .report import nest_reports, write_report
from .solvers import (
    DIRICHLET,
    NEUMANN,
    bvp_dirichlet,
    bvp_neumann,
    resolvent_halfspace,
)
from .suites import SUITES, SuiteConfig, require_floors, run_suite


def parse_lambda(text: str) -> complex:
    """Parse "10@0.33pi" (modulus at phase) or a plain complex literal."""
    try:
        if "@" in text:
            mod_str, _, phase_str = text.partition("@")
            phase_str = phase_str.strip().lower()
            if phase_str.endswith("pi"):
                phase = float(phase_str[:-2] or "1") * math.pi
            else:
                phase = float(phase_str)
            return float(mod_str) * cmath.exp(1j * phase)
        return complex(text)
    except ValueError:
        raise InvalidParameter(f"cannot read lambda {text!r}") from None


def _parse_floats(text: str) -> tuple:
    out = []
    for item in text.split(","):
        item = item.strip().lower()
        out.append(math.inf if item == "inf" else float(item))
    return tuple(out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fsx")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", default="all", help="suite name or 'all'")
    v.add_argument("--dim", type=int, default=SuiteConfig.dim)
    v.add_argument("--bandlimit", type=int, default=SuiteConfig.bandlimit)
    v.add_argument("--seed", type=int, default=SuiteConfig.seed)
    v.add_argument("--size", type=int, default=SuiteConfig.corpus_size, help="corpus size")
    v.add_argument("--p", type=_parse_floats, default=SuiteConfig.p_list,
                   help="integrability exponents, comma-separated")
    v.add_argument("--s", type=_parse_floats, default=SuiteConfig.s_list,
                   help="regularity exponents, comma-separated")
    v.add_argument("--out", default="report.json")

    n = sub.add_parser("norm", help="evaluate a norm of a field file")
    n.add_argument("--input", required=True)
    n.add_argument("--space", required=True, help='e.g. "Hdot:s=0.5,p=2"')
    n.add_argument("--domain", default="whole", choices=DOMAINS)

    s = sub.add_parser("solve", help="solve a half-space problem")
    s.add_argument(
        "--problem",
        required=True,
        choices=[
            "dirichlet-resolvent",
            "neumann-resolvent",
            "dirichlet-bvp",
            "neumann-bvp",
        ],
    )
    s.add_argument("--lambda", dest="lam", default="1", help='e.g. "10@0.33pi"')
    s.add_argument("--f", dest="f_path", default=None, help="source field file")
    s.add_argument("--g", dest="g_path", default=None, help="boundary data file")
    s.add_argument("--out", required=True)
    return parser


def _cmd_verify(args) -> int:
    cfg = SuiteConfig(
        dim=args.dim,
        bandlimit=args.bandlimit,
        seed=args.seed,
        corpus_size=args.size,
        p_list=args.p,
        s_list=args.s,
    )
    names = list(SUITES) if args.suite == "all" else [args.suite]
    require_floors(names, cfg)  # refuse before any suite runs
    reports = []
    for name in names:
        reports.append(run_suite(name, cfg))
        print(f"{name}: {'pass' if reports[-1].passed else 'FAIL'}")
    write_report(reports[0] if len(reports) == 1 else nest_reports(reports), args.out)
    print(f"report written to {args.out}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_norm(args) -> int:
    u = load_field(args.input)
    spec = parse_space_spec(args.space, domain=args.domain)
    value = space_norm(u, spec)
    print(f"{spec.label()} [{spec.domain}] = {value:.12e}")
    return 0


def _cmd_solve(args) -> int:
    lam = parse_lambda(args.lam)
    f = load_field(args.f_path) if args.f_path else None
    g = load_field(args.g_path) if args.g_path else None
    if args.problem.endswith("resolvent"):
        if f is None:
            raise ConfigError("resolvent problems need --f")
        bc = DIRICHLET if args.problem.startswith("dirichlet") else NEUMANN
        u, residual = resolvent_halfspace(HalfField(f), lam, bc)
        extra = {"reflection_residual": residual}
    else:
        solver = bvp_dirichlet if args.problem.startswith("dirichlet") else bvp_neumann
        sol = solver(HalfField(f) if f is not None else None, g)
        u, residual = sol.materialize()
        extra = {"materialization_residual": residual, "interior_residual": sol.interior_residual(),
                 "boundary_mismatch": sol.boundary_mismatch()}
    save_field(u.field, args.out, extra={"halfspace": True, "leakage": u.leakage, **extra})
    print(f"solution written to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "norm":
            return _cmd_norm(args)
        return _cmd_solve(args)
    except FsxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
