"""Dump every suite's report values at four configs, and diff two dumps.

    PYTHONPATH=src python tests/report_values.py OUT.json [--against OLD.json]

At each config (dim, bandlimit, corpus size, seed) of CONFIGS, every suite
whose floor the config meets is run once.  OUT.json records, per config and
suite, the report_digest, the repr of every case value and the repr of every
constant: repr keeps every bit of a float, where the report's %.12e does not.
With --against, every entry that differs from OLD.json's, or is in one dump
only, is listed, and the exit status is 1 if there is any.  A change that
claims to leave every report unchanged runs this at its parent and at itself.
"""

from __future__ import annotations

import argparse
import json
import sys

from fsx.report import report_digest
from fsx.suites import FLOORS, SUITES, SuiteConfig, run_suite

CONFIGS = ((2, 32, 8, 42), (3, 8, 8, 42), (2, 16, 3, 7), (2, 32, 3, 42))


def dump(configs=CONFIGS) -> dict:
    """{"dim,K,corpus,seed/suite": {"digest", "cases", "constants"}} over configs."""
    out = {}
    for dim, K, size, seed in configs:
        cfg = SuiteConfig(dim=dim, bandlimit=K, corpus_size=size, seed=seed)
        for name in SUITES:
            if dim < FLOORS[name][0] or K < FLOORS[name][1]:
                continue
            rep = run_suite(name, cfg)
            out[f"{dim},{K},{size},{seed}/{name}"] = {
                "digest": report_digest(rep),
                "cases": [[c["case"], repr(c["value"])] for c in rep.cases],
                "constants": {key: repr(value) for key, value in sorted(rep.constants.items())},
            }
    return out


def differences(new: dict, old: dict) -> list[str]:
    """One line per entry of either dump that the other does not match."""
    lines = []
    for key in sorted(set(new) | set(old)):
        if key not in old or key not in new:
            lines.append(f"{key}: only in the {'new' if key in new else 'old'} dump")
            continue
        a, b = old[key], new[key]
        if a["digest"] != b["digest"]:
            lines.append(f"{key}: digest {a['digest'][:12]} -> {b['digest'][:12]}")
        if [case for case, _v in a["cases"]] != [case for case, _v in b["cases"]]:
            lines.append(f"{key}: case list")
        else:
            lines += [f"{key}.{case}: {va} -> {vb}"
                      for (case, va), (_c, vb) in zip(a["cases"], b["cases"]) if va != vb]
        for name in sorted(set(a["constants"]) | set(b["constants"])):
            va, vb = a["constants"].get(name), b["constants"].get(name)
            if va != vb:
                lines.append(f"{key}.{name}: {va} -> {vb}")
    return lines


def main(argv=None, configs=CONFIGS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", help="where to write the dump (JSON)")
    parser.add_argument("--against", help="an earlier dump to list the differences from")
    args = parser.parse_args(argv)
    new = dump(configs)
    with open(args.out, "w") as fh:
        json.dump(new, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.against is None:
        return 0
    with open(args.against) as fh:
        lines = differences(new, json.load(fh))
    print("\n".join(lines) if lines else f"no difference in {len(new)} reports")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
