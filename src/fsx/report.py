"""Structured verification reports with canonical, diff-friendly serialization.

Floats are always rendered as %.12e and keys are sorted, so two runs with the
same seed produce byte-identical files except for the wall_time field; it and
roundoff_cases, the cases whose value is round-off itself, stay out of report_digest.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field as dc_field

from .errors import IoError

SCHEMA_VERSION = "1"


@dataclass
class Report:
    suite: str
    params: dict
    cases: list[dict] = dc_field(default_factory=list)
    constants: dict = dc_field(default_factory=dict)
    verifies: list[str] = dc_field(default_factory=list)
    wall_time: float = 0.0
    roundoff_cases: list[str] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(bool(c.get("passed", False)) for c in self.cases)

    def add_case(self, case_id: str, value: float, bound: float,
                 passed: bool | None = None, digest: str = "", roundoff: bool = False) -> None:
        """Record a case; it passes when value <= bound, unless passed says otherwise."""
        if roundoff:
            self.roundoff_cases.append(case_id)
        self.cases.append(
            {
                "case": case_id,
                "digest": digest,
                "value": value,
                "bound": bound,
                "passed": bool(value <= bound if passed is None else passed),
            }
        )

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self), "passed": self.passed}


def _canon(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        if math.isnan(value):
            return '"nan"'
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        return f"{value:.12e}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(f'{_canon(str(k))}:{_canon(v)}' for k, v in items) + "}"
    raise IoError(f"cannot serialize {type(value).__name__}")


def canonical_json(data: dict) -> str:
    return _canon(data)


def report_digest(r: Report) -> str:
    """Content digest with the timing field masked out and no round-off case list."""
    data = {key: value for key, value in r.to_dict().items() if key != "roundoff_cases"}
    data["wall_time"] = 0.0
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


def nest_reports(reports: list[Report]) -> dict:
    """Several suites' reports as one: each in full under "reports", with the
    shared params, whether every one passed and their total wall time on top."""
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "all",
        "params": reports[0].params,
        "reports": [r.to_dict() for r in reports],
        "passed": all(r.passed for r in reports),
        "wall_time": sum(r.wall_time for r in reports),
    }


def write_report(r: Report | dict, path: str) -> None:
    """Write a Report, or the dict of nest_reports, as canonical JSON."""
    try:
        with open(path, "w") as fh:
            fh.write(canonical_json(r if isinstance(r, dict) else r.to_dict()))
            fh.write("\n")
    except OSError as exc:
        raise IoError(str(exc)) from exc

