"""Machine-readable verification reports.

A report is a list of typed rows (one per flow x check x grid x time
combination), an environment block, and an overall verdict recomputable from
the rows alone. Serialization is canonical (sorted keys, repr-exact floats),
and a determinism hash over everything except the environment block is
embedded so byte-level reproducibility across runs can be asserted by
hashing, not eyeballing.
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["ReportRow", "VerificationReport", "report_diff"]

CSV_COLUMNS = [
    "flow", "check", "anchor", "grid", "time", "linf", "l2", "location",
    "order", "tolerance", "passed",
]


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


@dataclass
class ReportRow:
    """One graded measurement.

    ``anchor`` names the identity being checked in the library's own
    vocabulary (stable across versions, greppable in the docs).
    """

    flow: str
    check: str
    anchor: str
    grid: str
    time: float
    linf: float
    l2: float = None
    location: tuple = None
    order: float = None
    tolerance: float = None
    passed: bool = None

    def finalize(self):
        if self.passed is None and self.tolerance is not None:
            self.passed = bool(self.linf <= self.tolerance)
        return self


@dataclass
class VerificationReport:
    rows: list
    config: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)

    def __post_init__(self):
        for r in self.rows:
            r.finalize()

    @property
    def overall_pass(self):
        return all(r.passed for r in self.rows if r.passed is not None)

    def core_payload(self):
        """Everything the determinism hash covers (no environment block)."""
        return {
            "config": _jsonable(self.config),
            "rows": [_jsonable(asdict(r)) for r in self.rows],
            "overall_pass": self.overall_pass,
        }

    def determinism_hash(self):
        blob = json.dumps(self.core_payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_dict(self):
        env = dict(self.environment)
        from . import __version__ as _pkg_version

        env.setdefault("flowmaplab", _pkg_version)
        env.setdefault("python", platform.python_version())
        env.setdefault("numpy", np.__version__)
        env.setdefault("float_precision", "float64")
        payload = self.core_payload()
        payload["environment"] = env
        payload["determinism_hash"] = self.determinism_hash()
        payload["schema_version"] = 1
        return payload

    def to_json(self, path=None):
        text = json.dumps(self.to_dict(), sort_keys=True, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for r in self.rows:
                d = _jsonable(asdict(r))
                d["location"] = "" if d["location"] is None else json.dumps(d["location"])
                writer.writerow({k: d.get(k, "") for k in CSV_COLUMNS})

    def failing_rows(self):
        return [r for r in self.rows if r.passed is False]

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            data = json.load(fh)
        rows = [ReportRow(**{k: (tuple(v) if k == "location" and v is not None else v)
                             for k, v in rd.items()}) for rd in data["rows"]]
        rep = cls(rows, config=data.get("config", {}), environment=data.get("environment", {}))
        rep._stored_hash = data.get("determinism_hash")
        return rep


def report_diff(path_a, path_b):
    """Human-readable comparison of two report files.

    Returns (identical: bool, text). Identity means equal determinism hashes;
    the text lists row-level numeric differences otherwise.
    """
    a = VerificationReport.from_file(path_a)
    b = VerificationReport.from_file(path_b)
    ha, hb = a.determinism_hash(), b.determinism_hash()
    if ha == hb:
        return True, f"reports identical (hash {ha[:16]}...)"
    lines = [f"hash A {ha}", f"hash B {hb}"]
    key = lambda r: (r.flow, r.check, r.grid, r.time)
    rows_a = {key(r): r for r in a.rows}
    rows_b = {key(r): r for r in b.rows}
    for k in sorted(set(rows_a) | set(rows_b)):
        ra, rb = rows_a.get(k), rows_b.get(k)
        if ra is None or rb is None:
            lines.append(f"only in {'B' if ra is None else 'A'}: {k}")
        elif (ra.linf, ra.passed, ra.order) != (rb.linf, rb.passed, rb.order):
            lines.append(
                f"{k}: linf {ra.linf!r} -> {rb.linf!r}, passed {ra.passed} -> {rb.passed}"
            )
    return False, "\n".join(lines)
