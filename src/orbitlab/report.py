"""Verification report records and serialization."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Optional

PASS = "pass"
FAIL = "fail"
INFO = "informational"

REL_SLACK = 1e-9  # relative slack of an asserted measured <= bound


@dataclass
class Entry:
    claim_id: str
    description: str
    bound: Optional[float]
    measured: Optional[float]
    status: str
    details: dict = field(default_factory=dict)
    runtime: float = 0.0

    @property
    def margin(self) -> Optional[float]:
        if self.bound is None or self.measured is None:
            return None
        return self.bound - self.measured


def check(claim_id: str, description: str, measured: Optional[float],
          bound: Optional[float], asserted: bool, details: Optional[dict] = None
          ) -> Entry:
    """Build an entry; `asserted` decides pass/fail vs informational."""
    details = dict(details or {})
    if bound is None or measured is None or not asserted:
        status = INFO
    else:
        status = PASS if measured <= bound * (1 + REL_SLACK) + 1e-300 else FAIL
    return Entry(claim_id, description, bound, measured, status, details)


class VerificationReport:
    def __init__(self, entries=()):
        self.entries: list[Entry] = list(entries)

    def add(self, entry: Entry) -> Entry:
        self.entries.append(entry)
        return entry

    def extend(self, entries) -> None:
        self.entries.extend(entries)

    def sorted_entries(self) -> list[Entry]:
        return sorted(self.entries, key=lambda e: e.claim_id)

    @property
    def ok(self) -> bool:
        return all(e.status != FAIL for e in self.entries)

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, INFO: 0}
        for e in self.entries:
            out[e.status] += 1
        return out

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["claim_id", "description", "bound", "measured",
                        "margin", "status", "runtime_s"])
            for e in self.sorted_entries():
                w.writerow([
                    e.claim_id, e.description,
                    "" if e.bound is None else repr(e.bound),
                    "" if e.measured is None else repr(e.measured),
                    "" if e.margin is None else repr(e.margin),
                    e.status, f"{e.runtime:.3f}",
                ])

    def to_json(self, path) -> None:
        payload = [
            {
                "claim_id": e.claim_id,
                "description": e.description,
                "bound": e.bound,
                "measured": e.measured,
                "margin": e.margin,
                "status": e.status,
                "details": _jsonable(e.details),
                "runtime_s": round(e.runtime, 3),
            }
            for e in self.sorted_entries()
        ]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def summary_lines(self) -> list[str]:
        lines = []
        for e in self.sorted_entries():
            parts = [f"{e.status.upper():13s}", e.claim_id]
            if e.measured is not None:
                parts.append(f"measured={e.measured:.6g}")
            if e.bound is not None:
                parts.append(f"bound={e.bound:.6g}")
            lines.append("  ".join(parts))
        c = self.counts()
        lines.append(
            f"total: {len(self.entries)}  pass={c[PASS]}  fail={c[FAIL]}  info={c[INFO]}"
        )
        return lines


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return repr(obj)

