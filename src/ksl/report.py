"""Result records and bit-stable report rendering.

Every subcommand produces an ordered list of Record rows. A row is one
evaluation: one (n, q, k) tuple, one verification step, one sphere
measurement. JSON output nests nothing; keys are dotted paths assembled
from section and label, so the JSON and CSV views of a run share a single
naming scheme and diff cleanly against golden files. The timestamp lives
in a header field and is the only part of a report that two identical
runs are allowed to disagree on.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone


@dataclass(frozen=True)
class Record:
    """One result row. Empty label means the section has a single row."""

    section: str
    label: str = ""
    fields: dict = field(default_factory=dict)

    def key(self, name: str) -> str:
        if self.label:
            return f"{self.section}.{self.label}.{name}"
        return f"{self.section}.{name}"

    @property
    def failed(self) -> bool:
        return self.fields.get("status") == "fail"


@dataclass(frozen=True)
class Report:
    tool: str
    version: str
    timestamp: str
    config: dict
    payload: dict


def flatten(records: list[Record]) -> dict:
    """Dotted-path payload; duplicate keys are a caller bug, not a merge."""
    payload: dict = {}
    for rec in records:
        for name, value in rec.fields.items():
            key = rec.key(name)
            if key in payload:
                raise ValueError(f"duplicate report key: {key}")
            payload[key] = value
    return payload


def build_report(version: str, config: dict, records: list[Record]) -> Report:
    return Report(
        tool="ksl",
        version=version,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        config=dict(config),
        payload=flatten(records),
    )


def _body(report: Report) -> dict:
    """The JSON body: one key per Report field, so Report(**body) round-trips."""
    return {f.name: getattr(report, f.name) for f in fields(report)}


def payload_bytes(report: Report) -> bytes:
    """Canonical bytes for the determinism contract: everything but the timestamp."""
    body = _body(report)
    del body["timestamp"]
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def render_json(report: Report) -> str:
    # json.dumps renders floats via repr: shortest string that round-trips.
    return json.dumps(_body(report), sort_keys=True, indent=2) + "\n"


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    # floats round-trip, booleans lowercase, None becomes null: matches JSON
    return json.dumps(value)


def render_csv(records: list[Record]) -> str:
    """Flat table, one row per record, columns the union of field names."""
    names = sorted({name for rec in records for name in rec.fields})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["section", "label", *names])
    for rec in records:
        row = [rec.section, rec.label]
        row.extend(_cell(rec.fields[n]) if n in rec.fields else "" for n in names)
        writer.writerow(row)
    return buf.getvalue()
