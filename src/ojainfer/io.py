"""File formats and run provenance.

One interchange format: rectangular numeric CSV for datasets and record
streams, JSON for structured reports. Floats are written with 17 significant
digits so every value round-trips exactly; a rerun with an equal manifest
therefore reproduces numeric outputs byte for byte (timestamps live only in
the manifest).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import Dataset


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            return str(float(value))
        return format(float(value), ".17g")
    if value is None:
        return ""
    return str(value)


def read_csv(path, center: bool = False) -> Dataset:
    """Load a rectangular numeric CSV as a Dataset (provenance "file").

    A header row is detected automatically: if any cell of the first row is
    not parseable as a number, the row is skipped. Ragged rows, non-numeric
    cells past the header (a ``#`` row included), and files without a numeric
    row are rejected; blank lines are ignored. With ``center=True`` every
    column is shifted to mean zero, matching the estimators' mean-zero data
    model.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        first = next(rows, [])
        try:
            list(map(float, first))
            skip = 0
        except ValueError:
            skip = 1
        # loadtxt would only warn on a file without a data row.
        if (skip or not first) and not any(rows):
            raise ValueError(f"{path}: no numeric rows found")
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64, skiprows=skip,
                         comments=None, quotechar='"', encoding="utf-8")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if center:
        arr -= arr.mean(axis=0, keepdims=True)
    return Dataset(arr, provenance="file")


def write_csv(data: Dataset, path) -> None:
    """Write a Dataset as headerless numeric CSV, exact round trip."""
    np.savetxt(path, data.samples, fmt="%.17g", delimiter=",")


def _record_dict(record) -> dict:
    if isinstance(record, dict):
        return record
    return {f.name: getattr(record, f.name) for f in fields(record)}


def write_results(records, path, fieldnames: list[str] | None = None) -> None:
    """Persist a record stream as CSV with a fixed column order.

    ``records`` may be dicts or dataclass instances. Column order comes from
    ``fieldnames`` when given, else from the first record. An empty stream
    produces a header-only CSV (fieldnames required then).
    """
    rows = [_record_dict(r) for r in records]
    if fieldnames is None:
        if not rows:
            raise ValueError("empty record stream needs explicit fieldnames for CSV")
        fieldnames = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(name)) for name in fieldnames])


def read_results_csv(path) -> list[dict]:
    """Parse a record CSV back into dicts (numbers where possible)."""
    out: list[dict] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            parsed = {}
            for key, val in row.items():
                if val == "":
                    parsed[key] = None
                    continue
                try:
                    num = float(val)
                    parsed[key] = int(num) if num.is_integer() and "." not in val and "e" not in val.lower() else num
                except ValueError:
                    parsed[key] = val
            out.append(parsed)
    return out


def content_hash_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def content_hash_config(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()


@dataclass
class RunManifest:
    """Provenance sidecar written next to every output file."""

    subcommand: str
    config: dict
    seed: int
    content_hash: str
    started_at: str = ""
    finished_at: str = ""
    version: str = __version__

    def start(self) -> "RunManifest":
        self.started_at = datetime.now(timezone.utc).isoformat()
        return self

    def finish(self) -> "RunManifest":
        self.finished_at = datetime.now(timezone.utc).isoformat()
        return self

    def write_beside(self, out_path) -> Path:
        target = Path(str(out_path) + ".manifest.json")
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        target.write_text(json.dumps(payload, indent=2, default=str) + "\n", encoding="utf-8")
        return target
