"""File formats and run manifests.

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
import os
import warnings
from dataclasses import dataclass, fields, is_dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .core import Dataset
from .workers import forked, usable_cpus


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


# The one set of loadtxt options: the whole file and every byte range parse alike.
_LOADTXT = dict(delimiter=",", ndmin=2, dtype=np.float64, comments=None, quotechar='"',
                encoding="utf-8")
# A file of at least this many bytes is parsed in line-aligned byte ranges,
# one per usable CPU, the ranges after the first in forked children.
_PIECE_BYTES = 8 << 20


def read_csv(path, center: bool = False) -> Dataset:
    """Load a rectangular numeric CSV as a Dataset.

    A header row is detected automatically: if any cell of the first row is
    not parseable as a number, the row is skipped. Ragged rows, non-numeric
    cells past the header (a ``#`` row included), and files without a numeric
    row are rejected; blank lines are ignored. With ``center=True`` every
    column is shifted to mean zero, matching the estimators' mean-zero data
    model. Large files are parsed in pieces on several CPUs (``_read_pieces``);
    the array is the whole-file parse's, bit for bit.
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
    arr = _read_pieces(path, skip)
    if arr is None:
        try:
            arr = np.loadtxt(path, skiprows=skip, **_LOADTXT)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if center:
        arr -= arr.mean(axis=0, keepdims=True)
    return Dataset(arr)


def _read_pieces(path, skip: int) -> np.ndarray | None:
    """Parse the file as byte ranges cut at line starts, or return None.

    Range 0 is parsed here, each other range in a :func:`forked` child that
    sends its (rows, cols) and raw float64 bytes down a pipe; they land in
    slices of one (n, d) array, so no pickled copy adds to the peak. None
    (parse the whole file instead) for a file under ``_PIECE_BYTES``, no
    ``fork``, a cut at EOF, a child that fails to fork or exits non-zero, a
    range that fails to parse or ends inside a quoted field, or ranges whose
    column counts differ. So every error message comes from the whole-file
    parse, with its row numbers. No child outlives the call.
    """
    size = os.path.getsize(path)
    pieces = min(usable_cpus(), size // _PIECE_BYTES)
    if pieces < 2 or not hasattr(os, "fork"):
        return None
    cuts = [0]
    with open(path, "rb") as fh:
        for k in range(1, pieces):
            fh.seek(max(size * k // pieces, cuts[-1]))
            fh.readline()
            cuts.append(fh.tell())
    if cuts[-1] >= size:
        return None
    cuts.append(size)
    jobs = [partial(_send_range, path, cuts[k], cuts[k + 1]) for k in range(1, pieces)]
    with forked(jobs) as children:
        if None in children:
            return None
        try:
            head = _parse_range(path, 0, cuts[1], skip)
        except (ValueError, OSError):
            return None
        shapes = [head.shape]
        for child in children:
            shape = np.empty(2, dtype=np.int64)
            if not _fill(child.stream, shape):
                return None
            shapes.append(tuple(shape))
        # A range of blank lines parses to (0, 1); it adds no row in either parse.
        widths = {cols for rows, cols in shapes if rows}
        if len(widths) != 1:
            return None
        out = np.empty((sum(rows for rows, _ in shapes), widths.pop()))
        out[:len(head)] = head
        lo = len(head)
        del head
        for child, (rows, _) in zip(children, shapes[1:]):
            if not _fill(child.stream, out[lo:lo + rows]):
                return None
            lo += rows
        if not all(child.succeeded() for child in children):
            return None
        return out


def _parse_range(path, start: int, stop: int, skip: int) -> np.ndarray:
    """loadtxt over the lines in bytes [start, stop) of the file.

    A range holding an odd number of ``"`` ends inside a quoted field, which
    may go on past the cut, so it raises.
    """
    quotes = 0

    def lines():
        nonlocal quotes
        with open(path, "rb") as fh:
            fh.seek(start)
            pos = start
            for line in fh:
                if b'"' in line:  # a memchr scan; the count is slower
                    quotes += line.count(b'"')
                yield line
                pos += len(line)
                if pos >= stop:
                    return

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # "no data" from a range of blank lines
        arr = np.loadtxt(lines(), skiprows=skip, **_LOADTXT)
    if quotes % 2:
        raise ValueError("range ends inside a quoted field")
    return np.ascontiguousarray(arr)


def _send_range(path, start: int, stop: int, wfd: int) -> None:
    """Forked child's job: parse one range, write its shape and raw bytes to ``wfd``."""
    arr = _parse_range(path, start, stop, 0)
    with open(wfd, "wb") as out:
        out.write(np.array(arr.shape, dtype=np.int64).tobytes())
        out.write(arr.reshape(-1).view(np.uint8))


def _fill(src, arr: np.ndarray) -> bool:
    """readinto ``arr``'s bytes from ``src``; False if the stream ends first."""
    view = memoryview(arr.reshape(-1).view(np.uint8))  # arr is C-contiguous: a view
    while view:
        got = src.readinto(view)
        if not got:
            return False
        view = view[got:]
    return True


def write_csv(data: Dataset, path) -> None:
    """Write a Dataset as headerless numeric CSV, exact round trip."""
    np.savetxt(path, data.samples, fmt="%.17g", delimiter=",")


def _record_dict(record) -> dict:
    if isinstance(record, dict):
        return record
    return {f.name: getattr(record, f.name) for f in fields(record)}


def write_results(records, path) -> None:
    """Persist a non-empty record stream as CSV, columns in the first record's order.

    ``records`` may be dicts or dataclass instances.
    """
    rows = [_record_dict(r) for r in records]
    if not rows:
        raise ValueError("an empty record stream has no columns to write")
    fieldnames = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(name)) for name in fieldnames])


def _jsonable(value):
    """json's ``default=`` hook: arrays as lists, dataclasses as their fields in order, else str."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if is_dataclass(value):
        return _record_dict(value)
    return str(value)


def write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON; a result dataclass's fields are its keys."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=_jsonable)
        fh.write("\n")


def content_hash_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def content_hash_config(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, default=_jsonable).encode("utf-8")
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
        write_json(target, self)
        return target
