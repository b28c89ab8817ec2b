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
import os
import signal
import warnings
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


# The one set of loadtxt options: the whole file and every byte range parse alike.
_LOADTXT = dict(delimiter=",", ndmin=2, dtype=np.float64, comments=None, quotechar='"',
                encoding="utf-8")
# A file of at least this many bytes is parsed in line-aligned byte ranges,
# one per usable CPU, the ranges after the first in forked children.
_PIECE_BYTES = 8 << 20


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def read_csv(path, center: bool = False) -> Dataset:
    """Load a rectangular numeric CSV as a Dataset (provenance "file").

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
    return Dataset(arr, provenance="file")


def _read_pieces(path, skip: int) -> np.ndarray | None:
    """Parse the file as byte ranges cut at line starts, or return None.

    Range 0 is parsed here, each other range in a forked child that sends
    its (rows, cols) and raw float64 bytes down a pipe; they land in slices
    of one (n, d) array. None (parse the whole file instead) for a file under
    ``_PIECE_BYTES``, no ``fork``, a cut at EOF, a range that fails to parse
    or ends inside a quoted field, a child that exits non-zero, or ranges
    whose column counts differ. So every error message comes from the
    whole-file parse, with its row numbers. No child outlives the call.
    """
    size = os.path.getsize(path)
    pieces = min(_usable_cpus(), size // _PIECE_BYTES)
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
    children = {}  # pid -> read end of its pipe
    try:
        for k in range(1, pieces):
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes or memory: parse the whole file
                os.close(rfd)
                os.close(wfd)
                return None
            if pid == 0:
                os.close(rfd)
                for src in children.values():
                    os.close(src.fileno())
                _send_range(path, cuts[k], cuts[k + 1], wfd)
            os.close(wfd)
            children[pid] = open(rfd, "rb", buffering=0)
        try:
            head = _parse_range(path, 0, cuts[1], skip)
        except (ValueError, OSError):
            return None
        shapes = [head.shape]
        for src in children.values():
            shape = np.empty(2, dtype=np.int64)
            if not _fill(src, shape):
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
        for src, (rows, _) in zip(children.values(), shapes[1:]):
            if not _fill(src, out[lo:lo + rows]):
                return None
            lo += rows
        for pid in list(children):
            status = os.waitpid(pid, 0)[1]
            children.pop(pid).close()
            if status != 0:
                return None
        return out
    finally:
        for pid, src in children.items():
            src.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


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
    """Forked child: parse one range, write shape and bytes to ``wfd``, exit.

    Any failure, an interrupt included, ends in ``os._exit(1)``: the child
    must never return into its parent's stack or run its exit handlers.
    """
    code = 1
    try:
        arr = _parse_range(path, start, stop, 0)
        with open(wfd, "wb") as out:
            out.write(np.array(arr.shape, dtype=np.int64).tobytes())
            out.write(arr.reshape(-1).view(np.uint8))
        code = 0
    finally:
        os._exit(code)


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
