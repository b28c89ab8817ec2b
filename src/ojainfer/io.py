"""File formats.

One interchange format: rectangular numeric CSV for datasets and record
streams, JSON for structured reports. Floats are written with 17 significant
digits so every value round-trips exactly; a rerun with an equal manifest
therefore reproduces numeric outputs byte for byte (timestamps live only in
the manifest).
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import json
import os
import tempfile
import warnings
import zlib
from contextlib import suppress
from dataclasses import fields, is_dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .core import Dataset
from .workers import cpu_ranges, run_parts


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")  # also nan, inf and -inf
    return "" if value is None else str(value)


# The one set of loadtxt options: the whole file and every byte range parse alike.
# Both read UTF-8 and skip a byte order mark at the start of the file only.
_LOADTXT = dict(delimiter=",", ndmin=2, dtype=np.float64, comments=None, quotechar='"')
# Version of the parse rules that read_csv applies; bump it whenever a file
# could parse to another array, so that no cache entry made under the old
# rules is read again.
_PARSE_RULES = 2
# Size limit of the parsed-array cache directory; the least recently used
# entries are deleted past it.
_CACHE_BYTES = 1 << 30
# A large file is parsed in min(usable CPUs, size // _PIECE_BYTES) line-aligned
# byte ranges, the ranges after the first in forked workers.
_PIECE_BYTES = 8 << 20
# write_csv converts at most this many cells to Python floats at once.
_WRITE_BLOCK = 1 << 16


def read_csv(path) -> Dataset:
    """Load a rectangular numeric CSV as a Dataset.

    A header row is detected automatically: if any cell of the first row is
    not parseable as a number, the row is skipped. Ragged rows, non-numeric
    cells past the header (a ``#`` row included), and files without a numeric
    row are rejected; blank lines are ignored. A UTF-8 byte order mark at
    the start of the file is skipped.
    Large files are parsed in pieces on several CPUs where the process may
    fork (``_read_pieces``); the array is the whole-file parse's, bit for bit.
    """
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
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
            arr = np.loadtxt(path, skiprows=skip, encoding="utf-8-sig", **_LOADTXT)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return Dataset(arr)


def file_state(path) -> tuple[int, int, int]:
    """(size, mtime in ns, inode) of ``path``; it moves when the file is written or replaced."""
    st = os.stat(path)
    return st.st_size, st.st_mtime_ns, st.st_ino


def read_csv_cached(path, sha256: str, state: tuple[int, int, int]) -> tuple[np.ndarray, str]:
    """The array of :func:`read_csv`, parsed once per file content.

    ``sha256`` is the file's :func:`content_hash_file` digest and ``state``
    its :func:`file_state` taken before that hash. The array is kept in
    ``$XDG_CACHE_HOME/ojainfer/`` (default ``~/.cache/ojainfer/``) as an
    ``np.save`` file named by the digest and ``_PARSE_RULES``, followed by
    the CRC-32 of the array's bytes. Returns the array and how the cache
    served it: ``"hit"`` (a sound entry was read, and its mtime touched),
    ``"miss"`` (the file was parsed and its entry written) or ``"off"``
    (parsed, but no entry could be written). An entry that cannot be read
    or fails a check is a miss, and is rewritten. If the file's state has
    moved by the end of the load, the digest may not describe the bytes
    parsed: that raises ValueError, and no entry is written.
    """
    cache = _cache_dir()
    entry = cache / f"{sha256}.r{_PARSE_RULES}.npy"
    arr = _read_entry(entry)
    hit = arr is not None
    if not hit:
        arr = read_csv(path).samples
    if file_state(path) != state:
        raise ValueError(f"{path}: the file changed while it was read")
    if hit:
        with suppress(OSError):
            os.utime(entry)
        return arr, "hit"
    return arr, "miss" if _write_entry(cache, entry, arr) else "off"


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/ojainfer``, or ``~/.cache/ojainfer`` if that is unset or relative."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base, "ojainfer")


def _checksum(arr: np.ndarray) -> bytes:
    return zlib.crc32(arr.reshape(-1).view(np.uint8)).to_bytes(4, "little")


def _read_entry(entry: Path) -> np.ndarray | None:
    """A cache entry's array, or None if it is absent, unreadable or fails a check.

    The checks: a version 1.0 ``.npy`` header of a 2-D, C-order, native
    float64 array with no empty axis, a file size that fits that header
    exactly, and the CRC-32 after the array bytes.
    """
    try:
        with open(entry, "rb") as fh:
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            if dtype != np.float64 or fortran_order or len(shape) != 2 or min(shape) < 1:
                return None
            if os.fstat(fh.fileno()).st_size != fh.tell() + 8 * shape[0] * shape[1] + 4:
                return None
            arr = np.fromfile(fh, dtype=np.float64, count=shape[0] * shape[1]).reshape(shape)
            if fh.read() != _checksum(arr):
                return None
    except (OSError, ValueError):
        return None
    return arr


def _write_entry(cache: Path, entry: Path, arr: np.ndarray) -> bool:
    """Write ``arr`` as ``entry`` by way of a temporary file, then evict; False if not written.

    Not written: an array that alone fills ``_CACHE_BYTES``, or a cache
    directory that cannot be made or written.
    """
    if arr.nbytes >= _CACHE_BYTES:
        return False
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache, prefix=".", suffix=".tmp")
    except OSError:
        return False
    try:
        with open(fd, "wb") as fh:
            np.save(fh, arr)
            fh.write(_checksum(arr))
        os.replace(tmp, entry)
    except OSError:
        with suppress(OSError):
            os.unlink(tmp)
        return False
    _evict(cache, keep=entry)
    return True


def _evict(cache: Path, keep: Path) -> None:
    """Delete the files of ``cache`` other than ``keep``, oldest mtime first, until it holds
    at most ``_CACHE_BYTES``. A stale temporary file counts as an entry."""
    files = []
    with suppress(OSError), os.scandir(cache) as scan:
        for item in scan:
            with suppress(OSError):
                if item.is_file(follow_symlinks=False):
                    st = item.stat(follow_symlinks=False)
                    files.append((st.st_mtime_ns, st.st_size, item.path))
    total = sum(size for _, size, _ in files)
    for _, size, name in sorted(files):
        if total <= _CACHE_BYTES:
            break
        if name != str(keep):
            with suppress(OSError):
                os.unlink(name)
            total -= size


def _read_pieces(path, skip: int) -> np.ndarray | None:
    """Parse the file as byte ranges cut at line starts, or return None.

    Each range is one part of :func:`~ojainfer.workers.run_parts`: range 0
    is parsed here, the others in forked children that pickle their arrays
    back, and a range whose child died is parsed again here. The parts are
    copied into one (n, d) array, each dropped once copied, so the peak is
    the array and one range. The ranges are as many as the
    :func:`~ojainfer.workers.cpu_ranges` of size // ``_PIECE_BYTES``. None
    (parse the whole file instead) for fewer than two, a cut at EOF, a range that
    fails to parse or ends inside a quoted field, or ranges whose column
    counts differ. So every error message comes from the whole-file parse,
    with its row numbers.
    """
    size = os.path.getsize(path)
    pieces = len(cpu_ranges(size // _PIECE_BYTES))
    if pieces < 2:
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
    parts, _ = run_parts([partial(_parse_range, path, cuts[k], cuts[k + 1], skip if k == 0 else 0)
                          for k in range(pieces)])
    if any(part is None for part in parts):
        return None
    # A range of blank lines parses to (0, 1); it adds no row in either parse.
    widths = {part.shape[1] for part in parts if len(part)}
    if len(widths) != 1:
        return None
    out = np.empty((sum(map(len, parts)), widths.pop()))
    lo = 0
    for k, part in enumerate(parts):
        out[lo:lo + len(part)] = part
        lo += len(part)
        parts[k] = None
    return out


def _parse_range(path, start: int, stop: int, skip: int) -> np.ndarray | None:
    """loadtxt over the lines in bytes [start, stop) of the file, or None if they fail to parse.

    A range holding an odd number of ``"`` ends inside a quoted field, which
    may go on past the cut, so it is None too.
    """
    quotes = 0

    def lines():
        nonlocal quotes
        with open(path, "rb") as fh:
            # Per-line utf-8-sig would also drop a mark that starts a later line.
            pos = 3 if start == 0 and fh.read(3) == codecs.BOM_UTF8 else start
            fh.seek(pos)
            for line in fh:
                if b'"' in line:  # a memchr scan; the count is slower
                    quotes += line.count(b'"')
                yield line
                pos += len(line)
                if pos >= stop:
                    return

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "no data" from a range of blank lines
            arr = np.loadtxt(lines(), skiprows=skip, encoding="utf-8", **_LOADTXT)
    except (ValueError, OSError):
        return None
    return None if quotes % 2 else np.ascontiguousarray(arr)


def write_csv(data: Dataset, path) -> None:
    """Write a Dataset as headerless numeric CSV, exact round trip.

    The bytes are ``np.savetxt(fmt="%.17g", delimiter=",")``'s; the rows go
    through one format string, a block of rows converted to floats at a time.
    """
    samples = data.samples
    row = ",".join(["%.17g"] * samples.shape[1]) + "\n"
    step = max(1, _WRITE_BLOCK // samples.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, samples.shape[0], step):
            fh.writelines(row % tuple(cells) for cells in samples[lo:lo + step].tolist())


def write_results(rows: list[dict], path) -> None:
    """Persist a non-empty list of dict rows as CSV, columns in the first row's order."""
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
        return {f.name: getattr(value, f.name) for f in fields(value)}
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
