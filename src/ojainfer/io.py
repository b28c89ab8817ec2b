"""File formats.

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
import os
import tempfile
import zlib
from contextlib import suppress
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .core import Dataset


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")  # also nan, inf and -inf
    return "" if value is None else str(value)


# Version of the parse rules that read_csv applies; bump it whenever a file
# could parse to another array, so that no cache entry made under the old
# rules is read again.
_PARSE_RULES = 2
# Size limit of the parsed-array cache directory; the least recently used
# entries are deleted past it.
_CACHE_BYTES = 1 << 30
# write_csv converts at most this many cells to Python floats at once.
_WRITE_BLOCK = 1 << 16


def read_csv(path) -> Dataset:
    """Load a rectangular numeric CSV as a Dataset.

    A header row is detected automatically: if any cell of the first row is
    not parseable as a number, the row is skipped. Ragged rows, non-numeric
    cells past the header (a ``#`` row included), and files without a numeric
    row are rejected; blank lines are ignored. A UTF-8 byte order mark at
    the start of the file is skipped. The file is parsed once, whole, by
    ``np.loadtxt``; :func:`read_csv_cached` keeps the array for repeat reads.
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
    try:
        arr = np.loadtxt(path, delimiter=",", skiprows=skip, encoding="utf-8-sig", ndmin=2,
                         dtype=np.float64, comments=None, quotechar='"')
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
