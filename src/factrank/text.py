"""Shared file handling: phrase tokenization; reading input files' lines, where
a byte that is not UTF-8 is a load error naming its line;
:func:`write_atomic`, the one writer of every file the package writes, so no
reader sees a partial one; :func:`cached`, the one checksum-keyed cache of
computed arrays beside a file; :func:`join_strings`, the cache's string
column; and :class:`Names`, its sorted name column, the one name -> row
lookup of the fact ids and of the word-vector tokens. The knowledge-base,
QA, feature, concept and word-vector loaders key theirs by the input file,
which a load whose size and mtime match the cache's does not hash again;
the fact matrix keys its cache by the arrays it is computed from. A
feature, word-vector or fact-matrix hit maps its matrix. Each caller builds
its value from the arrays by one function, on a cache hit and after a parse
alike."""

from __future__ import annotations

import hashlib
import logging
import math
import mmap
import os
import re
import struct
import time
import zipfile
from pathlib import Path
from typing import BinaryIO, Callable, Collection, Iterator, Sequence

import numpy as np

from .errors import LoadError, UsageError

logger = logging.getLogger(__name__)
CACHE_FORMAT = "factrank-cache-8"  # in every cache's key: one laid out by an older version is stale
STAMP_AGE_NS = 2 * 10**9  # a file this recently modified may be rewritten within the same mtime tick

_TOKEN = re.compile(r"[a-z0-9]+")


def tokenize(phrase: str) -> list[str]:
    """Lowercase and split on whitespace and punctuation, dropping empties.

    Hyphens separate tokens; digit runs are kept verbatim.
    """
    return _TOKEN.findall(phrase.lower())


def normalize_phrase(phrase: str) -> str:
    """Canonical matching form: lowercased tokens joined by single spaces."""
    return " ".join(tokenize(phrase))


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` of a UTF-8 text file, numbered from 1; a byte
    order mark that starts the file is dropped, so it is no part of the first
    line, and a byte that does not decode is a LoadError naming ``path:line``."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield from enumerate(fh, 1)
        except UnicodeDecodeError as exc:
            # the text decodes in blocks, and ``exc`` places the byte in one: place it in the file
            text = Path(path).read_bytes().decode("utf-8", "surrogateescape")
            line = text.count("\n", 0, re.search("[\udc80-\udcff]", text).start()) + 1
            raise LoadError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def write_atomic(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    """Call ``write`` on the binary file ``<name>.<pid>.tmp`` beside ``path``, then rename it over ``path``.
    On any failure the temporary file is deleted and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path: str | Path, lines: list[str]) -> None:
    """Write ``lines`` as UTF-8 text, each ended by a newline, through :func:`write_atomic`."""
    write_atomic(path, lambda fh: fh.write(("\n".join(lines) + "\n").encode("utf-8")))


def join_strings(strings: Sequence[str]) -> dict[str, np.ndarray]:
    """``strings`` as a cache's string column: ``text``, their UTF-8 concatenation (a lone surrogate, which a
    JSON escape may give, is kept), and ``starts``, the code-point offset of each and the total."""
    starts = np.zeros(len(strings) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, strings), np.int64, len(strings)), out=starts[1:])
    return {"text": np.frombuffer("".join(strings).encode("utf-8", "surrogatepass"), np.uint8), "starts": starts}


def split_strings(arrays) -> list[str]:
    """The strings of a :func:`join_strings` column, decoded at once; a ValueError unless the offsets rise from 0
    to the text's length."""
    text, starts = str(arrays["text"], "utf-8", "surrogatepass"), arrays["starts"].tolist()
    if starts[0] != 0 or starts[-1] != len(text) or (np.diff(arrays["starts"]) < 0).any():
        raise ValueError("string offsets do not rise from 0 to the text length")
    return [text[start:end] for start, end in zip(starts, starts[1:])]


class Names(Sequence[str]):
    """Distinct names as one byte column: ``column`` their UTF-8 bytes sorted (code-point order, as Python's
    ``sorted`` orders strings), ``sorted_rows[i]`` the row of the ``i``-th, and ``rank[r]`` row ``r``'s place in
    sorted order. A name is decoded only as it is named: a row names one, a slice or an array of rows a list of
    them. :meth:`rows` finds names' rows by one binary search. An ``S`` column drops trailing NUL bytes, so a name
    may hold none, and a key that holds one is found nowhere. A column that is not strictly increasing, or
    ``sorted_rows`` that are not a permutation, are a ValueError."""

    def __init__(self, column: np.ndarray, sorted_rows: np.ndarray, what: str):
        self.column, self.sorted_rows, self.what, n = column, sorted_rows, what, len(sorted_rows)
        if column.dtype.kind != "S" or (column[1:] <= column[:-1]).any():
            raise ValueError(f"the {what}s repeat or are out of order")
        self.rank = np.full(n, -1, dtype=np.int32)  # half the bytes of intp; no column nears 2**31 names
        if len(column) == n and sorted_rows.dtype.kind in "iu" and ((0 <= sorted_rows) & (sorted_rows < n)).all():
            self.rank[sorted_rows] = np.arange(n)  # n rows in range that miss one repeat one
        if len(column) != n or (self.rank < 0).any():
            raise ValueError(f"the {what} rows are not a permutation")

    def __len__(self) -> int:
        return len(self.column)

    def __getitem__(self, rows):
        names = self.column[self.rank[rows]]
        return str(names, "utf-8") if isinstance(names, bytes) else [str(name, "utf-8") for name in names.tolist()]

    def rows(self, names: Sequence[str]) -> np.ndarray:
        """Each name's row, or -1 for a name not here."""
        keys = [name.encode() for name in names]
        if not len(self):
            return np.full(len(keys), -1, dtype=np.intp)
        column = np.array(keys, dtype=bytes)  # the width of the longest key, so none is cut short
        at = np.minimum(np.searchsorted(self.column, column), len(self) - 1)
        found = (self.column[at] == column) & np.array([b"\0" not in key for key in keys], dtype=bool)
        return np.where(found, self.sorted_rows[at], -1)

    def row(self, name: str) -> int:
        """One name's row; a UsageError naming ``what`` and a name not here."""
        [row] = self.rows([name]).tolist()
        if row < 0:
            raise UsageError(f"unknown {self.what} {name!r}")
        return row


def sort_names(names: Collection[str]) -> tuple[np.ndarray, np.ndarray]:
    """The arrays of a :class:`Names` of the distinct ``names``: their UTF-8 bytes sorted, and each one's index
    in ``names``."""
    width = max(map(len, map(str.encode, names)), default=0) or 1  # fromiter holds no list of encoded names
    column = np.fromiter(map(str.encode, names), f"S{width}", len(names))
    order = np.argsort(column)
    return column[order], order


def cached(path: Path, what: str, parse: Callable, build: Callable, key: Sequence[np.ndarray] | None = None,
           mapped: Collection[str] = ()):
    """``build`` of the arrays that ``parse()`` returns, read from the cache ``<path>.cache.npz`` while it holds
    them. It is keyed by ``CACHE_FORMAT`` and the SHA-256 of the arrays in ``key``, all that ``parse`` computes
    from, or else of the file at ``path`` and its size. Once a hash has vouched for a file's cache
    ``STAMP_AGE_NS`` after the file's mtime, the cache bears that mtime as its own: a load that finds the size
    and mtime unchanged, and the cache's ctime (the stamp's time) past that mtime by as much, does not hash it.
    A hit maps the members named in ``mapped`` read-only and reads the rest, all through one open file. ``build``
    runs on a hit and after a parse alike, so both make their value by the same code, and a value it rejects by
    raising is not cached. A cache that is stale, unreadable or that ``build`` rejects is named in a warning, and
    ``parse`` runs and the cache is rewritten; a cache that cannot be written or stamped is named in one too."""
    cache, source = path.with_name(path.name + ".cache.npz"), None if key is not None else path.stat()
    suffix = CACHE_FORMAT if source is None else f"{source.st_size} {CACHE_FORMAT}"  # a file's size is in its key
    checksum, value, trusted = None if key is None else f"{_digest(key)} {suffix}", None, False
    try:
        with open(cache, "rb") as fh, np.load(fh, allow_pickle=False) as data:  # one inode for every member
            stored, stat = str(data["checksum"]), os.fstat(fh.fileno())
            # a cache just written bears its own write time, which a source written in the same tick shares
            trusted = (source is not None and stored.endswith(f" {suffix}") and stat.st_mtime_ns == source.st_mtime_ns
                       and stat.st_ctime_ns - stat.st_mtime_ns >= STAMP_AGE_NS)
            checksum = checksum or (stored if trusted else f"{_digest(path)} {suffix}")
            if stored != checksum:
                logger.warning("rebuilding stale %s cache %s", what, cache)
            else:
                value = build({name: _mapped(fh, data, name) if name in mapped else data[name]
                               for name in data.files})
    except FileNotFoundError:
        pass
    except Exception as exc:  # corrupt bytes or failed checks
        logger.warning("ignoring unreadable %s cache %s (%s)", what, cache, exc)
    if value is None:
        arrays = {**parse(), "checksum": np.str_(checksum or f"{_digest(path)} {suffix}")}
        value, trusted = build(arrays), False
        try:
            write_atomic(cache, lambda fh: _savez(fh, arrays))
        except OSError:
            logger.warning("could not write %s cache %s", what, cache)
            return value
    # a same-size rewrite within one mtime tick keeps the mtime, so a cache never bears one that recent
    if source is not None and not trusted and time.time_ns() - source.st_mtime_ns >= STAMP_AGE_NS:
        try:
            os.utime(cache, ns=(source.st_atime_ns, source.st_mtime_ns))
        except OSError as exc:  # a cache of another owner, or on a read-only mount, is still read
            logger.warning("could not stamp %s cache %s (%s)", what, cache, exc)
    return value


def _digest(source: Path | Sequence[np.ndarray]) -> str:
    """The SHA-256 of a file's bytes, or of arrays' dtypes, shapes and bytes."""
    digest = hashlib.sha256()
    if isinstance(source, Path):
        with open(source, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
    else:
        for part in map(np.ascontiguousarray, source):
            digest.update(f"{part.dtype.str}{part.shape}".encode())
            digest.update(part)
    return digest.hexdigest()


def _savez(fh: BinaryIO, arrays: dict[str, np.ndarray]) -> None:
    """``np.savez`` of ``arrays`` (uncompressed, each member dated 1980-01-01), but with each member's data aligned
    in the file as .npy aligns it in its own, by padding in its zip header (zipalign's field), so it can be mapped."""
    with zipfile.ZipFile(fh, "w") as archive:
        for name, value in arrays.items():
            info = zipfile.ZipInfo(f"{name}.npy")
            # the local header: 30 bytes, the name, the padding field, then the 20-byte zip64 field
            pad = -(fh.tell() + 30 + len(info.filename) + 4 + 20) % np.lib.format.ARRAY_ALIGN
            info.extra = struct.pack("<HH", 0xD935, pad) + bytes(pad)
            with archive.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asanyarray(value), allow_pickle=False)


def _mapped(fh: BinaryIO, data, name: str) -> np.ndarray:
    """Member ``name`` of ``data``, the npz open on ``fh``, mapped read-only from ``fh``, so a run reads only the
    pages it touches (unchecked by CRC). A member not stored uncompressed at its dtype's alignment, as
    :func:`_savez` stores it, is a ValueError, so its cache is rebuilt."""
    info = data.zip.getinfo(f"{name}.npy")
    fh.seek(info.header_offset + 26)  # the local header's name and extra-field lengths
    fh.seek(sum(struct.unpack("<HH", fh.read(4))), os.SEEK_CUR)
    if info.compress_type == zipfile.ZIP_STORED and np.lib.format.read_magic(fh) == (1, 0):
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        if not (fortran_order or dtype.hasobject or fh.tell() % dtype.alignment):
            buffer = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            return np.frombuffer(buffer, dtype, math.prod(shape), fh.tell()).reshape(shape)
    raise ValueError(f"member {name} is not stored uncompressed and aligned")
