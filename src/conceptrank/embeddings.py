"""Pretrained word-embedding store and phrase/cosine primitives.

The embedding file format is plain text, UTF-8, one record per line:
a token, then the vector's values, each field preceded by one space
(``token SP float SP ... SP float``), constant arity.  Fields are split
on single spaces only, so a double space, or a tab between two values, is
a bad float.  Tables are immutable after load and safe for concurrent
reads.

The loader reads records in blocks of ``_BLOCK_LINES`` non-blank lines.
Python handles only each record's structure: it splits the token off at
the first space and finds the records with no token or no value field.
numpy's C reader (``np.loadtxt``) parses the values of a whole block into
one array, and the arity, finite and nonzero checks run once on that
array; every row of the table is a read-only view into its block's
array.  A block that has a malformed record, that the C reader rejects,
that fails a check, or that holds a character the two parsers read
differently, is parsed again record by record with ``float()``.  That
parse raises the first bad record's ``FormatError`` with its line
number, or accepts the block, since ``float()`` also reads values the C
reader does not (``1_0``, non-ASCII digits).  So the table holds the same
bits, and a bad file fails with the same message, as a parse of every
record with ``float()``.

A parsed table is cached beside its file, in ``<file>.cache.npz``, so a
later load of the same bytes skips the float parse.  The cache is an
uncompressed ``np.savez`` archive of four arrays: ``key``, int64 [format
version, CRC-32, Adler-32, byte length] of the file; ``tokens``, the
table's tokens in order, joined by line feeds, as UTF-8 ``uint8`` (a
token never holds a line break); ``rows``, the n x D float64 vectors in
the same order; and ``duplicates``, the duplicate count.  A load computes
the key, reading the file in 1 MB chunks, and uses the cache only when
its key is equal and it passes the checks a parse makes (2-D, finite, no
zero row, as many distinct tokens as rows); it is read with
``allow_pickle=False``, and its rows stay read-only views.  Any other
cache, missing, unreadable, stale or of another version, is ignored, and
the file is parsed.  After a parse that succeeded, and only if the
file's key is unchanged by then, the cache is written to a temporary
file in the same directory and moved into place with ``os.replace``; a
write that fails (a read-only directory, a full disk) leaves no file and
does not fail the load.  A file that is not a regular file, such as a
pipe, is parsed and never cached.  The checksums come from ``zlib``:
importing ``hashlib`` loads OpenSSL's libcrypto, which adds about 3.5 MB
to the resident memory of the process, 8% of a rank whose table holds a
few hundred tokens.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import stat
import tempfile
import warnings
import zipfile
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, FormatError

__all__ = ["EmbeddingTable", "PhraseVector", "load_embeddings", "phrase_vector", "cosine"]

# the cache file of a table is its path with this suffix
_CACHE_SUFFIX = ".cache.npz"
# the version of the cache's layout, the first entry of its key; a cache
# of another version is not read, and the next parse replaces it
_CACHE_VERSION = 1
# bytes of the table read per checksum update
_CHUNK_BYTES = 1 << 20
# rows of the table stacked per write into the cache's ``rows`` array
_CACHE_ROWS = 1024

# non-blank lines per np.loadtxt call.  A block's value strings are all
# alive at once; at 128 lines the loader's peak RSS on a 20k x 48 table is
# that of a one-line-at-a-time parse, at 512 it is 1.3 MB above it
_BLOCK_LINES = 128
# np.loadtxt strips these ASCII information separators around a value
# like whitespace; float() rejects them
_LOADTXT_ONLY = "\x1c\x1d\x1e\x1f"


@dataclass(frozen=True)
class EmbeddingTable:
    """Token -> D-dimensional vector map.

    Every stored vector has exactly ``dimension`` finite components and is
    nonzero; tokens are unique, nonempty, lowercase.
    """

    dimension: int
    vectors: dict[str, np.ndarray] = field(repr=False)
    duplicate_count: int = 0

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def get(self, token: str) -> np.ndarray | None:
        return self.vectors.get(token)


def load_embeddings(path: str) -> EmbeddingTable:
    """Load an embedding table from a text file of space-separated records.

    Each record is a token and its values, separated by single spaces; a
    double space, or a tab between two values, is a bad float.  Blank lines
    are skipped and tokens are lowercased.  Duplicate tokens keep the last
    occurrence, at the position of the first, and increment the table's
    ``duplicate_count``.  Raises FormatError, naming the line,
    on a record without a token or values, inconsistent arity, an
    unparsable or non-finite value, or a zero vector, and on an empty file.

    The table is read from its cache file, ``path + ".cache.npz"``, when
    that holds the parse of the file's current bytes; otherwise the file
    is parsed and the cache written (see the module docstring).
    """
    cache = os.fspath(path) + _CACHE_SUFFIX
    key = _table_key(path)
    if key is not None:
        table = _read_cache(cache, key)
        if table is not None:
            return table
    table = _parse_table(path)
    if key is not None and np.array_equal(_table_key(path), key):
        _write_cache(path, cache, key, table)
    return table


def _parse_table(path: str) -> EmbeddingTable:
    """The table of the text file at ``path``, parsed block by block."""
    vectors: dict[str, np.ndarray] = {}
    dimension = None
    duplicates = 0
    with open(path, encoding="utf-8") as fh:
        for block in _record_blocks(fh):
            tokens, rows = _parse_block(path, block, dimension)
            if dimension is None:
                dimension = rows[0].shape[0]
            before = len(vectors) + len(tokens)
            vectors.update(zip(tokens, rows))
            duplicates += before - len(vectors)
    if dimension is None:
        raise FormatError(f"{path}: no entries")
    return EmbeddingTable(dimension=dimension, vectors=vectors, duplicate_count=duplicates)


def _table_key(path: str) -> np.ndarray | None:
    """The cache key of the file at ``path``: the cache format's version,
    the CRC-32 and Adler-32 of its bytes and their count.  None when it is
    not a regular file, such as a pipe, which reading would consume, or
    cannot be read."""
    crc, adler, length = 0, 1, 0
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        with open(path, "rb") as fh:
            while chunk := fh.read(_CHUNK_BYTES):
                crc = zlib.crc32(chunk, crc)
                adler = zlib.adler32(chunk, adler)
                length += len(chunk)
    except OSError:
        return None
    return np.array([_CACHE_VERSION, crc, adler, length], dtype=np.int64)


def _read_cache(cache: str, key: np.ndarray) -> EmbeddingTable | None:
    """The table stored in ``cache``; None when the cache is missing or
    unreadable, is of other bytes or another format, or fails a check
    that the parse makes of a table."""
    try:
        # np.load leaks its own handle when the zip directory is bad
        with open(cache, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if not np.array_equal(npz["key"], key):
                return None
            tokens, rows, duplicates = npz["tokens"], npz["rows"], npz["duplicates"]
    except Exception:
        # np.load and zipfile raise a dozen types on corrupt bytes (OSError,
        # ValueError, BadZipFile, EOFError, KeyError, NotImplementedError,
        # tokenize.TokenError among them); a cache that cannot be read is
        # parsed again like one that is not there
        return None
    if not (
        all(isinstance(a, np.ndarray) for a in (tokens, rows, duplicates))
        and tokens.dtype == np.uint8
        and tokens.ndim == 1
        and rows.dtype == np.float64
        and rows.ndim == 2
        and duplicates.dtype == np.int64
        and duplicates.ndim == 0
        and duplicates >= 0
        and np.isfinite(rows).all()
        and rows.any(axis=1).all()
    ):
        return None
    try:
        names = tokens.tobytes().decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return None
    rows.setflags(write=False)
    vectors = dict(zip(names, rows))
    if not len(names) == rows.shape[0] == len(vectors):
        return None
    return EmbeddingTable(
        dimension=rows.shape[1], vectors=vectors, duplicate_count=int(duplicates)
    )


def _write_cache(path: str, cache: str, key: np.ndarray, table: EmbeddingTable) -> None:
    """Store ``table``, parsed from ``path``, under ``key`` in ``cache``,
    through a temporary file in its directory that replaces it whole.  A
    failed write leaves no file and is not an error: the next load parses
    the table again.

    The archive is the one ``np.savez`` writes of the four arrays, with
    ``rows`` written ``_CACHE_ROWS`` rows at a time (``_write_rows``), so
    the table is not copied into one n x D array."""
    tokens = np.frombuffer("\n".join(table.vectors).encode("utf-8"), dtype=np.uint8)
    try:
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(cache) + ".", suffix=".tmp",
            dir=os.path.dirname(cache) or os.curdir,
        )
    except OSError:
        return
    try:
        arrays = {"key": key, "tokens": tokens, "duplicates": np.int64(table.duplicate_count)}
        with os.fdopen(fd, "wb") as fh, zipfile.ZipFile(fh, "w", allowZip64=True) as archive:
            # np.savez's order of the members, each forced to zip64 as it does
            for name in ("key", "tokens", "rows", "duplicates"):
                with archive.open(name + ".npy", "w", force_zip64=True) as member:
                    if name == "rows":
                        _write_rows(member, table)
                    else:
                        np.lib.format.write_array(member, np.asanyarray(arrays[name]))
        # whoever may read the table may read its cache (mkstemp makes 0600)
        os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode) & 0o666)
        os.replace(tmp, cache)
    except (OSError, ValueError):
        pass
    finally:
        # gone after the replace; left by a write that failed or was cut
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _write_rows(member, table: EmbeddingTable) -> None:
    """Write the table's rows to ``member`` as one n x D float64 ``.npy``
    array, stacking ``_CACHE_ROWS`` rows at a time."""
    np.lib.format.write_array_header_1_0(
        member, {"descr": "<f8", "fortran_order": False, "shape": (len(table), table.dimension)}
    )
    rows = iter(table.vectors.values())
    while chunk := list(itertools.islice(rows, _CACHE_ROWS)):
        member.write(np.array(chunk, dtype="<f8").data)


# (line number, token, separator, value fields): a line split at its first
# space, so the separator is empty when the line has no value field
_Record = tuple[int, str, str, str]


def _record_blocks(fh) -> Iterator[list[_Record]]:
    """Yield the non-blank lines of ``fh``, without their line ending and
    split at their first space, in lists of at most ``_BLOCK_LINES``."""
    block: list[_Record] = []
    for lineno, line in enumerate(fh, start=1):
        line = line.rstrip("\n")
        if line.strip():
            block.append((lineno, *line.partition(" ")))
            if len(block) == _BLOCK_LINES:
                yield block
                block = []
    if block:
        yield block


def _parse_block(
    path: str, block: list[_Record], dimension: int | None
) -> tuple[list[str], list[np.ndarray]]:
    """Tokens and read-only rows of one block, parsed by np.loadtxt when
    that gives exactly what ``_parse_records`` gives, else by it."""
    if not all(token and sep for _, token, sep, _ in block) or any(
        c in values for *_, values in block for c in _LOADTXT_ONLY
    ):
        return _parse_records(path, block, dimension)
    try:
        with warnings.catch_warnings():
            # a block whose value fields are all empty parses to no rows,
            # with a warning; the row count below sends it to the fallback
            warnings.simplefilter("ignore")
            array = np.loadtxt(
                [values for *_, values in block],
                delimiter=" ", comments=None, quotechar=None, ndmin=2,
            )
    except ValueError:
        return _parse_records(path, block, dimension)
    # np.loadtxt skips an empty value field (the record "token "), so each
    # later row would pair with the wrong token without the row count
    rows, cols = array.shape
    if (
        rows != len(block)
        or cols != (dimension or cols)
        or not np.isfinite(array).all()
        or not array.any(axis=1).all()
    ):
        return _parse_records(path, block, dimension)
    array.setflags(write=False)
    return [token.lower() for _, token, _, _ in block], list(array)


def _parse_records(
    path: str, block: list[_Record], dimension: int | None
) -> tuple[list[str], list[np.ndarray]]:
    """Parse a block record by record with ``float()``; raises FormatError
    at its first bad record."""
    tokens = []
    rows = []
    for lineno, token, sep, values in block:
        if not sep:
            raise FormatError(f"{path}:{lineno}: expected 'token value...' record")
        token = token.lower()
        if not token:
            raise FormatError(f"{path}:{lineno}: empty token")
        try:
            vec = np.array([float(x) for x in values.split(" ")], dtype=np.float64)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad float: {exc}") from None
        if dimension is None:
            dimension = vec.shape[0]
        elif vec.shape[0] != dimension:
            raise FormatError(
                f"{path}:{lineno}: expected {dimension} values, got {vec.shape[0]}"
            )
        if not np.all(np.isfinite(vec)):
            raise FormatError(f"{path}:{lineno}: non-finite value")
        if not np.any(vec):
            raise FormatError(f"{path}:{lineno}: zero vector")
        vec.setflags(write=False)
        tokens.append(token)
        rows.append(vec)
    return tokens, rows


@dataclass(frozen=True)
class PhraseVector:
    """Unit-norm mean of the in-vocabulary token vectors of a phrase."""

    vector: np.ndarray
    covered_tokens: int


def phrase_vector(tokens: list[str], table: EmbeddingTable) -> PhraseVector:
    """Average in-vocabulary token vectors and L2-normalize.

    Out-of-vocabulary tokens are skipped; raises CoverageError when no
    token is covered (the caller decides the fallback) or when the covered
    vectors cancel to zero.
    """
    hits = [table.vectors[t] for t in tokens if t in table.vectors]
    if not hits:
        raise CoverageError(f"no in-vocabulary token among {tokens!r}")
    mean = np.mean(hits, axis=0)
    norm = np.linalg.norm(mean)
    if norm == 0.0:
        raise CoverageError(f"token vectors of {tokens!r} cancel to zero")
    return PhraseVector(vector=mean / norm, covered_tokens=len(hits))


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, clamped into [-1, 1] against rounding."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine undefined for the zero vector")
    if np.array_equal(u, v):
        return 1.0
    return float(min(1.0, max(-1.0, np.dot(u, v) / (nu * nv))))
