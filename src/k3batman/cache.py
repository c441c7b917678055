"""Binary cache files for trace and class-number tables.

Layout: 8-byte magic ``BATMANv3``, one kind byte (1 = trace table,
2 = class-number table), the prime or d_max as a little-endian u64, the
payload arrays one after another, and a trailing CRC32 (little-endian u32)
over everything before it.

- Kind 1: the p-2 traces (``<i4``: |a| <= 2 sqrt(p)), the p-2 signs
  phi(-lambda) (``i1``), then the ``TraceSummary`` counts (``<i8``, shape
  ``(isqrt(4p)+1, 2)``). Format v2 stored the traces as ``<i8``.
- Kind 2: ``12 H*(D)`` for D = 0..d_max (``<i8``).

A file of another version, v1 or v2 included, fails the magic check like
any other unreadable file.

A load reads each array straight into its numpy buffer and folds the CRC
over it as it goes, so the file is read once and copied nowhere else. A
trace load takes the signs and the summary from the file: it builds no
Legendre table and counts no traces.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .clausen import TraceSummary, TraceTable, check_hasse
from .hurwitz import HurwitzTable

MAGIC = b"BATMANv3"
KIND_TRACE = 1
KIND_HURWITZ = 2

_HEADER = struct.Struct("<8sBQ")
_CRC = struct.Struct("<I")


class CacheFormatError(ValueError):
    pass


def _trace_layout(p: int) -> list[tuple[str, tuple[int, ...]]]:
    if p < 5:
        raise CacheFormatError(f"bad prime {p} in a trace-table header")
    return [("<i4", (p - 2,)), ("i1", (p - 2,)), ("<i8", (math.isqrt(4 * p) + 1, 2))]


def _hurwitz_layout(d_max: int) -> list[tuple[str, tuple[int, ...]]]:
    return [("<i8", (d_max + 1,))]


def _write_atomic(path, kind: int, parameter: int, arrays) -> None:
    """Write the header, ``arrays`` and their CRC to a temp file beside
    ``path``, then rename it over ``path``, so an interrupted write never
    leaves a truncated cache file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    header = _HEADER.pack(MAGIC, kind, parameter)
    crc = zlib.crc32(header)
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            for array in arrays:
                fh.write(array)
                crc = zlib.crc32(array, crc)
            fh.write(_CRC.pack(crc))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read(path, kind: int, layout) -> tuple[int, list[np.ndarray]]:
    """The header parameter and the payload arrays of a cache file, after the
    magic, kind, length and CRC checks; the arrays are read-only."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise CacheFormatError("file too short to hold a cache header")
        magic, found_kind, parameter = _HEADER.unpack(header)
        if magic != MAGIC:
            if magic[:6] == MAGIC[:6]:
                raise CacheFormatError(f"unsupported cache version {magic!r}")
            raise CacheFormatError(f"bad magic {magic!r}")
        if found_kind != kind:
            raise CacheFormatError(f"kind mismatch: expected {kind}, found {found_kind}")
        shapes = layout(parameter)
        expected = _HEADER.size + _CRC.size + sum(
            np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in shapes)
        found = os.fstat(fh.fileno()).st_size
        if found != expected:  # checked before allocating what the header asks for
            raise CacheFormatError(
                f"payload length mismatch: expected {expected} bytes, found {found}")
        crc = zlib.crc32(header)
        arrays = []
        for dtype, shape in shapes:
            array = np.empty(shape, dtype=dtype)
            view = memoryview(array).cast("B")
            if fh.readinto(view) != len(view):
                raise CacheFormatError("payload length mismatch: the file ended early")
            crc = zlib.crc32(view, crc)
            array.setflags(write=False)
            arrays.append(array)
        stored = fh.read(_CRC.size)
    if len(stored) != _CRC.size:
        raise CacheFormatError("payload length mismatch: the file ended early")
    if _CRC.unpack(stored)[0] != crc:
        raise CacheFormatError("checksum mismatch")
    return parameter, arrays


def save_trace_table(path, table: TraceTable) -> None:
    """Save ``table`` with its signs and summary, the traces narrowed to int32;
    raises ArithmeticError for a trace beyond the Hasse bound, checked
    before the narrowing, so no trace can wrap."""
    counts = table.multiplicities.counts
    check_hasse(table.p, table.traces)  # a summary given with the table checked none
    arrays = [np.ascontiguousarray(table.traces, dtype="<i4"),
              np.ascontiguousarray(table.signs, dtype="i1"),
              np.ascontiguousarray(counts, dtype="<i8")]
    _write_atomic(path, KIND_TRACE, table.p, arrays)


def _check_trace_payload(p: int, traces, signs, counts) -> None:
    """The Hasse bound on every trace, then the stored summary's invariants:
    the signs are +-1 and sum to -1, no count is negative, and the column
    totals equal the number of +1 and of -1 signs. Raises ArithmeticError."""
    check_hasse(p, traces)
    plus, minus = counts.sum(axis=0).tolist()
    signs_ok = (np.count_nonzero(signs) == p - 2 and int(signs.min()) >= -1
                and int(signs.max()) <= 1 and int(signs.sum()) == -1)
    if not signs_ok or int(counts.min()) < 0 or (plus, minus) != ((p - 3) // 2, (p - 1) // 2):
        raise ArithmeticError(
            f"cached trace summary at p={p} breaks its invariants: column totals "
            f"{plus}, {minus} for {p - 2} signs summing to {int(signs.sum())}")


def load_trace_table(path) -> TraceTable:
    """The trace table of a kind 1 file, its ``multiplicities`` taken from the
    file. Raises CacheFormatError for a file that fails the format checks and
    ArithmeticError for a trace beyond the Hasse bound or a summary that
    breaks its invariants."""
    p, (traces, signs, counts) = _read(path, KIND_TRACE, _trace_layout)
    _check_trace_payload(p, traces, signs, counts)
    return TraceTable(p, traces, signs, summary=TraceSummary(p, counts))


def save_hurwitz_table(path, table: HurwitzTable) -> None:
    _write_atomic(path, KIND_HURWITZ, table.d_max,
                  [np.ascontiguousarray(table.twelve_h, dtype="<i8")])


def load_hurwitz_table(path) -> HurwitzTable:
    d_max, (twelve,) = _read(path, KIND_HURWITZ, _hurwitz_layout)
    return HurwitzTable(d_max, twelve)
