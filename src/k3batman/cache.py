"""Binary cache files for trace and class-number tables.

Layout: 8-byte magic ``BATMANv4``, one kind byte (1 = trace table,
2 = class-number table), the prime or d_max as a little-endian u64, the
payload arrays one after another, and a trailing CRC32 (little-endian u32)
over everything before it.

- Kind 1: the p-2 traces (``<i4``: |a| <= 2 sqrt(p)), then the p-2 signs
  phi(-lambda) (``i1``).
- Kind 2: ``12 H*(D)`` for D = 0..d_max (``<i8``).

A file of another version fails the magic check like any other unreadable
file.

A load reads each array straight into its numpy buffer and folds the CRC
over it as it goes, so the file is read once and copied nowhere else. A
trace load takes the signs from the file: it builds no Legendre table.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .clausen import TraceTable
from .hurwitz import HurwitzTable

MAGIC = b"BATMANv4"
KIND_TRACE = 1
KIND_HURWITZ = 2

_HEADER = struct.Struct("<8sBQ")
_CRC = struct.Struct("<I")


class CacheFormatError(ValueError):
    pass


def _trace_layout(p: int) -> list[tuple[str, tuple[int, ...]]]:
    if p < 5:
        raise CacheFormatError(f"bad prime {p} in a trace-table header")
    return [("<i4", (p - 2,)), ("i1", (p - 2,))]


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
    """Save ``table`` with its signs, the traces narrowed to int32: a table
    keeps the Hasse bound, so no trace can wrap."""
    arrays = [np.ascontiguousarray(table.traces, dtype="<i4"),
              np.ascontiguousarray(table.signs, dtype="i1")]
    _write_atomic(path, KIND_TRACE, table.p, arrays)


def load_trace_table(path) -> TraceTable:
    """The trace table of a kind 1 file. Raises CacheFormatError for a file
    that fails the format checks, and the ArithmeticError of TraceTable for
    a trace beyond the Hasse bound or signs that break +-1 summing to -1."""
    p, (traces, signs) = _read(path, KIND_TRACE, _trace_layout)
    return TraceTable(p, traces, signs)


def save_hurwitz_table(path, table: HurwitzTable) -> None:
    _write_atomic(path, KIND_HURWITZ, table.d_max,
                  [np.ascontiguousarray(table.twelve_h, dtype="<i8")])


def load_hurwitz_table(path) -> HurwitzTable:
    d_max, (twelve,) = _read(path, KIND_HURWITZ, _hurwitz_layout)
    return HurwitzTable(d_max, twelve)
