"""Binary cache files for trace and class-number tables.

Layout: 8-byte magic ``BATMANv1``, one kind byte (1 = trace table,
2 = class-number table), the prime or d_max as a little-endian u64, the
payload as little-endian i64 records, and a trailing CRC32 (little-endian
u32) over everything before it.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .clausen import TraceTable
from .field import make_context
from .hurwitz import HurwitzTable

MAGIC = b"BATMANv1"
KIND_TRACE = 1
KIND_HURWITZ = 2

_HEADER = struct.Struct("<8sBQ")


class CacheFormatError(ValueError):
    pass


def _pack(kind: int, parameter: int, payload: np.ndarray) -> bytes:
    body = _HEADER.pack(MAGIC, kind, parameter) + payload.astype("<i8").tobytes()
    return body + struct.pack("<I", zlib.crc32(body))


def _unpack(raw: bytes, kind: int, record_count) -> tuple[int, np.ndarray]:
    if len(raw) < _HEADER.size + 4:
        raise CacheFormatError("file too short to hold a cache header")
    magic, found_kind, parameter = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        if magic[:6] == MAGIC[:6]:
            raise CacheFormatError(f"unsupported cache version {magic!r}")
        raise CacheFormatError(f"bad magic {magic!r}")
    if found_kind != kind:
        raise CacheFormatError(f"kind mismatch: expected {kind}, found {found_kind}")
    count = record_count(parameter)
    expected = _HEADER.size + 8 * count + 4
    if len(raw) != expected:
        raise CacheFormatError(
            f"payload length mismatch: expected {expected} bytes, found {len(raw)}"
        )
    body, (crc,) = raw[:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) != crc:
        raise CacheFormatError("checksum mismatch")
    payload = np.frombuffer(raw, dtype="<i8", count=count, offset=_HEADER.size)
    return parameter, payload.astype(np.int64)


def _write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it over
    ``path``, so an interrupted write never leaves a truncated cache file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_trace_table(path, table: TraceTable) -> None:
    _write_atomic(path, _pack(KIND_TRACE, table.p, table.traces))


def load_trace_table(path) -> TraceTable:
    p, traces = _unpack(Path(path).read_bytes(), KIND_TRACE, lambda p: p - 2)
    ctx = make_context(int(p))
    signs = ctx.chi_table[2 : ctx.p][::-1].copy()
    table = TraceTable(ctx.p, traces, signs)
    table.traces.setflags(write=False)
    table.signs.setflags(write=False)
    return table


def save_hurwitz_table(path, table: HurwitzTable) -> None:
    _write_atomic(path, _pack(KIND_HURWITZ, table.d_max, table.twelve_h))


def load_hurwitz_table(path) -> HurwitzTable:
    d_max, twelve = _unpack(Path(path).read_bytes(), KIND_HURWITZ, lambda d: d + 1)
    table = HurwitzTable(int(d_max), twelve)
    table.twelve_h.setflags(write=False)
    return table
