"""Binary snapshot container.

Layout (all little-endian): 8-byte magic ``GKDVSNAP``, uint32 version,
uint32 p, uint64 n, float64 length, float64 x0, float64 dt, float64 cadence,
uint64 count, then ``count`` records of (float64 t, n float64 samples).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import Field, Grid

_MAGIC = b"GKDVSNAP"
_VERSION = 1
_HEADER = struct.Struct("<8sIIQddddQ")


@dataclass
class SnapshotSet:
    p: int
    grid: Grid
    dt: float
    cadence: float
    times: np.ndarray
    values: np.ndarray  # (count, n)

    def field(self, i: int) -> Field:
        return Field(self.grid, self.values[i])


def write_snapshots(path, p: int, grid: Grid, dt: float, cadence: float,
                    times, fields) -> None:
    times = np.asarray(times, dtype="<f8")
    count = times.size
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, int(p), grid.n, grid.length,
                              grid.x0, float(dt), float(cadence), count))
        for t, f in zip(times, fields):
            vals = f.values if isinstance(f, Field) else np.asarray(f)
            if vals.shape != (grid.n,):
                raise ParameterError("snapshot shape does not match grid")
            fh.write(np.float64(t).astype("<f8").tobytes())
            fh.write(np.ascontiguousarray(vals, dtype="<f8").tobytes())


def read_snapshots(path) -> SnapshotSet:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ParameterError(f"truncated snapshot header in {path}")
        magic, version, p, n, length, x0, dt, cadence, count = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ParameterError(f"{path} is not a snapshot container")
        if version != _VERSION:
            raise ParameterError(f"unsupported snapshot container version {version}")
        grid = Grid(int(n), float(length), float(x0))
        rec = np.dtype([("t", "<f8"), ("u", "<f8", (int(n),))])
        body = np.fromfile(fh, dtype=rec, count=int(count))
        if body.size != count:
            raise ParameterError(f"truncated snapshot payload in {path}")
    return SnapshotSet(p=int(p), grid=grid, dt=float(dt), cadence=float(cadence),
                       times=body["t"].astype(np.float64),
                       values=body["u"].astype(np.float64))

