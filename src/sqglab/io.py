"""SQGF1 field persistence.

Layout: 32-byte header (magic "SQGF", version u32=1, K u32, representation
tag u32 with 0=spectral / 1=physical, L as f64, zero padding), then the
row-major little-endian payload. Spectral payloads are complex interleaved
64-bit floats in ascending-mode order (fftshifted); physical payloads are
64-bit float samples on the [-L, L)^2 grid.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .field import SpectralField, field_from_physical, to_physical
from .grid import GridSpec

__all__ = ["write_field", "read_field", "MAGIC", "VERSION"]

MAGIC = b"SQGF"
VERSION = 1
_HEADER = struct.Struct("<4sIIId8x")
REPR_SPECTRAL = 0
REPR_PHYSICAL = 1


def write_field(path: str | Path, u: SpectralField, representation: str = "spectral") -> None:
    if representation == "spectral":
        tag = REPR_SPECTRAL
        payload = np.fft.fftshift(u.coeffs).astype("<c16").tobytes(order="C")
    elif representation == "physical":
        tag = REPR_PHYSICAL
        payload = to_physical(u).astype("<f8").tobytes(order="C")
    else:
        raise ValueError(f"unknown representation {representation!r}")
    header = _HEADER.pack(MAGIC, VERSION, u.grid.K, tag, float(u.grid.L))
    Path(path).write_bytes(header + payload)


def read_field(path: str | Path) -> SpectralField:
    """Read an SQGF1 file; every refusal is a ValueError that names the file."""
    raw = Path(path).read_bytes()
    try:
        if len(raw) < _HEADER.size:
            raise ValueError("truncated header")
        magic, version, K, tag, L = _HEADER.unpack_from(raw)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if version != VERSION:
            raise ValueError(f"unsupported version {version}")
        grid = GridSpec(int(K), float(L))
        if tag not in (REPR_SPECTRAL, REPR_PHYSICAL):
            raise ValueError(f"unknown representation tag {tag}")
        data = np.frombuffer(raw[_HEADER.size :], dtype="<c16" if tag == REPR_SPECTRAL else "<f8")
        if data.size != K * K:
            raise ValueError(f"payload size {data.size} != {K * K}")
        if tag == REPR_SPECTRAL:
            return SpectralField(grid, np.fft.ifftshift(data.reshape(K, K)))  # validates the payload
        return field_from_physical(grid, data.reshape(K, K))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
