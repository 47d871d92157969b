"""The one binary layout of the stored arrays: parameters, curvature, influence records, scores.

A file is a ``<4sIQ`` prefix (magic, format version, header length), then a
sorted-key JSON header that names the payload's ``shape`` next to the
fields its owner stores, then the payload as row-major little-endian
float64. Every length is checked against the bytes left in the file before
anything is allocated, so a corrupt length raises ``TruncatedFileError``
instead of allocating what it declares. The parameter, curvature and score
files also hold ``inputs`` in their header, which ``inputs`` reads alone.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

_VERSION = 2
_PREFIX = struct.Struct("<4sIQ")
# artifact kind -> (magic, the name errors give it)
_KINDS = {
    "params": (b"MIMP", "a MetaParams file"),
    "hessian": (b"MIHS", "a Hessian file"),
    "influence": (b"MIIR", "an influence store"),
    "scores": (b"MIST", "a score table"),
}


class TruncatedFileError(OSError):
    """A binary artifact ends before the bytes its header declares."""


def save(path, kind: str, header: dict, payload: np.ndarray) -> None:
    """Write ``payload`` under ``header``, which gains the payload's ``shape``."""
    payload = np.ascontiguousarray(payload, dtype="<f8")
    text = json.dumps(dict(header, shape=payload.shape), sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(_KINDS[kind][0], _VERSION, len(text)) + text)
        fh.write(payload.data)


def _check_remaining(fh, n: int) -> None:
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > remaining:
        raise TruncatedFileError(f"{fh.name} is truncated: expected {n} more bytes, found {remaining}")


def _read_header(fh, kind: str) -> tuple[dict, list]:
    """The header of an open ``kind`` file and the payload shape it declares."""
    magic, what = _KINDS[kind]
    _check_remaining(fh, _PREFIX.size)
    got, version, size = _PREFIX.unpack(fh.read(_PREFIX.size))
    if got != magic:
        raise ValueError(f"{fh.name} is not {what}: bad magic {got!r}")
    if version != _VERSION:
        raise ValueError(f"{fh.name}: unsupported version {version} of {what}")
    _check_remaining(fh, size)
    try:
        header = json.loads(fh.read(size))
    except ValueError:
        header = None
    shape = header.pop("shape", None) if isinstance(header, dict) else None
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"{fh.name}: the header of {what} is not a JSON object with a non-negative shape")
    return header, shape


def load(path, kind: str, build):
    """``build(header, payload)`` of a ``kind`` file; the payload is read straight into its array.

    A wrong magic or version, a header that is not a JSON object with a
    non-negative integer ``shape``, or a header ``build`` rejects with
    KeyError, TypeError or ValueError raises ValueError naming the file.
    """
    with open(path, "rb") as fh:
        header, shape = _read_header(fh, kind)
        _check_remaining(fh, 8 * math.prod(shape))
        payload = np.empty(shape, dtype="<f8")
        if fh.readinto(payload) != payload.nbytes:
            raise TruncatedFileError(f"{fh.name} is truncated: it shrank while being read")
    try:
        return build(header, payload.astype(float, copy=False))
    except (KeyError, TypeError, ValueError) as exc:
        missing = "no field " if isinstance(exc, KeyError) else ""
        raise ValueError(f"{path}: bad header of {_KINDS[kind][1]}: {missing}{exc}") from None


def inputs(path, kind: str):
    """The ``inputs`` a ``kind`` file's header records, None if it records none.

    The header is checked as ``load`` checks it and the payload is not read;
    the value is returned unchecked, for the CLI that wrote it to check.
    """
    with open(path, "rb") as fh:
        return _read_header(fh, kind)[0].get("inputs")
