"""Bit-exact binary field dumps and deterministic CSV output.

Dump layout: magic ``ODF1``, one u8 kind tag (scalar=0, vector=1,
tensor=2), u32 little-endian grid sizes n1 and n2, f64 little-endian
periods len1 and len2 and the time stamp, then the payload: kind
multiplicity x n1 x n2 doubles, row major, components concatenated.
Round trips are bitwise exact, which makes the dumps usable as
regression baselines.
"""

from __future__ import annotations

import struct

import numpy as np

from .fields import Grid2D, ScalarField, TensorField, VectorField

MAGIC = b"ODF1"
KIND_SCALAR = 0
KIND_VECTOR = 1
KIND_TENSOR = 2

_HEADER = struct.Struct("<4sBIIddd")
# a kind tag is its class's index here
_KINDS = (ScalarField, VectorField, TensorField)
_KIND_NAMES = {KIND_SCALAR: "scalar", KIND_VECTOR: "vector", KIND_TENSOR: "tensor"}


class FieldDumpError(ValueError):
    """Structured failure reading or writing a field dump."""


def write_field(path, fld, time=0.0):
    """Serialize a field to `path`; `time` is stored in the header."""
    if type(fld) not in _KINDS:
        raise FieldDumpError(f"unsupported field type {type(fld).__name__}")
    g = fld.grid
    header = _HEADER.pack(MAGIC, _KINDS.index(type(fld)), g.n1, g.n2, g.len1, g.len2,
                          float(time))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(fld.data, dtype="<f8"))


def read_field(path, expect_kind=None):
    """Read a dump back; returns (field, time).

    `expect_kind` (one of the KIND_* constants) turns a kind mismatch
    into a structured error instead of returning the wrong type.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise FieldDumpError(
            f"truncated header: expected {_HEADER.size} bytes, got {len(raw)}"
        )
    magic, kind, n1, n2, len1, len2, time = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FieldDumpError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if kind >= len(_KINDS):
        raise FieldDumpError(f"unknown field kind tag {kind}")
    if expect_kind is not None and kind != expect_kind:
        raise FieldDumpError(
            f"kind mismatch: file holds {_KIND_NAMES[kind]}, "
            f"expected {_KIND_NAMES[expect_kind]}"
        )
    cls = _KINDS[kind]
    expected = _HEADER.size + len(cls.components) * n1 * n2 * 8
    if len(raw) != expected:
        raise FieldDumpError(
            f"truncated payload: expected {expected} bytes, got {len(raw)}"
        )
    grid = Grid2D(n1, n2, len1, len2)
    planes = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(-1, n1, n2)
    return cls(grid, *planes), float(time)


def write_csv(path, header, rows):
    """CSV with every integer as %d and every other number in
    17-significant-digit scientific notation, so identical runs produce
    byte-identical files.  Each row is formatted by one template, built
    once per tuple of cell types; rows are streamed to the file, so no
    copy of the whole text is held."""
    templates = {}

    def lines():
        yield ",".join(header) + "\n"
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            template = templates.get(kinds)
            if template is None:
                template = templates[kinds] = ",".join(
                    "%d" if issubclass(kind, (int, np.integer)) else "%.16e"
                    for kind in kinds) + "\n"
            yield template % row

    with open(path, "w") as fh:
        fh.writelines(lines())
