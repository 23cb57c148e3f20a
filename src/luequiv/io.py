"""JSON state files and verdict reports.

State file schema (version 1)::

    {
      "schema_version": 1,
      "local_dim": 2,                    # a JSON integer, at least 1
      "label": "optional text",
      "matrix": [[[re, im], ...], ...]   # row-major, N^2 x N^2
    }

Complex numbers are always [re, im] pairs of doubles; serialization uses
Python's shortest-round-trip float repr, so files are bit-faithful and
diff cleanly.  A matrix entry that is not a list of exactly two numbers
(a string, a triple, a pair of booleans) is a `ParseError`, and so is a
``schema_version`` or ``local_dim`` that is not a JSON integer (``2.7``,
``"abc"``, ``true``, ``null``) or a ``local_dim`` below 1.

State files and reports are written by `dump_json`, whose bytes are those
of ``json.dumps(doc, sort_keys=True, indent=2) + "\n"`` (a parity test
pins this), except that it also accepts `complex` values and writes each
as its [re, im] pair.  Every dict of complex values, and every
`ComplexTable` (a fingerprint's word table, rows already in key order),
is written by one table writer, one ``"".join`` of constant and
formatted pieces, not the standard library's pure-Python encoder.  Each
distinct float bit pattern of a table is formatted once (its shortest
round-trip repr, the floor of a large report's time).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .errors import ParseError
from .states import DensityMatrix, validate_density

STATE_SCHEMA_VERSION = 1
REPORT_SCHEMA_VERSION = 1
_INF = float("inf")


def matrix_to_pairs(m: np.ndarray) -> list:
    """Rows of [re, im] entries; every float keeps its bits (``-0.0``, NaN)."""
    a = np.ascontiguousarray(m, dtype=complex)
    return a.view(float).reshape(*a.shape, 2).tolist()


_NUMBER = {int, float}  # exact types: JSON booleans are not numbers


def pairs_to_matrix(data) -> np.ndarray:
    """Rows of [re, im] entries as a complex matrix; each entry is two JSON numbers."""
    try:
        entries = list(chain.from_iterable(data))
        numbers = list(chain.from_iterable(entries))
        if (
            len(set(map(len, data))) != 1
            or set(map(len, entries)) != {2}
            or not set(map(type, numbers)) <= _NUMBER
        ):
            raise ParseError("matrix must be equal rows of [re, im] pairs of numbers")
        out = np.array(numbers, dtype=float).view(complex).reshape(len(data), -1)
    except (TypeError, OverflowError) as exc:
        raise ParseError(f"matrix entries must be [re, im] pairs: {exc}") from exc
    if not np.all(np.isfinite(out.view(float))):
        raise ParseError("matrix contains non-finite entries")
    return out


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


@dataclass(frozen=True)
class ComplexTable:
    """A JSON object of complex values, rows in key order: ``prefix + key:
    values[p, k]`` for each prefix, then each key.  Prefixes and keys go
    between constant quotes: ASCII that JSON does not escape, as every key
    the package builds is."""

    prefixes: tuple[str, ...]
    keys: list[str]
    values: np.ndarray  # complex, (len(prefixes), len(keys))


def _complex_table(table: ComplexTable, pad: str) -> str:
    """``table`` in one ``"".join``, each distinct float bit pattern formatted
    once: exact, as a float's text depends on its bits alone (``0.0`` and
    ``-0.0``, or NaNs of another sign or payload, are different patterns).
    A word table's R: values repeat its L: values."""
    z = table.values.ravel()
    if not z.size:
        return "{}"
    bits, where = np.unique(z.view(np.uint64), return_inverse=True)
    num = float.__repr__ if np.isfinite(z).all() else _float
    unique = np.array(list(map(num, bits.view(float).tolist())), dtype=object)
    text = unique[where].tolist()  # real and imaginary parts interleaved
    inner, w, n = pad + "    ", len(table.keys), z.size
    # per row: head (closing the row before), key, '": [', re, ',', im;
    # every slot but the ',' ones is overwritten below
    parts = [f",\n{inner}"] * (6 * n)
    for p, prefix in enumerate(table.prefixes):
        parts[6 * p * w:6 * (p + 1) * w:6] = [f'\n{pad}  ],\n{pad}  "{prefix}'] * w
    parts[0] = f'{{\n{pad}  "{table.prefixes[0]}'
    parts[1::6] = table.keys * len(table.prefixes)
    parts[2::6] = [f'": [\n{inner}'] * n
    parts[3::6] = text[0::2]
    parts[5::6] = text[1::2]
    parts.append(f"\n{pad}  ]\n{pad}}}")
    return "".join(parts)


def _encode(o, pad: str) -> str:
    """``o`` as ``json.dumps(o, sort_keys=True, indent=2)`` writes it at depth ``pad``."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, complex):
        o = [o.real, o.imag]
    if isinstance(o, ComplexTable):
        return _complex_table(o, pad)
    if not isinstance(o, (list, tuple, dict)):
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    inner, sep = pad + "  ", ",\n" + pad + "  "
    if isinstance(o, dict):
        if all(issubclass(t, complex) for t in set(map(type, o.values()))):
            keys = sorted(o)
            values = np.array([[o[k] for k in keys]], dtype=complex)
            return _complex_table(ComplexTable(("",), [_quote(k)[1:-1] for k in keys], values), pad)
        items = [_quote(k) + ": " + _encode(o[k], inner) for k in sorted(o)]
        return f"{{\n{inner}{sep.join(items)}\n{pad}}}"
    return f"[\n{inner}{sep.join([_encode(v, inner) for v in o])}\n{pad}]"


def dump_json(doc: dict) -> str:
    """Indented JSON with sorted keys; complex values become [re, im] pairs."""
    return _encode(doc, "") + "\n"


def save_state(path, matrix, local_dim: int, label: str | None = None) -> None:
    doc = {
        "schema_version": STATE_SCHEMA_VERSION,
        "local_dim": int(local_dim),
        "matrix": matrix_to_pairs(matrix),
    }
    if label is not None:
        doc["label"] = label
    Path(path).write_text(dump_json(doc))


def load_state(path, validate: bool = True) -> tuple[DensityMatrix, str | None]:
    """Parse a state file; validation errors propagate as typed exceptions."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level JSON object expected")
    version = doc.get("schema_version")
    if type(version) is not int or version != STATE_SCHEMA_VERSION:
        raise ParseError(f"{path}: unsupported schema_version {version!r}")
    try:
        n = doc["local_dim"]
        matrix = pairs_to_matrix(doc["matrix"])
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from exc
    if type(n) is not int or n < 1:
        raise ParseError(f"{path}: local_dim must be an integer of at least 1, got {n!r}")
    label = doc.get("label")
    if validate:
        return validate_density(matrix, n), label
    if matrix.shape != (n * n, n * n):
        raise ParseError(f"{path}: matrix shape {matrix.shape} does not match local_dim {n}")
    matrix.flags.writeable = False  # as validate_density's: a cached spectrum cannot go stale
    return DensityMatrix(n, matrix), label
