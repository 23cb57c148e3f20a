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
as its [re, im] pair.  It formats the large word and block tables of a
fingerprint report in one pass instead of through the standard library's
pure-Python indenting encoder, and formats each distinct float bit
pattern of a table once.  That is exact: the text of a float is a
function of its bits alone, and ``0.0`` and ``-0.0`` are different
patterns, so each keeps its own text.
"""

from __future__ import annotations

import hashlib
import json
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


def _complex_table(d: dict, pad: str) -> str:
    """A non-empty dict of complex values, its keys sorted, in one pass.

    Each distinct float bit pattern is formatted once.  That is exact: a
    float's text is a function of its bits alone, and ``0.0`` and ``-0.0``
    (or NaNs of another sign or payload) are different patterns.  A
    fingerprint's right-side words repeat its left-side values, so more
    than half the floats of a word table are repeats.
    """
    keys = sorted(d)
    z = np.array([d[k] for k in keys], dtype=complex)
    bits, where = np.unique(z.view(np.uint64), return_inverse=True)
    num = float.__repr__ if np.isfinite(z).all() else _float
    unique = np.array(list(map(num, bits.view(float).tolist())), dtype=object)
    text = unique[where].tolist()  # real and imaginary parts interleaved
    inner, sep = pad + "    ", ",\n" + pad + "  "
    row = "{}: [\n" + inner + "{},\n" + inner + "{}\n" + pad + "  ]"
    rows = map(row.format, map(_quote, keys), text[0::2], text[1::2])
    return f"{{\n{pad}  {sep.join(rows)}\n{pad}}}"  # one copy of the joined rows


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
    if not isinstance(o, (list, tuple, dict)):
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    inner, sep = pad + "  ", ",\n" + pad + "  "
    if isinstance(o, dict):
        if all(issubclass(t, complex) for t in set(map(type, o.values()))):
            return _complex_table(o, pad)
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
