"""Per-layer spans recorded from outside the program.

`luequiv`'s stages call each other through module-level names that are
looked up at call time (for example `luequiv.decider.nullspace`).
`install` replaces those names with wrappers that record a span per call,
so the program's source stays untouched.  A span has a name, start, end,
the span that caused it and the operation it belongs to; spans stay in
memory until the run writes them out.  A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import itertools
from collections import defaultdict
from time import perf_counter


def _words(rec, args, out):
    rec.counts["invariants.words_evaluated"] += int(args[1].shape[0])


def _rows(rec, args, out):
    rec.counts["decider.system_rows_max"] = max(
        rec.counts["decider.system_rows_max"], int(out.shape[0])
    )


def _calls(counter):
    def count(rec, args, out):
        rec.counts[counter] += 1
    return count


# (module, attribute, span name, optional counter).  Each entry is a name
# one stage looks up in another; a layer reached through two modules is
# wrapped in both under one span name.
TARGETS = (
    ("luequiv.io", "validate_density", "states.validate_density", None),
    ("luequiv.invariants", "spectral_decompose", "states.spectral_decompose", None),
    ("luequiv.decider", "spectral_decompose", "states.spectral_decompose", None),
    ("luequiv.invariants", "power_traces", "invariants.power_traces", None),
    ("luequiv.decider", "power_traces", "invariants.power_traces", None),
    ("luequiv.invariants", "_canonical_letter_arrays", "invariants.word_enum", None),
    ("luequiv.invariants", "_batch_word_values", "invariants.word_eval", _words),
    ("luequiv.invariants", "_block_network_value", "invariants.block_sum", None),
    ("luequiv.invariants", "fingerprint_from_decomposition", "invariants.signature", None),
    ("luequiv.decider", "fingerprint_from_decomposition", "invariants.signature", None),
    ("luequiv.decider", "compare_signatures", "invariants.compare", None),
    ("luequiv.decider", "word_trace", "invariants.word_trace", _calls("invariants.word_trace_calls")),
    ("luequiv.decider", "_align_phases", "decider.align", None),
    ("luequiv.decider", "_certificate_system", "decider.system", _rows),
    ("luequiv.decider", "_search_pair", "decider.search", _calls("decider.attempts")),
    ("luequiv.decider", "certify", "decider.certify", _calls("decider.certify_calls")),
    ("luequiv.decider", "nullspace", "linalg.nullspace", _calls("linalg.nullspace_calls")),
    ("luequiv.decider", "polar_decompose", "linalg.polar", None),
    ("luequiv.cli", "decide", "decider.decide", None),
    ("luequiv.cli", "fingerprint", "invariants.fingerprint", None),
    ("luequiv.cli", "load_state", "io.load_state", None),
    ("luequiv.cli", "file_digest", "io.file_digest", None),
    ("luequiv.cli", "dump_json", "io.dump_json", None),
)


class Recorder:
    """Span stack, per-name self time and counters for one process."""

    def __init__(self):
        self.op = None
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, op, name, start, end)
        self._ids = itertools.count()
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, time covered by children]

    def span(self, name, fn, *args, **kwargs):
        sid = next(self._ids)
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.self_s[name] += (t1 - t0) - frame[1]
            if self._stack:
                self._stack[-1][1] += t1 - t0
            self.spans.append((sid, parent, self.op, name, t0, t1))

    def wrap(self, name, fn, on_call=None):
        def wrapper(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if on_call is not None:
                on_call(self, args, out)
            return out
        return wrapper


def install(rec: Recorder) -> None:
    """Route every name in TARGETS, and the balanced-key property, through ``rec``."""
    for module, attr, name, on_call in TARGETS:
        mod = importlib.import_module(module)
        setattr(mod, attr, rec.wrap(name, getattr(mod, attr), on_call))
    sig_cls = importlib.import_module("luequiv.invariants").InvariantSignature
    keys = sig_cls.balanced_words.fget
    sig_cls.balanced_words = property(rec.wrap("invariants.balanced_keys", keys))
