"""The traced benchmark wraps module-level names of the package; each must
exist, or `lubench/run.py --trace 1` fails when it installs its wrappers."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "lubench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("lubench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(module, attr) for module, attr, _, _ in mod.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_trace_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_balanced_keys_property_resolves():
    sig_cls = importlib.import_module("luequiv.invariants").InvariantSignature
    assert isinstance(sig_cls.balanced_words, property)
