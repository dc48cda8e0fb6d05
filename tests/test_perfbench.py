"""The benchmark's span tracer still fits the library's call signatures.

``perfbench/tracing.py`` wraps library functions by name and hashes some of
their arguments by position, so a signature change in the library can break
traced benchmark runs without failing anything else.  This test runs the
sequence-building path under ``instrument`` on one short record.  It only
reads ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import alarmsift
from alarmsift import harness
from conftest import make_record

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while being built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_build_sequences_traced(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    records = [make_record(n=1000)]
    subset = records[0].channels[:2]
    untraced = harness.build_sequences(records, 2, subset)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, alarmsift):
        traced = harness.build_sequences(records, 2, subset)
    names = [span.name for span in tracer.spans]
    assert names.count("scalogram.cwt") == 4  # 2 chunks x 2 channels
    assert names.count("scalogram.to_scalogram") == 4
    assert names.count("temporal.build_sequence") == 1
    assert names.count("net.stack_sequences") == 1
    assert np.array_equal(traced, untraced)
