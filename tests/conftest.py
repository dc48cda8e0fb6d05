import tracemalloc

import numpy as np
import pytest

from alarmsift.records import (AlarmType, CHANNEL_ORDER, Record, SynthSpec,
                               synth_dataset)


def make_record(record_id="rec-0", n=1000, fs=250.0, channels=CHANNEL_ORDER,
                alarm_type=AlarmType.ASYSTOLE, label=False, rng=None,
                samples=None):
    if samples is None:
        rng = rng or np.random.default_rng(0)
        samples = rng.standard_normal((len(channels), n))
    return Record(record_id=record_id, alarm_type=alarm_type, label=label,
                  fs=fs, channels=channels, samples=samples)


def traced_peak(fn) -> int:
    """Peak bytes traced by ``tracemalloc`` during one call ``fn()``, above
    what was traced when it started.  numpy reports its array buffers to
    ``tracemalloc``, so the peak counts every array the call holds at once,
    whatever the allocator does with freed pages."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="session")
def small_synth():
    """24 records, 0.5 true ratio; shared across tests to amortize generation."""
    return synth_dataset(SynthSpec(n=24, true_ratio=0.5), seed=42)
