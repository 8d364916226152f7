"""Unit tests for the thread-allocation recommendations (§4.2)."""

import numpy as np
import pytest

from repro.core import (
    concurrency_latency_curve,
    recommend_compaction_threads,
    recommend_flush_threads,
)
from repro.errors import AnalysisError


# ---------------------------------------------------------------- allocation

def test_flush_threads_equal_cores():
    assert recommend_flush_threads(16) == 16
    assert recommend_flush_threads(8) == 8
    with pytest.raises(AnalysisError):
        recommend_flush_threads(0)


def test_concurrency_latency_curve_bins_windows():
    window_times = np.arange(0.0, 10.0, 0.05)
    concurrency = np.repeat(np.arange(10), 20)[: len(window_times)]
    latency = 0.3 + 0.05 * concurrency
    levels, means = concurrency_latency_curve(
        window_times, latency, window_times, concurrency.astype(float)
    )
    assert list(levels) == list(range(10))
    assert means[3] == pytest.approx(0.3 + 0.15)


def test_curve_needs_enough_levels():
    t = np.arange(0.0, 1.0, 0.05)
    with pytest.raises(AnalysisError):
        concurrency_latency_curve(t, np.ones_like(t), t, np.zeros_like(t))


def test_recommend_threads_finds_headroom_knee():
    """Flat latency up to the headroom, rising fast beyond — the knee
    is the recommended allocation (Figure 15's shape)."""
    levels = np.arange(0.0, 17.0)
    latency = np.where(levels <= 4, 0.4 + 0.005 * levels,
                       0.4 + 0.3 * (levels - 4))
    assert recommend_compaction_threads(levels, latency) in (4, 5)


def test_recommend_threads_fallback_on_flat_curve():
    levels = np.arange(0.0, 8.0)
    latency = np.full_like(levels, 0.4)
    assert recommend_compaction_threads(levels, latency, fallback=4) == 4
