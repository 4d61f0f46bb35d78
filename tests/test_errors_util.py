"""Tests for the error hierarchy and util helpers."""

import time

import pytest

from repro import errors
from repro.util.rng import DEFAULT_SEED, derive_rng, make_rng
from repro.util.timing import Stopwatch, format_duration


class TestErrors:
    def test_hierarchy(self):
        for exc in [
            errors.ConfigError,
            errors.KernelError,
            errors.UnknownKernelError("x"),
            errors.UnknownVariantError("k", "v"),
            errors.ScheduleError,
            errors.SimulationError,
            errors.DependencyError,
            errors.MpiError,
            errors.TraceError,
            errors.PlotError,
        ]:
            instance = exc if isinstance(exc, Exception) else exc("msg")
            assert isinstance(instance, errors.EasypapError)

    def test_unknown_kernel_suggests(self):
        e = errors.UnknownKernelError("foo", ["mandel", "blur"])
        assert "blur, mandel" in str(e)

    def test_unknown_variant_mentions_both(self):
        e = errors.UnknownVariantError("mandel", "bogus", ["seq"])
        assert "mandel" in str(e) and "bogus" in str(e) and "seq" in str(e)


class TestTiming:
    def test_format_duration(self):
        assert format_duration(0.579) == "579.000 ms"
        assert format_duration(0.000012) == "12.000 us"
        assert format_duration(0.0) == "0.000 ms"
        assert format_duration(1.5) == "1500.000 ms"

    def test_stopwatch_accumulates(self):
        sw = Stopwatch()
        sw.start()
        time.sleep(0.01)
        lap = sw.stop()
        assert lap >= 0.009
        assert sw.elapsed == pytest.approx(sum(sw.laps))

    def test_stopwatch_context_manager(self):
        with Stopwatch() as sw:
            time.sleep(0.005)
        assert sw.elapsed >= 0.004
        assert not sw.running

    def test_double_start_rejected(self):
        sw = Stopwatch().start()
        with pytest.raises(RuntimeError):
            sw.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_reset(self):
        sw = Stopwatch().start()
        sw.stop()
        sw.reset()
        assert sw.elapsed == 0.0 and sw.laps == []


class TestRng:
    def test_default_seed_reproducible(self):
        assert make_rng().integers(0, 100) == make_rng(DEFAULT_SEED).integers(0, 100)

    def test_explicit_seed(self):
        assert make_rng(7).random() == make_rng(7).random()
        assert make_rng(7).random() != make_rng(8).random()

    def test_derive_rng_independent_streams(self):
        a = derive_rng(make_rng(1), 0, "rank")
        b = derive_rng(make_rng(1), 1, "rank")
        assert a.random() != b.random()

    def test_derive_rng_deterministic(self):
        a = derive_rng(make_rng(1), 3).random()
        b = derive_rng(make_rng(1), 3).random()
        assert a == b

