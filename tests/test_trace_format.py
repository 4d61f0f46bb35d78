"""Tests for the .evt trace file format."""

import json

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.events import Trace, TraceEvent, TraceMeta
from repro.trace.format import default_trace_path, load_trace, save_trace


def sample_trace(n=5):
    meta = TraceMeta(kernel="mandel", variant="omp_tiled", dim=64, tile_w=16,
                     tile_h=16, ncpus=2, schedule="dynamic", iterations=2)
    events = [
        TraceEvent(iteration=1 + i // 3, cpu=i % 2, start=float(i),
                   end=i + 0.5, x=i * 16 % 64, y=0, w=16, h=16,
                   extra={"index": i})
        for i in range(n)
    ]
    return Trace(meta, events)


class TestRoundtrip:
    def test_save_load_identity(self, tmp_path):
        t = sample_trace()
        p = save_trace(t, tmp_path / "t.evt")
        loaded = load_trace(p)
        assert loaded.meta == t.meta
        assert loaded.events == t.events

    def test_empty_trace(self, tmp_path):
        t = Trace(TraceMeta(kernel="none"))
        loaded = load_trace(save_trace(t, tmp_path / "e.evt"))
        assert len(loaded) == 0
        assert loaded.meta.kernel == "none"

    def test_parent_dirs_created(self, tmp_path):
        p = save_trace(sample_trace(), tmp_path / "a" / "b" / "t.evt")
        assert p.exists()

    def test_default_trace_path(self):
        p = default_trace_path(label="prev")
        assert p.name == "ezv_trace_prev.evt"


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="not found"):
            load_trace(tmp_path / "nope.evt")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.evt"
        p.write_text("")
        with pytest.raises(TraceError, match="empty"):
            load_trace(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.evt"
        p.write_text("not json\n")
        with pytest.raises(TraceError, match="header"):
            load_trace(p)

    def test_wrong_version(self, tmp_path):
        p = tmp_path / "v.evt"
        p.write_text(json.dumps({"easypap_trace": 99, "meta": {}}) + "\n")
        with pytest.raises(TraceError, match="version"):
            load_trace(p)

    def test_bad_event_line_reports_lineno(self, tmp_path):
        p = save_trace(sample_trace(2), tmp_path / "t.evt")
        lines = p.read_text().splitlines()
        lines[2] = '{"broken": true'
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match=":3"):
            load_trace(p)

    def test_truncation_detected(self, tmp_path):
        p = save_trace(sample_trace(4), tmp_path / "t.evt")
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TraceError, match="truncated"):
            load_trace(p)

    def test_blank_lines_tolerated(self, tmp_path):
        p = save_trace(sample_trace(2), tmp_path / "t.evt")
        p.write_text(p.read_text().replace("\n", "\n\n", 1))
        loaded = load_trace(p)
        assert len(loaded) == 2


class TestUnencodable:
    """A value JSON cannot encode fails before the file is opened."""

    def _bad_trace(self):
        t = sample_trace(3)
        t.events[1] = TraceEvent(iteration=1, cpu=1, start=1.0, end=1.5,
                                 extra={"index": np.int64(1)})
        return t

    def test_error_names_event_index_and_type(self, tmp_path):
        with pytest.raises(TraceError, match=r"event 1\b.*int64"):
            save_trace(self._bad_trace(), tmp_path / "t.evt")

    def test_existing_file_left_byte_identical(self, tmp_path):
        p = save_trace(sample_trace(3), tmp_path / "t.evt")
        before = p.read_bytes()
        with pytest.raises(TraceError):
            save_trace(self._bad_trace(), p)
        assert p.read_bytes() == before
        assert len(load_trace(p)) == 3

    def test_no_file_or_directory_created(self, tmp_path):
        with pytest.raises(TraceError):
            save_trace(self._bad_trace(), tmp_path / "sub" / "t.evt")
        assert list(tmp_path.iterdir()) == []

    def test_unencodable_meta_extra(self, tmp_path):
        t = sample_trace(1)
        t.meta.extra["ranks"] = {1, 2}
        with pytest.raises(TraceError, match="header.*set"):
            save_trace(t, tmp_path / "t.evt")
        assert list(tmp_path.iterdir()) == []


class TestForwardCompat:
    """Events written by newer versions may carry keys this reader does
    not know (the ``reads``/``writes`` footprint extension set the
    precedent); loading must skip them instead of failing."""

    def test_unknown_event_keys_ignored(self):
        d = sample_trace(1).events[0].to_dict()
        d["gpu_queue"] = 3  # hypothetical future fields
        d["spans"] = [[0.0, 1.0]]
        e = TraceEvent.from_dict(d)
        assert e.iteration == 1 and e.cpu == 0 and e.w == 16
        assert not hasattr(e, "gpu_queue")

    def test_unknown_keys_in_file(self, tmp_path):
        p = save_trace(sample_trace(2), tmp_path / "t.evt")
        lines = p.read_text().splitlines()
        evt = json.loads(lines[1])
        evt["future_field"] = {"nested": [1, 2, 3]}
        lines[1] = json.dumps(evt)
        p.write_text("\n".join(lines) + "\n")
        loaded = load_trace(p)
        assert len(loaded) == 2
        assert loaded.events[0].extra == {"index": 0}

    def test_footprints_roundtrip(self, tmp_path):
        events = [
            TraceEvent(
                iteration=1, cpu=0, start=0.0, end=1.0, x=0, y=0, w=16, h=16,
                reads=(("cur", 0, 0, 17, 17),),
                writes=(("next", 0, 0, 16, 16),),
            )
        ]
        t = Trace(TraceMeta(kernel="blur"), events)
        loaded = load_trace(save_trace(t, tmp_path / "f.evt"))
        assert loaded.events[0].reads == (("cur", 0, 0, 17, 17),)
        assert loaded.events[0].writes == (("next", 0, 0, 16, 16),)

    def test_empty_footprints_omitted_from_serialization(self):
        d = sample_trace(1).events[0].to_dict()
        assert "reads" not in d and "writes" not in d


class TestEngineIntegration:
    def test_engine_trace_roundtrips(self, tmp_path):
        from repro.core.engine import run
        from tests.conftest import make_config

        r = run(make_config(kernel="mandel", variant="omp_tiled", trace=True))
        p = save_trace(r.trace, tmp_path / "run.evt")
        loaded = load_trace(p)
        assert len(loaded) == len(r.trace)
        assert loaded.meta.kernel == "mandel"
        assert loaded.meta.schedule == "dynamic"
