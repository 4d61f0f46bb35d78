"""Tests for pluggable work domains (wavefront DAGs, quadtrees, slabs).

Three layers are covered here:

* domain construction invariants (coverage, topological order, waves)
  — property-tested with hypothesis;
* the policy-aware DAG simulator against its closed-form makespan and
  against the recorded event loop (dependency respect, per-CPU
  non-overlap, work conservation) on every domain kind;
* end-to-end kernel runs: lu_wavefront and heat3d bit-identical across
  backends, the static-vs-dynamic gap on dependency waves, quadtree ==
  tiled on sandpile, N-d footprints round-tripping through traces, the
  sweep's ``domain`` provenance column, and the domain-aware views.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RunConfig
from repro.core.domains import (
    DOMAINS,
    QuadtreeDomain,
    Slab3DDomain,
    WavefrontDomain,
    WorkDomain,
    make_domain,
)
from repro.core.engine import run
from repro.core.tiling import TileGrid
from repro.errors import ConfigError
from repro.sched.costmodel import CostModel
from repro.sched.dag_sim import dag_policy_makespan, simulate_dag_policy
from repro.sched.policies import parse_schedule
from tests.conftest import make_config

ZERO = CostModel(1.0, 0.0, 0.0, 0.0)


def _domain_of_kind(kind: str) -> WorkDomain:
    cfg = dict(kernel="mandel", variant="omp_tiled", dim=32, tile_w=8, tile_h=8)
    if kind == "slab3d":
        cfg["kernel"] = "heat3d"
    if kind == "wavefront":
        cfg["kernel"] = "lu_wavefront"
    return make_domain(RunConfig(domain=kind, **cfg))


# --------------------------------------------------------------------------
# Protocol + construction invariants
# --------------------------------------------------------------------------


class TestProtocol:
    def test_tilegrid_is_a_workdomain(self):
        grid = TileGrid(32, 8)
        assert isinstance(grid, WorkDomain)
        assert grid.dependencies() is None
        assert grid.projection() == "plane"
        assert grid.coverage_ok()

    @pytest.mark.parametrize("kind", DOMAINS)
    def test_every_kind_satisfies_the_contract(self, kind):
        dom = _domain_of_kind(kind)
        assert isinstance(dom, WorkDomain)
        assert dom.kind == kind
        assert len(dom) > 0
        items = list(dom)
        assert [t.index for t in items] == list(range(len(dom)))
        assert dom[0] is items[0]
        assert dom.coverage_ok()
        deps = dom.dependencies()
        if deps is not None:
            assert len(deps) == len(dom)
            for i, preds in enumerate(deps):
                assert all(0 <= p < i for p in preds)  # topological order

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(kernel="mandel", variant="omp_tiled", domain="torus")

    def test_make_domain_unknown_kind(self):
        class Fake:
            domain = "torus"
            dim = 32
            dim_y = 0
            dim_z = 0
            tile_w = 8
            tile_h = 8

        with pytest.raises(ConfigError):
            make_domain(Fake())


class TestWavefrontDomain:
    @settings(max_examples=30, deadline=None)
    @given(nb=st.integers(min_value=1, max_value=6),
           block=st.integers(min_value=1, max_value=8))
    def test_invariants(self, nb, block):
        dom = WavefrontDomain(nb * block, block)
        assert dom.nb == nb
        # one diag + 2(nb-k-1) panels + (nb-k-1)^2 trails per step
        assert len(dom) == sum(m * m for m in range(1, nb + 1))
        assert dom.waves == 3 * nb - 2
        assert dom.coverage_ok()
        deps = dom.dependencies()
        for i, preds in enumerate(deps):
            assert all(0 <= p < i for p in preds)
        # diag(0,0) has no predecessors; everything later hangs off it
        assert deps[0] == []
        if len(dom) > 1:
            assert all(deps[i] for i in range(1, len(dom)))

    def test_clipped_edge_blocks(self):
        dom = WavefrontDomain(20, 8)  # 3x3 blocks, last one 4px wide
        assert dom.nb == 3
        x, y, w, h = dom.block_rect(2, 2)
        assert (x, y, w, h) == (16, 16, 4, 4)

    def test_wave_indices_follow_steps(self):
        dom = WavefrontDomain(32, 8)
        for t in dom:
            assert t.wave == 3 * t.step + {"diag": 0, "row": 1, "col": 1,
                                           "trail": 2}[t.op]

    def test_bad_geometry(self):
        with pytest.raises(ConfigError):
            WavefrontDomain(0, 8)
        with pytest.raises(ConfigError):
            WavefrontDomain(16, 32)


class TestQuadtreeDomain:
    @settings(max_examples=30, deadline=None)
    @given(dim=st.sampled_from([16, 24, 32, 48]),
           tile=st.sampled_from([4, 8, 16]),
           depth=st.integers(min_value=0, max_value=3))
    def test_exact_partition(self, dim, tile, depth):
        dom = QuadtreeDomain(dim, tile, max_depth=depth)
        paint = np.zeros((dom.dim_y, dom.dim_x), dtype=np.int32)
        for t in dom:
            paint[t.y : t.y + t.h, t.x : t.x + t.w] += 1
        assert (paint == 1).all()  # disjoint AND covering
        assert dom.coverage_ok()
        assert dom.dependencies() is None

    def test_center_is_refined(self):
        dom = QuadtreeDomain(64, 16, max_depth=2)
        smallest = min(t.area for t in dom)
        center = [t for t in dom if t.x <= 32 < t.x + t.w and t.y <= 32 < t.y + t.h]
        border = [t for t in dom if t.x == 0 and t.y == 0]
        assert all(t.area == smallest for t in center)
        assert all(t.area == 16 * 16 for t in border)
        assert len(dom) > (64 // 16) ** 2

    def test_depth_zero_is_the_plain_grid(self):
        dom = QuadtreeDomain(32, 8, max_depth=0)
        grid = TileGrid(32, 8)
        assert [(t.x, t.y, t.w, t.h) for t in dom] == [
            (t.x, t.y, t.w, t.h) for t in grid
        ]

    def test_parent_projection_coords(self):
        dom = QuadtreeDomain(64, 16, max_depth=2)
        for t in dom:
            assert t.row == t.y // 16 and t.col == t.x // 16


class TestSlab3DDomain:
    @settings(max_examples=30, deadline=None)
    @given(dim_z=st.integers(min_value=1, max_value=40),
           slab=st.integers(min_value=1, max_value=16))
    def test_slabs_cover_the_depth(self, dim_z, slab):
        slab = min(slab, dim_z)
        dom = Slab3DDomain(16, 16, dim_z, slab)
        assert dom.coverage_ok()
        assert sum(s.d for s in dom) == dim_z
        z = 0
        for s in dom:
            assert s.z0 == z and s.d >= 1
            assert (s.x, s.y, s.w, s.h) == (0, s.z0, 16, s.d)
            z += s.d
        assert dom.projection() == "depth"

    def test_bad_geometry(self):
        with pytest.raises(ConfigError):
            Slab3DDomain(16, 16, 0, 4)
        with pytest.raises(ConfigError):
            Slab3DDomain(16, 16, 8, 16)


# --------------------------------------------------------------------------
# DAG simulator: closed form == timeline, schedule semantics
# --------------------------------------------------------------------------


class TestDagPolicy:
    @settings(max_examples=40, deadline=None)
    @given(nb=st.integers(min_value=1, max_value=4),
           ncpus=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=999),
           spec=st.sampled_from(["static", "static,2", "dynamic",
                                 "dynamic,2", "guided"]))
    def test_makespan_matches_timeline(self, nb, ncpus, seed, spec):
        """The closed-form replay path must agree bit-for-bit with the
        timeline the event loop records."""
        dom = WavefrontDomain(nb * 8, 8)
        rnd = np.random.default_rng(seed)
        costs = rnd.uniform(0.5, 2.0, size=len(dom)).tolist()
        policy = parse_schedule(spec)
        deps = dom.dependencies()
        tl = simulate_dag_policy(costs, deps, policy, ncpus, model=ZERO)
        closed = dag_policy_makespan(costs, deps, policy, ncpus, model=ZERO)
        assert closed == tl.makespan  # bit-identical, not approx
        tl.validate()

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(DOMAINS),
           ncpus=st.integers(min_value=1, max_value=4),
           spec=st.sampled_from(["static", "dynamic"]))
    def test_work_conservation_and_non_overlap(self, kind, ncpus, spec):
        """Every item runs exactly once and no CPU runs two at a time,
        whatever the domain kind."""
        dom = _domain_of_kind(kind)
        costs = [float(t.area) for t in dom]
        deps = dom.dependencies() or [[] for _ in dom]
        tl = simulate_dag_policy(costs, deps, parse_schedule(spec), ncpus,
                                 items=list(dom), model=ZERO)
        assert len(tl) == len(dom)  # work conservation
        assert sorted(e.item.index for e in tl.execs) == list(range(len(dom)))
        by_cpu: dict[int, list] = {}
        for e in tl.execs:
            by_cpu.setdefault(e.cpu, []).append((e.start, e.end))
        for spans in by_cpu.values():
            spans.sort()
            for (s0, e0), (s1, _) in zip(spans, spans[1:]):
                assert e0 <= s1 + 1e-12  # per-CPU non-overlap
        end = {e.meta["tid"]: e.end for e in tl.execs}
        start = {e.meta["tid"]: e.start for e in tl.execs}
        for i, preds in enumerate(deps):
            for p in preds:
                assert end[p] <= start[i] + 1e-12

    def test_static_idles_on_unmet_deps(self):
        # a two-task chain split across two CPUs: static waits, so the
        # second CPU's task cannot start before the first finishes
        deps = [[], [0]]
        tl = simulate_dag_policy([1.0, 1.0], deps, parse_schedule("static"),
                                 2, model=ZERO)
        assert tl.makespan == pytest.approx(2.0)


# --------------------------------------------------------------------------
# End-to-end kernel runs
# --------------------------------------------------------------------------


class TestLuWavefront:
    CFG = dict(kernel="lu_wavefront", dim=64, tile_w=16, tile_h=16,
               iterations=1, seed=11)

    def test_factorization_is_correct(self):
        # finalize() raises if L @ U does not reconstruct the matrix
        r = run(make_config(variant="omp_tiled", **self.CFG))
        assert r.completed_iterations == 1

    def test_seq_equals_parallel(self):
        a = run(make_config(variant="seq", **self.CFG))
        b = run(make_config(variant="omp_tiled", nthreads=4, **self.CFG))
        assert np.array_equal(a.context.data["mat"], b.context.data["mat"])

    def test_bit_identical_across_backends(self):
        ref = run(make_config(variant="omp_tiled", **self.CFG))
        for backend in ("threads", "procs"):
            other = run(make_config(variant="omp_tiled", backend=backend,
                                    nthreads=2, **self.CFG))
            assert np.array_equal(
                ref.context.data["mat"], other.context.data["mat"]
            ), backend

    def test_static_visibly_loses_to_dynamic(self):
        """The tentpole's scheduling lesson: dependency waves starve a
        fixed assignment, dynamic dispatch keeps CPUs busy."""
        static = run(make_config(variant="omp_tiled", schedule="static",
                                 nthreads=4, **self.CFG))
        dynamic = run(make_config(variant="omp_tiled", schedule="dynamic",
                                  nthreads=4, **self.CFG))
        assert np.array_equal(
            static.context.data["mat"], dynamic.context.data["mat"]
        )
        assert dynamic.virtual_time < static.virtual_time

    def test_trace_records_dag_metadata(self):
        r = run(make_config(variant="omp_tiled", trace=True, **self.CFG))
        dom = WavefrontDomain(64, 16)
        events = [e for e in r.trace.events if e.extra.get("rmode") == "dag"]
        assert len(events) == len(dom)
        assert r.trace.meta.extra.get("domain") == "wavefront"
        end = {e.extra["tid"]: e.end for e in events}
        start = {e.extra["tid"]: e.start for e in events}
        deps = dom.dependencies()
        for e in events:
            for p in e.extra["preds"]:
                assert end[p] <= start[e.extra["tid"]] + 1e-12
            assert list(e.extra["preds"]) == deps[e.extra["tid"]]


class TestHeat3D:
    CFG = dict(kernel="heat3d", dim=32, tile_w=8, tile_h=8, iterations=3,
               seed=5)

    def test_seq_equals_parallel(self):
        a = run(make_config(variant="seq", **self.CFG))
        b = run(make_config(variant="omp_tiled", nthreads=4, **self.CFG))
        assert np.array_equal(a.context.data["temp3"], b.context.data["temp3"])

    def test_bit_identical_across_backends(self):
        ref = run(make_config(variant="omp_tiled", **self.CFG))
        for backend in ("threads", "procs"):
            other = run(make_config(variant="omp_tiled", backend=backend,
                                    nthreads=2, **self.CFG))
            assert np.array_equal(
                ref.context.data["temp3"], other.context.data["temp3"]
            ), backend

    def test_footprints_are_3d_and_race_free(self):
        from repro.analyze import check_races
        from repro.analyze.footprint import tasks_by_region

        r = run(make_config(variant="omp_tiled", trace=True, footprints=True,
                            **self.CFG))
        regions = [reg for rt in tasks_by_region(r.trace)
                   for t in rt.tasks for reg in (*t.reads, *t.writes)]
        assert any(len(reg) == 7 for reg in regions)  # (buf,x,y,w,h,z,d)
        assert check_races(r.trace).clean

    def test_3d_footprints_cross_the_procs_reply(self):
        """A procs worker's reply must carry the regions' z/depth intact."""
        r = run(make_config(variant="omp_tiled", backend="procs", nthreads=2,
                            trace=True, footprints=True, **self.CFG))
        regions = [reg for e in r.trace.events
                   for reg in (*e.reads, *e.writes)]
        assert any(len(reg) == 7 and reg[6] > 1 for reg in regions)


class TestQuadtreeKernel:
    def test_quadtree_equals_tiled(self):
        cfg = dict(kernel="sandpile", dim=64, tile_w=16, tile_h=16,
                   iterations=20, arg="center")
        a = run(make_config(variant="omp_tiled", **cfg))
        b = run(make_config(variant="omp_quadtree", **cfg))
        assert np.array_equal(a.image, b.image)

    def test_trace_has_varied_tile_sizes(self):
        r = run(make_config(kernel="sandpile", variant="omp_quadtree", dim=64,
                            tile_w=16, tile_h=16, iterations=2, arg="center",
                            trace=True))
        sizes = {(e.w, e.h) for e in r.trace.events if e.has_tile}
        assert len(sizes) > 1  # refined center tiles + coarse border tiles


class TestNonSquareGrid:
    def test_rect_grid_geometry(self):
        grid = TileGrid(64, 16, 8, dim_y=32)
        assert grid.dim_x == 64 and grid.dim_y == 32
        assert grid.rows == 4 and grid.cols == 4
        assert sum(t.area for t in grid) == 64 * 32

    def test_non_square_run_matches_seq(self):
        cfg = dict(kernel="mandel", dim=64, dim_y=32, tile_w=16, tile_h=8,
                   iterations=2)
        a = run(make_config(variant="seq", **cfg))
        b = run(make_config(variant="omp_tiled", nthreads=4, **cfg))
        assert a.image.shape == (32, 64)
        assert np.array_equal(a.image, b.image)


class TestPlainKernelsUnderOtherDomains:
    """An idempotent per-rect kernel runs under any decomposition: the
    pixels are the same, only the work items differ."""

    @pytest.mark.parametrize("kind", ["wavefront", "quadtree", "slab3d"])
    def test_mandel_image_is_domain_invariant(self, kind):
        base = run(make_config(kernel="mandel", variant="omp_tiled",
                               dim=32, tile_w=8, tile_h=8, iterations=1))
        other = run(make_config(kernel="mandel", variant="omp_tiled",
                                dim=32, tile_w=8, tile_h=8, iterations=1,
                                domain=kind))
        assert np.array_equal(base.image, other.image)


# --------------------------------------------------------------------------
# Sweep provenance + views
# --------------------------------------------------------------------------


class TestDomainSweep:
    def test_domain_column_recorded(self, tmp_path):
        from repro.expt.csvdb import read_rows
        from repro.expt.sweep_cli import main as sweep_main

        csv = tmp_path / "domains.csv"
        rc = sweep_main([
            "-k", "mandel", "-v", "omp_tiled", "-s", "32", "-g", "8",
            "-i", "1", "--threads", "2", "--schedule", "dynamic",
            "--domain", "grid,wavefront", "--csv", str(csv), "-q",
        ])
        assert rc == 0
        rows = read_rows(str(csv))
        assert len(rows) == 2
        assert {r["domain"] for r in rows} == {"grid", "wavefront"}
        assert all(r["status"] == "ok" for r in rows)


class TestDomainViews:
    def test_wavefront_gantt_and_depths(self, tmp_path):
        from repro.view.domains import wave_depths, wavefront_gantt_svg

        r = run(make_config(kernel="lu_wavefront", variant="omp_tiled",
                            dim=64, tile_w=16, tile_h=16, iterations=1,
                            trace=True))
        events = [e for e in r.trace.events if e.has_tile]
        depth = wave_depths(events)
        dom = WavefrontDomain(64, 16)
        # longest-path depth recomputed from the trace == the domain's
        # wave labels (the trace needs no extra fields for the chart)
        for t, e in zip(dom, sorted(events, key=lambda e: e.extra["tid"])):
            assert depth[e.extra["tid"]] == t.wave
        svg = wavefront_gantt_svg(r.trace).tostring()
        assert "waves" in svg and "<svg" in svg
        out = wavefront_gantt_svg(r.trace).save(tmp_path / "wave.svg")
        assert out.exists()

    def test_tiling_map_renders_irregular_tiles(self):
        from repro.view.domains import tiling_map_svg

        r = run(make_config(kernel="sandpile", variant="omp_quadtree",
                            dim=64, tile_w=16, tile_h=16, iterations=2,
                            arg="center", trace=True))
        svg = tiling_map_svg(r.trace).tostring()
        assert svg.count("<rect") > (64 // 16) ** 2  # refined > coarse grid

    def test_divergence_map_from_gpu_trace(self):
        from repro.view.domains import divergence_map_svg

        r = run(make_config(kernel="mandel", variant="ocl", dim=64,
                            tile_w=8, tile_h=8, iterations=1, trace=True))
        svg = divergence_map_svg(r.trace).tostring()
        assert "divergence" in svg
        assert svg.count("<rect") >= 64  # one per work-group + frame
        assert r.counters.get("gpu_lockstep_work", 0) >= r.counters.get(
            "gpu_lane_work", 1
        )
