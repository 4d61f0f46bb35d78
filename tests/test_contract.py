"""The contract suite: one generated strategy, one invariant list.

The paper's central promise is that a kernel computes the same image
whichever variant, schedule or backend runs it.  Instead of hand-built
cross-path matrices, one Hypothesis strategy draws valid-looking
:class:`RunConfig` keyword sets from the registries themselves — every
kernel x variant of ``list_kernels()``, every work domain of
``DOMAINS``, every schedule spelling, every backend of ``BACKENDS`` —
over odd and non-square images, tiles that do not divide them, team
sizes, jitter, iterations and (for ``mpi_*`` variants) one or two
in-process ranks.  Every draw is held to the same invariants:

1. the config is rejected with an :class:`EasypapError` or completes —
   never another exception;
2. the whole-frame fast path (``fastpath="auto"``) and the per-tile
   reference (``"off"``) agree bit for bit: image, virtual clock,
   counters, completed iterations and early stop (or both reject);
   where a frame ran, traced and monitored fast and reference runs
   also write the same ``.evt`` bytes and monitor records (the ``repr``
   of their event times and ``busy`` lists too, so both tiers publish
   one float type), and the traced run still took the fast path;
3. ``threads`` and ``procs`` compute the ``sim`` image, and an
   ``mpi_*`` variant computes the ``seq`` image;
4. a sweep point's ``run_point`` row is the same whether it runs live,
   is replayed from a work profile or is served by the memo (a second
   replay, which must be a memo hit): whole rows, clock, ``steals``
   and completed iterations included, compared after
   ``strip_provenance``; the same profile replayed at one more drawn
   point (team size, schedule, run index) gives that point's live row
   too; a point that cannot be replayed gives an error row naming
   :class:`ConfigError`;
5. a traced, monitored run keeps the image and the clock; its ``.evt``
   save/load gives equal events, and its Chrome export/import keeps
   every field, timestamps within 1 µs;
6. a ``clean`` static verdict means the lint of the footprint trace
   has no errors.

The default test runs a small derandomized budget plus the pinned
``@example`` configs (each one crashed an earlier version); the
``slow``-marked copy draws a larger derandomized budget.
"""

from __future__ import annotations

import dataclasses
import functools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analyze.lint import lint_results
from repro.core.config import BACKENDS, DOMAINS, RunConfig
from repro.core.engine import run
from repro.core.kernel import get_kernel, list_kernels
from repro.errors import EasypapError
from repro.expt.csvdb import strip_provenance
from repro.expt.executors.base import RunOptions, SweepJob, run_point
from repro.expt.replay import WorkProfileCache
from repro.omp.procs import shutdown_pools
from repro.sched.policies import SCHEDULE_NAMES
from repro.staticcheck.check import check_variant
from repro.trace.chrome import load_chrome_trace, save_chrome_trace
from repro.trace.format import load_trace, save_trace

#: every built-in kernel x variant (``--load``-ed kernels stay
#: registered for the process, so only the package's own modules count)
KERNEL_VARIANTS = [
    (name, v)
    for name in list_kernels()
    if type(get_kernel(name)).__module__.startswith("repro.kernels.")
    for v in type(get_kernel(name)).variant_names()
]


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools_at_end():
    yield
    shutdown_pools()


@st.composite
def run_configs(draw) -> dict:
    """Keyword sets for :class:`RunConfig`; many are deliberately invalid."""
    kernel, variant = draw(st.sampled_from(KERNEL_VARIANTS))
    dim = draw(st.integers(4, 48))
    dim_y = draw(st.one_of(st.just(0), st.integers(4, 48)))
    backend = draw(st.sampled_from(BACKENDS))
    # at most 8 tiles a side keeps one run in milliseconds
    return dict(
        kernel=kernel,
        variant=variant,
        dim=dim,
        dim_y=dim_y,
        tile_w=draw(st.integers(-(-dim // 8), dim)),
        tile_h=draw(st.integers(-(-(dim_y or dim) // 8), dim_y or dim)),
        domain=draw(st.one_of(st.just("grid"), st.sampled_from(DOMAINS))),
        schedule=draw(st.sampled_from(SCHEDULE_NAMES))
        + draw(st.sampled_from(["", ",1", ",2", ",3"])),
        backend=backend,
        # one process pool per team size: keep the procs pools small
        nthreads=draw(st.integers(1, 2 if backend == "procs" else 4)),
        iterations=draw(st.integers(1, 3)),
        jitter=draw(st.sampled_from([0.0, 0.05])),
        run_index=draw(st.integers(0, 2)),
        seed=draw(st.integers(0, 3)),
        mpi_np=draw(st.sampled_from([1, 2])) if variant.startswith("mpi_") else 0,
        mpi_backend="inproc",
        # not a RunConfig field: the second point invariant 4 replays
        replay_at=dict(
            nthreads=draw(st.integers(1, 4)),
            schedule=draw(st.sampled_from(SCHEDULE_NAMES))
            + draw(st.sampled_from(["", ",1", ",2", ",3"])),
            run_index=draw(st.integers(0, 2)),
        ),
    )


def pin(kernel: str, variant: str, **over) -> dict:
    """A full keyword set for an ``@example``."""
    kw = dict(kernel=kernel, variant=variant, dim=32, dim_y=0, tile_w=8, tile_h=8,
              domain="grid", schedule="dynamic", backend="sim", nthreads=2,
              iterations=2, jitter=0.0, run_index=0, seed=0, mpi_np=0,
              mpi_backend="inproc",
              replay_at=dict(nthreads=3, schedule="static", run_index=1))
    kw.update(over)
    return kw


@functools.cache
def static_report(kernel: str, variant: str):
    return check_variant(get_kernel(kernel), variant)


def attempt(cfg: RunConfig):
    """The run's result, or the :class:`EasypapError` rejecting it."""
    try:
        return run(cfg)
    except EasypapError as exc:
        return exc


def same_run(a, b) -> None:
    assert np.array_equal(a.image, b.image)
    assert a.virtual_time == b.virtual_time  # exact, not approx
    assert a.counters == b.counters
    assert a.completed_iterations == b.completed_iterations
    assert a.early_stop == b.early_stop


def _published_floats(res) -> tuple:
    """A run's event times and monitor ``busy`` lists."""
    times = [(e.start, e.end) for e in res.trace.events] if res.trace else []
    return times, [rec.busy for rec in res.monitor.records] if res.monitor else []


def same_observation(fast, off) -> None:
    """Equal ``.evt`` bytes and monitor records, rank by rank."""
    pairs = list(zip(fast.rank_results or [fast], off.rank_results or [off], strict=True))
    with tempfile.TemporaryDirectory() as tmp:
        for i, (a, b) in enumerate(pairs):
            assert (a.trace is None) == (b.trace is None)
            if a.trace is not None:
                got = save_trace(a.trace, Path(tmp) / f"fast{i}.evt").read_bytes()
                assert got == save_trace(b.trace, Path(tmp) / f"off{i}.evt").read_bytes()
            records = [r.monitor.records if r.monitor else [] for r in (a, b)]
            # one float type on both tiers, not only one value
            assert repr(_published_floats(a)) == repr(_published_floats(b))
            for x, y in zip(*records, strict=True):
                for f in dataclasses.fields(x):
                    got, want = getattr(x, f.name), getattr(y, f.name)
                    if isinstance(got, np.ndarray):
                        assert np.array_equal(got, want), f.name
                    else:
                        assert got == want, f.name


def same_trace_io(trace) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        evt = load_trace(save_trace(trace, Path(tmp) / "t.evt"))
        chrome = load_chrome_trace(save_chrome_trace(trace, Path(tmp) / "t.json"))
    assert evt.meta == trace.meta
    assert evt.events == trace.events
    assert chrome.meta == trace.meta
    assert len(chrome.events) == len(trace.events)

    def order(events):  # the loader re-sorts; ties must not depend on rounding
        return sorted(events, key=lambda e: (e.cpu, e.iteration, e.kind, e.x, e.y, e.start))

    for got, want in zip(order(chrome.events), order(trace.events)):
        assert abs(got.start - want.start) <= 1e-6
        assert abs(got.end - want.end) <= 1e-6
        assert got == dataclasses.replace(want, start=got.start, end=got.end)


def check_contract(kw: dict) -> None:
    kw = dict(kw)
    replay_at = kw.pop("replay_at")
    try:
        cfg = RunConfig(**kw)
    except EasypapError:
        return  # invariant 1: rejected up front
    sim = cfg.with_(backend="sim")

    # 2. fast path == reference path, rejections included
    ref = attempt(sim)
    off = attempt(sim.with_(fastpath="off"))
    assert type(ref) is type(off), (ref, off)
    if isinstance(ref, EasypapError):
        # a real backend rejects whatever the simulator rejects
        if cfg.backend != "sim":
            assert isinstance(attempt(cfg), EasypapError)
        return
    same_run(ref, off)
    if ref.fastpath_regions:
        # a frame ran: instrumentation keeps it, and observes the reference
        observed = sim.with_(trace=True, monitoring=True,
                             debug="M" if cfg.mpi_np else "")
        fast_obs = run(observed)
        off_obs = run(observed.with_(fastpath="off"))
        assert fast_obs.fastpath_regions > 0
        same_run(fast_obs, off_obs)
        same_observation(fast_obs, off_obs)

    # 3. every backend and the mpi_* decomposition compute one image;
    # real backends may refuse more (closure bodies cannot cross procs)
    if cfg.backend != "sim":
        other = attempt(cfg)
        if not isinstance(other, EasypapError):
            assert np.array_equal(other.image, ref.image), cfg.backend
            assert other.completed_iterations == ref.completed_iterations
            assert other.early_stop == ref.early_stop
    if cfg.mpi_np:
        seq = run(sim.with_(variant="seq", mpi_np=0))
        assert np.array_equal(seq.image, ref.image)

    # 4. live, replayed and memo-hit rows of the point are one row
    job = SweepJob(0, sim, sim.run_index)
    live = run_point(job, RunOptions())
    assert live["status"] == "ok", live["error"]
    assert live["time_us"] == round(ref.virtual_time * 1e6, 3)
    cache = WorkProfileCache()
    replayed = run_point(job, RunOptions(reuse_work=True), cache)
    if replayed["status"] == "error":
        assert replayed["error"].startswith("ConfigError"), replayed["error"]
    else:
        # the memo keeps the replayed float itself, not the rounded cell
        assert cache.simulate(sim) == ref.virtual_time
        hit = run_point(job, RunOptions(reuse_work=True), cache)
        assert (replayed["memo"], hit["memo"]) == ("miss", "hit")
        assert strip_provenance(replayed) == strip_provenance(live)
        assert strip_provenance(hit) == strip_provenance(live)
        # the same profile, replayed at another point, is that point's live row
        other = SweepJob(0, sim.with_(**replay_at), replay_at["run_index"])
        other_replayed = run_point(other, RunOptions(reuse_work=True), cache)
        assert strip_provenance(other_replayed) == strip_provenance(run_point(other, RunOptions()))

    # 5. instrumentation observes without perturbing; traces round-trip
    traced = run(sim.with_(trace=True, monitoring=True, footprints=True,
                           debug="M" if cfg.mpi_np else ""))
    assert np.array_equal(traced.image, ref.image)
    assert traced.virtual_time == ref.virtual_time
    ranks = traced.rank_results or [traced]
    for r in ranks:
        if r.trace is not None:
            same_trace_io(r.trace)

    # 6. a clean static proof is never contradicted by the traced run
    static = static_report(cfg.kernel, cfg.variant)
    if static.verdict == "clean":
        lint = lint_results(get_kernel(cfg.kernel), cfg.variant, ranks,
                            mpi_np=cfg.mpi_np, static=static)
        assert not lint.errors, lint.describe()


CONTRACT_SETTINGS = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(max_examples=40, **CONTRACT_SETTINGS)
@given(kw=run_configs())
# a whole-frame fast path indexing a grid the forced domain replaced
@example(kw=pin("life", "seq", dim=24, tile_w=4, tile_h=4, domain="quadtree"))
@example(kw=pin("life", "omp_tiled", dim=24, tile_w=4, tile_h=4, domain="quadtree"))
# bodies that need their own domain's items, under another domain
@example(kw=pin("heat3d", "omp_tiled", domain="quadtree"))
@example(kw=pin("heat3d", "seq", domain="wavefront"))
@example(kw=pin("lu_wavefront", "omp_tiled", domain="quadtree"))
@example(kw=pin("lu_wavefront", "seq", domain="slab3d"))
# dim x dim state written into a dim_y x dim image
@example(kw=pin("heat", "seq", dim_y=24))
@example(kw=pin("heat", "omp_tiled", dim_y=40))
@example(kw=pin("sandpile", "seq", dim_y=24))
@example(kw=pin("sandpile", "omp_tiled", dim_y=40))
@example(kw=pin("sandpile", "omp_quadtree", dim_y=24))
@example(kw=pin("life", "omp_tiled", dim_y=24))
@example(kw=pin("mandel", "ocl", dim_y=24))
# quadtree children sharing their parent's change flag: last writer won
@example(kw=pin("life", "mpi_omp", dim=13, tile_w=4, tile_h=3, domain="quadtree",
                schedule="static", nthreads=1, mpi_np=1))
# replayed rows recorded no steals, and the asked-for iterations of a
# kernel that stabilized early
@example(kw=pin("mandel", "omp_tiled", schedule="nonmonotonic:dynamic", nthreads=4))
@example(kw=pin("life", "omp_tiled", dim=8, tile_w=4, tile_h=4, iterations=3))
# the frames of the non-grid domains: LU by panels over clipped blocks,
# and the sandpile quadtree in one step
@example(kw=pin("lu_wavefront", "omp_tiled", dim=30, schedule="static", nthreads=3))
@example(kw=pin("sandpile", "omp_quadtree", dim=30, iterations=3))
# a task region's replay draws the live run's noise, region by region
@example(kw=pin("cc", "omp_task", jitter=0.05,
                replay_at=dict(nthreads=4, schedule="dynamic", run_index=2)))
def test_contract(kw):
    check_contract(kw)


@pytest.mark.slow
@settings(max_examples=600, **CONTRACT_SETTINGS)
@given(kw=run_configs())
def test_contract_wide(kw):
    check_contract(kw)
