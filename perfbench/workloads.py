"""The four workloads: their op pools, set-up, references and checks.

Every workload is a closed loop driven by one process: the driver runs
one op, checks it, then runs the next.  The seed picks the op order
(a fresh shuffle per cycle), the team sizes and the kernel seeds; the
program only ever sees the generated ``RunConfig``s and sweep grids.
The multiset of kernels and sizes is fixed per workload, so a seed
changes which variants meet which team size, not how much work a
cycle holds.

References are computed outside every timed interval: for a kernel run,
the per-tile reference path of the same config (``fastpath="off"``,
uninstrumented; ``life seq`` for the MPI run) gives the expected image
digest and, on the simulator, the expected virtual clock.  For sweeps, a
serial live sweep of the same grid gives the expected rows.
"""

from __future__ import annotations

import csv
import hashlib
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = ["Op", "WORKLOADS", "make_workload", "image_digest"]


@dataclass
class Op:
    """One timed operation: ``key`` names its reference, ``kind`` its
    role in the mix (kept in results so order and mix can be checked)."""

    key: str
    kind: str
    config: Any = None
    #: CPUs the op keeps busy (its time is scaled by a reference on as many)
    cpus: int = 1


@dataclass
class Outcome:
    """What a checked op contributes to the end-to-end metrics."""

    ok: bool
    frames: int = 0
    points: int = 0
    digest: str = ""
    reason: str = ""


def image_digest(image) -> str:
    return hashlib.sha1(
        repr(image.shape).encode() + image.tobytes()
    ).hexdigest()[:16]


class Workload:
    """Base class: op pool, set-up, references, execution and checks."""

    name = ""
    #: pin the driver thread to one CPU after set-up (not where ops fork
    #: worker processes, which would inherit the pin)
    pin_driver = True
    #: some ops keep two CPUs busy (procs pool, MPI ranks)
    two_cpu_ops = False

    def __init__(self, work: Path, tiny: bool = False) -> None:
        self.work = work
        self.tiny = tiny
        self.refs: dict[str, Any] = {}

    # -- generated inputs --------------------------------------------------
    def pool(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def cycle(self, rng: random.Random, ops: list[Op]) -> list[Op]:
        """The next cycle of the closed loop: every op once, in an order
        drawn from the seed."""
        order = list(ops)
        rng.shuffle(order)
        return order

    def headline(self) -> list[str]:
        """Arguments of ``python -m ...`` for the cold command."""
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------------
    def setup(self) -> None:
        """Everything a first timed op needs (counted in ``setup_s``)."""

    def teardown(self) -> None:
        """Stop pools and other processes the set-up started."""

    # -- per op -------------------------------------------------------------------
    def reference(self, op: Op) -> Any:
        raise NotImplementedError

    def prepare(self, op: Op, index: int) -> None:
        """Untimed per-op preparation (fresh files)."""

    def execute(self, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op, result: Any) -> Outcome:
        raise NotImplementedError

    def cleanup(self, op: Op) -> None:
        """Untimed removal of per-op files."""


# ---------------------------------------------------------------------------
# Kernel-run workloads
# ---------------------------------------------------------------------------


class RunWorkload(Workload):
    """Ops are ``engine.run`` calls on generated ``RunConfig``s."""

    #: (key, RunConfig fields) of the op pool; ``threads`` marks ops whose
    #: team size the seed draws, ``seeded`` ops whose kernel seed it draws
    SPECS: list[tuple[str, dict]] = []
    TEAMS = (2, 4, 8)

    def pool(self, rng: random.Random) -> list[Op]:
        from repro.core.config import RunConfig

        ops = []
        for key, spec in self.SPECS:
            fields = dict(spec)
            if self.tiny:
                fields.update(self.tiny_fields(fields))
            if fields.pop("threads", False):
                fields["nthreads"] = rng.choice(self.TEAMS)
            if fields.pop("seeded", False):
                fields["seed"] = rng.randrange(1, 1 << 30)
            if "schedule" in fields and isinstance(fields["schedule"], tuple):
                fields["schedule"] = rng.choice(fields["schedule"])
            config = RunConfig(**fields)
            cpus = 2 if config.backend == "procs" or config.mpi_np else 1
            ops.append(Op(key=key, kind=key, config=config, cpus=cpus))
        return ops

    def tiny_fields(self, fields: dict) -> dict:
        dim = max(32, fields["dim"] // 4)
        tile = min(fields.get("tile_w", 16), dim // 2)
        return {"dim": dim, "tile_w": tile, "tile_h": tile,
                "iterations": min(fields.get("iterations", 1), 2)}

    def setup(self) -> None:
        from repro.core.engine import run  # noqa: F401  (import is set-up)
        from repro.core.kernel import get_kernel

        for _key, spec in self.SPECS:
            get_kernel(spec["kernel"])

    def reference_config(self, config):
        return config.with_(fastpath="off", trace=False, monitoring=False)

    def reference(self, op: Op) -> Any:
        from repro.core.engine import run

        result = run(self.reference_config(op.config))
        return image_digest(result.image), result.virtual_time

    def execute(self, op: Op) -> Any:
        from repro.core.engine import run

        return run(op.config)

    def check(self, op: Op, result: Any) -> Outcome:
        digest = image_digest(result.image)
        want_digest, want_clock = self.refs[op.key]
        frames = result.completed_iterations
        if digest != want_digest:
            return Outcome(False, frames, 1, digest, f"{op.key}: image digest mismatch")
        if op.config.backend == "sim" and not op.config.mpi_np and (
            result.virtual_time != want_clock
        ):
            return Outcome(
                False, frames, 1, digest,
                f"{op.key}: virtual clock {result.virtual_time!r} != {want_clock!r}",
            )
        return Outcome(True, frames, 1, digest)


class PerfFrames(RunWorkload):
    name = "perf_frames"
    SPECS = [
        ("mandel.static", dict(kernel="mandel", variant="omp_tiled", dim=256, tile_w=32,
                               tile_h=32, iterations=3, schedule="static", threads=True)),
        ("mandel.dynamic", dict(kernel="mandel", variant="omp_tiled", dim=256, tile_w=16,
                                tile_h=16, iterations=3,
                                schedule=("dynamic,1", "dynamic,2", "dynamic,4"),
                                threads=True)),
        ("blur", dict(kernel="blur", variant="omp_tiled", dim=256, tile_w=32, tile_h=32,
                      iterations=3, schedule=("static", "guided"), threads=True)),
        ("life", dict(kernel="life", variant="omp_tiled", dim=512, tile_w=32, tile_h=32,
                      iterations=10, arg="random", schedule="static", threads=True,
                      seeded=True)),
        ("heat", dict(kernel="heat", variant="omp_tiled", dim=512, tile_w=32, tile_h=32,
                      iterations=5, schedule="static", threads=True)),
        ("sandpile", dict(kernel="sandpile", variant="omp_tiled", dim=256, tile_w=32,
                          tile_h=32, iterations=20, schedule="static", threads=True)),
    ]

    def headline(self) -> list[str]:
        return ["repro.cli", "-k", "mandel", "-v", "omp_tiled", "-s", "512", "-i", "5", "-n"]


class Instrumented(RunWorkload):
    name = "instrumented"
    SPECS = [
        ("mandel.static", dict(kernel="mandel", variant="omp_tiled", dim=128, tile_w=32,
                               tile_h=32, iterations=1, schedule="static", threads=True)),
        ("mandel.steal", dict(kernel="mandel", variant="omp_tiled", dim=128, tile_w=32,
                              tile_h=32, iterations=1, schedule="nonmonotonic:dynamic",
                              threads=True)),
        ("blur", dict(kernel="blur", variant="omp_tiled", dim=128, tile_w=16, tile_h=16,
                      iterations=1, schedule=("guided", "dynamic,2"), threads=True)),
        ("lu", dict(kernel="lu_wavefront", variant="omp_tiled", dim=128, tile_w=16,
                    tile_h=16, iterations=1, schedule="dynamic", threads=True)),
        ("quadtree", dict(kernel="sandpile", variant="omp_quadtree", dim=128, tile_w=16,
                          tile_h=16, iterations=1, schedule="dynamic", threads=True)),
        ("life", dict(kernel="life", variant="omp_tiled", dim=256, tile_w=32, tile_h=32,
                      iterations=4, arg="random", schedule="dynamic,2", threads=True,
                      seeded=True)),
    ]

    def pool(self, rng: random.Random) -> list[Op]:
        ops = super().pool(rng)
        for op in ops:
            op.config = op.config.with_(trace=True, monitoring=True)
        return ops

    def headline(self) -> list[str]:
        return ["repro.cli", "-k", "mandel", "-v", "omp_tiled", "-s", "256", "-i", "1",
                "-t", "-m", "--trace-file", str(self.work / "cold.evt"), "-n"]

    def execute(self, op: Op) -> Any:
        from repro.trace.format import save_trace

        result = super().execute(op)
        path = save_trace(result.trace, self.work / "op.evt")
        return result, path

    def check(self, op: Op, result: Any) -> Outcome:
        result, path = result
        out = super().check(op, result)
        if out.ok and not path.stat().st_size:
            return Outcome(False, out.frames, 1, out.digest, f"{op.key}: empty trace file")
        return out

    def cleanup(self, op: Op) -> None:
        (self.work / "op.evt").unlink(missing_ok=True)


class RealParallel(RunWorkload):
    name = "real_parallel"
    WORKERS = 2
    two_cpu_ops = True
    SPECS = [
        ("pymandel.procs", dict(kernel="pymandel", variant="omp_tiled", dim=128, tile_w=16,
                                tile_h=16, iterations=1, schedule="dynamic,1",
                                backend="procs", nthreads=WORKERS)),
        ("pymandel.seq", dict(kernel="pymandel", variant="omp_tiled", dim=128, tile_w=16,
                              tile_h=16, iterations=1, schedule="dynamic,1",
                              backend="threads", nthreads=1)),
        ("life.mpi", dict(kernel="life", variant="mpi_omp", dim=256, tile_w=32, tile_h=32,
                          iterations=10, arg="random", nthreads=1, mpi_np=WORKERS,
                          seeded=True)),
    ]

    @property
    def kernel_file(self) -> Path:
        return Path(__file__).resolve().parent / "kernels" / "pymandel.py"

    def headline(self) -> list[str]:
        return ["repro.cli", "--load", str(self.kernel_file), "-k", "pymandel",
                "-v", "omp_tiled", "-s", "64", "-ts", "16", "-i", "1",
                "--backend", "procs", "--nb-threads", str(self.WORKERS), "-n"]

    def setup(self) -> None:
        from repro.core.config import RunConfig
        from repro.core.engine import run
        from repro.core.kernel import load_kernel_module

        load_kernel_module(str(self.kernel_file))
        super().setup()
        # the pools are ready once a region has run on them: spawn,
        # worker imports and the first session handshake are set-up
        run(RunConfig(kernel="pymandel", variant="omp_tiled", dim=16, tile_w=8, tile_h=8,
                      backend="procs", nthreads=self.WORKERS))
        run(RunConfig(kernel="life", variant="mpi_omp", dim=32, tile_w=16, tile_h=16,
                      nthreads=1, mpi_np=self.WORKERS))

    def teardown(self) -> None:
        from repro.mpi.substrate import shutdown_mpi_pools
        from repro.omp.procs import shutdown_pools

        shutdown_pools()
        shutdown_mpi_pools()

    def reference_config(self, config):
        if config.mpi_np:
            return config.with_(variant="seq", mpi_np=0, nthreads=1)
        return config.with_(backend="sim", fastpath="off")


# ---------------------------------------------------------------------------
# Sweep workload
# ---------------------------------------------------------------------------


class Sweep(Workload):
    name = "sweep"
    pin_driver = False
    KINDS = ("live", "reuse_cold", "reuse_warm", "resume", "procs2")
    THREADS = (1, 2, 4, 8)
    SCHEDULES = ("static", "dynamic,1", "dynamic,2", "guided")

    def pool(self, rng: random.Random) -> list[Op]:
        dim = 32 if self.tiny else 64
        self.options = {
            "-k ": ["mandel", "blur"], "-v ": ["omp_tiled"],
            "-s ": [dim], "-g ": [16], "-i ": [2],
        }
        self.icvs = {
            "OMP_NUM_THREADS=": sorted(rng.sample(self.THREADS, 2)),
            "OMP_SCHEDULE=": sorted(rng.sample(self.SCHEDULES, 2)),
        }
        return [Op(key="grid", kind=kind) for kind in self.KINDS]

    def headline(self) -> list[str]:
        return ["repro.expt", "-k", "mandel", "-v", "omp_tiled", "-s", "64", "-g", "16",
                "-i", "2", "--threads", "1,2,4,8", "--schedule", "static",
                "--schedule", "dynamic,2", "--runs", "2", "--csv",
                str(self.work / "cold.csv"), "-q"]

    def _execute(self, csv_path: Path, **kwargs) -> list[dict]:
        from repro.expt.exptools import execute

        return execute(
            "easypap", self.icvs, self.options, runs=1, csv_path=csv_path, **kwargs
        )

    def setup(self) -> None:
        # the warm cache is set-up: one replayed pass over the grid
        self.warm_cache = self.work / "cache-warm"
        shutil.rmtree(self.warm_cache, ignore_errors=True)
        prime = self.work / "prime.csv"
        self._execute(prime, reuse_work=True, cache_dir=self.warm_cache)
        prime.unlink()

    def reference(self, op: Op) -> Any:
        from repro.expt.exptools import point_key

        ref_csv = self.work / "ref.csv"
        ref_csv.unlink(missing_ok=True)
        rows = self._execute(ref_csv)
        lines = ref_csv.read_text().splitlines(keepends=True)
        half = 1 + (len(lines) - 1) // 2
        (self.work / "half.csv").write_text("".join(lines[:half]))
        self.half_rows = half - 1
        return {point_key(r): r["time_us"] for r in rows}

    def prepare(self, op: Op, index: int) -> None:
        self.csv = self.work / f"op{index}.csv"
        self.cold_cache = self.work / f"cache-cold{index}"
        if op.kind == "resume":
            shutil.copyfile(self.work / "half.csv", self.csv)

    def execute(self, op: Op) -> Any:
        kind = op.kind
        if kind == "live":
            return self._execute(self.csv)
        if kind == "reuse_cold":
            return self._execute(self.csv, reuse_work=True, cache_dir=self.cold_cache)
        if kind == "reuse_warm":
            return self._execute(self.csv, reuse_work=True, cache_dir=self.warm_cache)
        if kind == "resume":
            return self._execute(self.csv, resume=True)
        return self._execute(self.csv, executor="local-procs", workers=2)

    def check(self, op: Op, result: Any) -> Outcome:
        from repro.expt.exptools import point_key

        expected = self.refs[op.key]
        with self.csv.open(newline="") as fh:
            on_disk = list(csv.DictReader(fh))
        want_new = len(expected) - (self.half_rows if op.kind == "resume" else 0)
        frames = sum(int(r["completed"]) for r in result)
        out = Outcome(True, frames, len(result))
        if len(result) != want_new or len(on_disk) != len(expected):
            out.ok, out.reason = False, (
                f"{op.kind}: {len(result)} new rows, {len(on_disk)} in CSV, "
                f"grid has {len(expected)}"
            )
        elif any(r["status"] != "ok" for r in on_disk):
            out.ok, out.reason = False, f"{op.kind}: status=error row"
        elif {point_key(r) for r in on_disk} != set(expected):
            out.ok, out.reason = False, f"{op.kind}: CSV points differ from the grid"
        else:
            for r in result:
                if r["time_us"] != expected[point_key(r)]:
                    out.ok, out.reason = False, f"{op.kind}: time_us differs from live"
                    break
        if op.kind == "reuse_warm" and out.ok and any(r["memo"] != "hit" for r in result):
            out.ok, out.reason = False, "reuse_warm: memo miss on a warm cache"
        return out

    def cleanup(self, op: Op) -> None:
        self.csv.unlink(missing_ok=True)
        shutil.rmtree(self.cold_cache, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PerfFrames, Instrumented, RealParallel, Sweep)}


def make_workload(name: str, work: Path, tiny: bool = False) -> Workload:
    return WORKLOADS[name](work, tiny)
