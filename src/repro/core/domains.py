"""Pluggable work domains: what the scheduler actually iterates over.

EASYPAP's pedagogy is about *which worker computes which piece of work
when*.  Nine PRs in, every piece of work used to be a tile of a square
2D :class:`~repro.core.tiling.TileGrid`; a :class:`WorkDomain`
generalizes that so regular grids, LU-style wavefront DAGs,
center-refined quadtrees and 3D stencil slabs all flow through the same
scheduling, telemetry, analysis and sweep machinery.

The protocol (duck-typed; :class:`TileGrid` is the first implementation
and registers as a virtual subclass):

* a sized, indexable, iterable container of *items* — each item is a
  :class:`~repro.core.tiling.Tile` (or subclass) whose ``index`` is its
  stable identity in enumeration order and whose ``(x, y, w, h)`` rect
  is its pixel/voxel footprint projected onto the trace plane;
* ``dependencies()`` — per-item predecessor index lists, or ``None``
  for dependency-free domains.  Enumeration order is always a valid
  topological order (edges only point backwards), the same contract
  OpenMP ``depend`` clauses satisfy;
* ``projection()`` — a render hint for monitors/easyview: ``"plane"``
  (items tile the image plane), ``"wave"`` (items are DAG blocks with
  a wavefront structure), ``"depth"`` (items are z-slabs drawn in the
  x/z plane);
* ``kind`` / ``dim_x`` / ``dim_y`` / ``dim_z`` / ``rows`` / ``cols`` —
  identity and projection-grid geometry;
* ``coverage_ok()`` — the partition invariant tests lean on.

Adding a workload shape to the whole stack is now a ``WorkDomain``
subclass plus a kernel file, nothing more (see ``docs/workloads.md``).
"""

from __future__ import annotations

import functools
from abc import ABC
from dataclasses import dataclass
from typing import Iterator

from repro.core.tiling import Tile, TileGrid
from repro.errors import ConfigError

__all__ = [
    "WorkDomain",
    "WaveTask",
    "Slab",
    "WavefrontDomain",
    "QuadtreeDomain",
    "Slab3DDomain",
    "DOMAINS",
    "domain_of",
    "make_domain",
]

#: the built-in domain kinds, in documentation order; drives both
#: ``RunConfig`` validation and the ``--domain`` CLI choices
DOMAINS = ("grid", "wavefront", "quadtree", "slab3d")


@dataclass(frozen=True)
class WaveTask(Tile):
    """One block operation of a wavefront factorization.

    ``row``/``col`` are the block coordinates ``(i, j)`` the task
    writes, ``(x, y, w, h)`` the corresponding pixel rectangle.  ``op``
    names the operation (``diag``/``row``/``col``/``trail``), ``step``
    the elimination step it belongs to, and ``wave`` the topological
    wavefront index (the Gantt-chart color).
    """

    op: str = "diag"
    step: int = 0
    wave: int = 0


@dataclass(frozen=True)
class Slab(Tile):
    """One z-slab of a 3D stencil.

    ``z0``/``d`` are the voxel depth range; the inherited tile rect is
    the slab's projection onto the x/z plane (``x=0, y=z0, w=dim_x,
    h=d``), so slab traces render as horizontal bands and the partition
    lint sees an exact 2D cover.
    """

    z0: int = 0
    d: int = 1


class WorkDomain(ABC):
    """Base class of the non-grid domains (see the module docstring).

    Concrete subclasses populate ``_items`` (topological enumeration
    order) and ``_deps`` (``None`` for dependency-free domains).
    """

    kind: str = "?"
    dim_x: int = 0
    dim_y: int = 0
    dim_z: int = 1
    rows: int = 0
    cols: int = 0

    _items: list
    _deps: list | None = None

    # -- container protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __getitem__(self, index: int):
        return self._items[index]

    # -- protocol ------------------------------------------------------------
    def dependencies(self) -> list | None:
        """Per-item predecessor index lists (aligned with enumeration
        order), or ``None`` when every item may run concurrently."""
        return self._deps

    def projection(self) -> str:
        return "plane"

    def coverage_ok(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({len(self._items)} items)"


# TileGrid predates the protocol and already satisfies it structurally
# (kind/dim_x/dim_y/dim_z/rows/cols/dependencies/projection/coverage_ok):
# register it so ``isinstance(domain, WorkDomain)`` holds for all kinds.
WorkDomain.register(TileGrid)


class WavefrontDomain(WorkDomain):
    """Blocked right-looking LU elimination as a task DAG.

    The ``dim x dim`` matrix is cut into ``nb x nb`` blocks of side
    ``block`` (edge blocks clipped).  Each elimination step ``k`` emits
    the classic four-op wave — ``diag(k,k)``, ``row(k,j)``/``col(i,k)``
    panel solves, ``trail(i,j)`` updates — with reader-after-writer and
    writer-after-writer edges inferred from the blocks each op touches.

    This is the workload where ``static`` scheduling *visibly loses*:
    a statically assigned CPU idles whenever its next task's
    predecessors are still running elsewhere, while dynamic dispatch
    keeps pulling whatever became ready.
    """

    kind = "wavefront"

    def __init__(self, dim: int, block: int):
        if dim <= 0:
            raise ConfigError(f"dim must be positive, got {dim}")
        if block <= 0 or block > dim:
            raise ConfigError(
                f"wavefront block {block} invalid for a {dim}px matrix"
            )
        self.dim_x = self.dim_y = dim
        self.dim_z = 1
        self.block = block
        nb = -(-dim // block)
        self.nb = nb
        self.rows = self.cols = nb
        self._items: list[WaveTask] = []
        self._deps: list[list[int]] = []
        last_writer: dict[tuple[int, int], int] = {}

        def rect(i: int, j: int) -> tuple[int, int, int, int]:
            x, y = j * block, i * block
            return (x, y, min(block, dim - x), min(block, dim - y))

        def add(op: str, k: int, i: int, j: int, reads: list, wave: int) -> int:
            idx = len(self._items)
            x, y, w, h = rect(i, j)
            self._items.append(WaveTask(
                x=x, y=y, w=w, h=h, row=i, col=j, index=idx,
                op=op, step=k, wave=wave,
            ))
            preds = set()
            for key in [*reads, (i, j)]:  # RAW on reads + WAW on the target
                t = last_writer.get(key)
                if t is not None:
                    preds.add(t)
            self._deps.append(sorted(preds))
            last_writer[(i, j)] = idx
            return idx

        for k in range(nb):
            add("diag", k, k, k, [], 3 * k)
            for j in range(k + 1, nb):
                add("row", k, k, j, [(k, k)], 3 * k + 1)
            for i in range(k + 1, nb):
                add("col", k, i, k, [(k, k)], 3 * k + 1)
            for i in range(k + 1, nb):
                for j in range(k + 1, nb):
                    add("trail", k, i, j, [(i, k), (k, j)], 3 * k + 2)

    def projection(self) -> str:
        return "wave"

    @property
    def waves(self) -> int:
        """Number of topological waves (``3 * nb - 2``)."""
        return max((t.wave for t in self._items), default=-1) + 1

    def block_rect(self, i: int, j: int) -> tuple[int, int, int, int]:
        """Pixel rectangle of block ``(i, j)`` (clipped at the edges)."""
        x, y = j * self.block, i * self.block
        return (x, y, min(self.block, self.dim_x - x),
                min(self.block, self.dim_y - y))

    def coverage_ok(self) -> bool:
        written = {(t.row, t.col) for t in self._items}
        return written == {(i, j) for i in range(self.nb) for j in range(self.nb)}


class QuadtreeDomain(WorkDomain):
    """A center-refined adaptive tiling.

    Starts from the regular ``tile_w x tile_h`` grid and recursively
    splits every tile that intersects the central disc (radius
    ``min(dim) / 4``) into quadrants, down to ``max_depth`` levels.
    This matches the center-heavy datasets (sandpile ``center``, heat
    sources): small tiles where the work is, big tiles where nothing
    happens — the sparse/adaptive tiling the scheduler literature calls
    for, while remaining an exact partition of the image.

    Items are plain :class:`Tile` s with varied sizes; ``row``/``col``
    are the coordinates of the coarse parent tile (the monitor's
    projection grid).  There are no ordering edges.
    """

    kind = "quadtree"

    def __init__(
        self, dim: int, tile_w: int, tile_h: int | None = None,
        *, dim_y: int | None = None, max_depth: int = 2,
    ):
        if max_depth < 0:
            raise ConfigError(f"max_depth must be >= 0, got {max_depth}")
        base = TileGrid(dim, tile_w, tile_h, dim_y=dim_y)
        self.dim_x = base.dim_x
        self.dim_y = base.dim_y
        self.dim_z = 1
        self.tile_w = base.tile_w
        self.tile_h = base.tile_h
        self.rows = base.rows
        self.cols = base.cols
        self.max_depth = max_depth
        cx, cy = self.dim_x / 2.0, self.dim_y / 2.0
        radius = min(self.dim_x, self.dim_y) / 4.0

        def hot(x: int, y: int, w: int, h: int) -> bool:
            # closest point of the rect to the image center within the disc?
            px = min(max(cx, x), x + w)
            py = min(max(cy, y), y + h)
            return (px - cx) ** 2 + (py - cy) ** 2 < radius * radius

        self._items: list[Tile] = []
        self._deps = None

        def emit(x, y, w, h, row, col, depth):
            if depth < max_depth and w >= 2 and h >= 2 and hot(x, y, w, h):
                w2, h2 = w // 2, h // 2
                emit(x, y, w2, h2, row, col, depth + 1)
                emit(x + w2, y, w - w2, h2, row, col, depth + 1)
                emit(x, y + h2, w2, h - h2, row, col, depth + 1)
                emit(x + w2, y + h2, w - w2, h - h2, row, col, depth + 1)
            else:
                self._items.append(Tile(
                    x=x, y=y, w=w, h=h, row=row, col=col,
                    index=len(self._items),
                ))

        for t in base:
            emit(t.x, t.y, t.w, t.h, t.row, t.col, 0)

    def coverage_ok(self) -> bool:
        return sum(t.area for t in self._items) == self.dim_x * self.dim_y


class Slab3DDomain(WorkDomain):
    """Slab decomposition of a 3D ``dim_x x dim_y x dim_z`` volume.

    Items are z-slabs of thickness ``slab_d`` (the last one clipped);
    slab ``s`` covers voxel planes ``[s * slab_d, ...)``.  Slabs are
    dependency-free within one Jacobi sweep (read ``temp``, write
    ``next``), so they flow through the ordinary worksharing path —
    the point is exercising schedulers and N-d footprints on work
    items that are *not* image tiles.
    """

    kind = "slab3d"

    def __init__(self, dim_x: int, dim_y: int, dim_z: int, slab_d: int):
        if dim_x <= 0 or dim_y <= 0 or dim_z <= 0:
            raise ConfigError(
                f"volume dims must be positive, got {dim_x}x{dim_y}x{dim_z}"
            )
        if slab_d <= 0 or slab_d > dim_z:
            raise ConfigError(
                f"slab depth {slab_d} invalid for a {dim_z}-deep volume"
            )
        self.dim_x = dim_x
        self.dim_y = dim_y
        self.dim_z = dim_z
        self.slab_d = slab_d
        nslabs = -(-dim_z // slab_d)
        self.rows = nslabs
        self.cols = 1
        self._items = []
        self._deps = None
        for s in range(nslabs):
            z0 = s * slab_d
            d = min(slab_d, dim_z - z0)
            # the tile rect is the x/z projection: slabs draw as bands
            self._items.append(Slab(
                x=0, y=z0, w=dim_x, h=d, row=s, col=0, index=s, z0=z0, d=d,
            ))

    def projection(self) -> str:
        return "depth"

    def coverage_ok(self) -> bool:
        return sum(t.d for t in self._items) == self.dim_z


def make_domain(config) -> WorkDomain:
    """The :class:`WorkDomain` a :class:`RunConfig` selects.

    The grid geometry knobs are reused across kinds: ``tile_w`` is the
    wavefront block side, ``tile_h`` the slab depth, ``dim_y``/``dim_z``
    the non-square/3D extents (0 = same as ``dim``).
    """
    kind = getattr(config, "domain", "grid")
    dim_z = (config.dim_z or config.dim) if kind == "slab3d" else 1
    return domain_of(kind, config.dim, config.dim_y or config.dim, dim_z,
                     config.tile_w, config.tile_h)


@functools.lru_cache(maxsize=8)
def domain_of(kind: str, dim: int, dim_y: int, dim_z: int,
              tile_w: int, tile_h: int) -> WorkDomain:
    """The domain of one geometry, built once per process and shared.

    Every run of a geometry gets the same object, so domains are
    read-only: items are frozen, and no consumer mutates the item or
    predecessor lists (``tests/test_domain_frames.py`` checks it).
    """
    if kind == "grid":
        return TileGrid(dim, tile_w, tile_h, dim_y=dim_y)
    if kind == "wavefront":
        return WavefrontDomain(dim, tile_w)
    if kind == "quadtree":
        return QuadtreeDomain(dim, tile_w, tile_h, dim_y=dim_y)
    if kind == "slab3d":
        return Slab3DDomain(dim, dim_y, dim_z, tile_h)
    raise ConfigError(
        f"unknown work domain {kind!r} (valid: {', '.join(DOMAINS)})"
    )
