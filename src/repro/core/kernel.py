"""Kernel and variant registry.

EASYPAP kernels are C functions found by naming convention
(``mandel_compute_omp_tiled``).  Here a kernel is a class with methods
marked by the :func:`variant` decorator; the registry maps
``--kernel``/``--variant`` names to them.

A variant has signature ``variant(self, ctx, nb_iter) -> int``: it
performs ``nb_iter`` iterations (using ``for it in ctx.iterations(nb_iter)``)
and returns 0, or — like EASYPAP kernels that detect stabilization
(Game of Life) — the iteration number at which the computation reached
a steady state.
"""

from __future__ import annotations

import importlib.util
import os
import re
import sys
from typing import Callable, Type

from repro.errors import ExecutionError, KernelError, UnknownKernelError, UnknownVariantError

__all__ = [
    "Kernel",
    "variant",
    "TileBody",
    "register_kernel",
    "get_kernel",
    "list_kernels",
    "load_kernel_module",
    "loaded_kernel_files",
]

_KERNELS: dict[str, Type["Kernel"]] = {}

#: built-in kernel name -> the module whose import registers it
_BUILTIN_KERNELS: dict[str, str] = {
    "blur": "repro.kernels.blur",
    "cc": "repro.kernels.connected",
    "heat": "repro.kernels.heat",
    "heat3d": "repro.kernels.heat3d",
    "invert": "repro.kernels.simple",
    "life": "repro.kernels.life",
    "lu_wavefront": "repro.kernels.lu_wavefront",
    "mandel": "repro.kernels.mandel",
    "none": "repro.kernels.simple",
    "pixelize": "repro.kernels.simple",
    "sandpile": "repro.kernels.sandpile",
    "scrollup": "repro.kernels.scrollup",
    "spin": "repro.kernels.spin",
    "transpose": "repro.kernels.simple",
}

#: absolute paths given to ``load_kernel_module``, in load order — the
#: ``procs`` backend replays them in pool workers so ``--load``-ed
#: kernels resolve across the process boundary
_LOADED_KERNEL_FILES: list[str] = []


def variant(name: str) -> Callable:
    """Mark a kernel method as the compute function of variant ``name``."""

    def deco(fn: Callable) -> Callable:
        fn._variant_name = name
        return fn

    return deco


class Kernel:
    """Base class for kernels.

    Lifecycle (driven by the engine)::

        init(ctx)      -- allocate kernel data (EASYPAP *_init)
        draw(ctx)      -- fill the initial image (EASYPAP *_draw)
        <variant>(ctx, nb_iter)
        refresh_img(ctx) -- sync the image from internal data structures
        finalize(ctx)

    Whole-frame fast path (``compute_frame``)
    -----------------------------------------
    A kernel may additionally register whole-frame batch implementations
    by passing ``frame=self.compute_frame`` (any method name works; the
    built-in kernels use ``compute_frame*``) to ``ctx.parallel_for`` /
    ``ctx.parallel_reduce`` / ``ctx.sequential_for``.  The contract:

    * ``frame(ctx, items) -> works`` performs **all** side effects the
      per-item bodies would (image/data writes, change flags) in one
      vectorized call and returns the per-item work vector, aligned
      with ``items`` and bit-identical to the per-item returns.  For
      ``parallel_reduce`` it returns ``(works, value)`` where ``value``
      is the reduction over all items.
    * Returning ``None`` declines the batch (e.g. an item subset the
      frame cannot prove equivalent) and falls back to per-item bodies.
    * The engine only calls the frame when monitoring, tracing and
      footprint collection are all off (``ctx.fastpath_active()``), so
      per-task instrumentation never silently disappears.
    """

    #: registry name; subclasses must set it
    name: str = "?"

    #: variants that legitimately skip tiles (lazy evaluation, MPI
    #: bands...) — the analyze lint exempts them from the
    #: partition-completeness check
    lazy_variants: frozenset[str] = frozenset()

    #: the work domain this kernel needs when the user leaves
    #: ``--domain`` at its default ("grid"); kernels whose iteration
    #: space is not the tile grid (wavefront factorizations, 3D
    #: stencils) set it so plain ``easypap -k <kernel>`` just works.
    #: An explicit non-grid ``--domain`` always wins.
    default_domain: str = "grid"

    #: per-variant overrides of ``default_domain`` (e.g. a quadtree
    #: variant of an otherwise grid kernel)
    variant_domains: dict[str, str] = {}

    @classmethod
    def domain_for(cls, variant_name: str) -> str:
        """The domain kind this kernel/variant pair wants by default."""
        return cls.variant_domains.get(variant_name, cls.default_domain)

    #: variant name -> unbound method, filled by ``__init_subclass__``
    variants: dict[str, Callable]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        found: dict[str, Callable] = {}
        for klass in reversed(cls.__mro__):
            for attr in vars(klass).values():
                vname = getattr(attr, "_variant_name", None)
                if vname is not None:
                    found[vname] = attr
        cls.variants = found

    # -- lifecycle hooks (default no-ops) -----------------------------------
    def init(self, ctx) -> None:
        """Allocate kernel-specific data in ``ctx.data``."""

    def draw(self, ctx) -> None:
        """Fill the initial image."""

    def refresh_img(self, ctx) -> None:
        """Update ``ctx.img`` from internal data structures (display)."""

    def finalize(self, ctx) -> None:
        """Release resources / final checks."""

    # -- variant lookup ----------------------------------------------------------
    @classmethod
    def variant_names(cls) -> list[str]:
        return sorted(cls.variants)

    def compute_fn(self, variant_name: str) -> Callable:
        try:
            fn = self.variants[variant_name]
        except KeyError:
            raise UnknownVariantError(
                self.name, variant_name, list(self.variants)
            ) from None
        return fn.__get__(self, type(self))


class TileBody:
    """A tile body that can cross a process boundary.

    Wraps a *bound kernel method* with signature ``method(ctx, item)``;
    locally it behaves like the closure it replaces, and its ``spec``
    (kernel name, method name) lets pool workers re-resolve the same
    method against their own kernel instance and shadow context.
    """

    __slots__ = ("ctx", "method", "spec")

    def __init__(self, ctx, method):
        kernel = getattr(method, "__self__", None)
        name = getattr(kernel, "name", None)
        if not name or name == "?":
            raise ExecutionError(
                "ctx.body() needs a bound method of a registered kernel "
                f"(got {method!r})"
            )
        self.ctx = ctx
        self.method = method
        self.spec = (name, method.__func__.__name__)

    def __call__(self, item):
        return self.method(self.ctx, item)


def register_kernel(cls: Type[Kernel]) -> Type[Kernel]:
    """Class decorator adding a kernel to the registry."""
    if not issubclass(cls, Kernel):
        raise KernelError(f"{cls!r} is not a Kernel subclass")
    if cls.name in (None, "?", ""):
        raise KernelError(f"kernel class {cls.__name__} must set a name")
    # a built-in name belongs to its module, imported yet or not
    if _KERNELS.get(cls.name, cls) is not cls or (
        _BUILTIN_KERNELS.get(cls.name, cls.__module__) != cls.__module__
    ):
        raise KernelError(f"kernel {cls.name!r} already registered")
    _KERNELS[cls.name] = cls
    return cls


def get_kernel(name: str) -> Kernel:
    """Instantiate a registered kernel (kernels are stateless between runs:
    per-run state lives in ``ctx.data``).  A built-in kernel's module is
    imported on first request; no other kernel module is."""
    if name not in _KERNELS and name in _BUILTIN_KERNELS:
        importlib.import_module(_BUILTIN_KERNELS[name])
    try:
        cls = _KERNELS[name]
    except KeyError:
        raise UnknownKernelError(name, list(_BUILTIN_KERNELS.keys() | _KERNELS.keys())) from None
    return cls()


def list_kernels() -> list[str]:
    _ensure_builtin_kernels()
    return sorted(_KERNELS)


def _ensure_builtin_kernels() -> None:
    """Import every built-in kernel module (each registers its kernels)."""
    for module in _BUILTIN_KERNELS.values():
        importlib.import_module(module)


def load_kernel_module(path: str):
    """Execute a Python file that registers extra kernels (``--load``).

    The module is cached in ``sys.modules`` under a name derived from its
    absolute path, so loading the same file twice (e.g. several CLI runs
    in one process, or tests) does not re-register its kernels.  No
    built-in kernel module is imported: a file claiming a built-in name
    is rejected by the name table alone.
    """
    path = os.path.abspath(path)
    if not os.path.isfile(path):
        raise KernelError(f"kernel file not found: {path}")
    modname = "easypap_ext_" + re.sub(r"\W", "_", path)
    if modname in sys.modules:
        if path not in _LOADED_KERNEL_FILES:
            _LOADED_KERNEL_FILES.append(path)
        return sys.modules[modname]
    spec = importlib.util.spec_from_file_location(modname, path)
    if spec is None or spec.loader is None:
        raise KernelError(f"cannot load kernel file {path!r}")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[modname] = mod
    try:
        spec.loader.exec_module(mod)
    except Exception:
        del sys.modules[modname]
        raise
    _LOADED_KERNEL_FILES.append(path)
    return mod


def loaded_kernel_files() -> list[str]:
    """The kernel files loaded so far (replayed in procs pool workers)."""
    return list(_LOADED_KERNEL_FILES)
