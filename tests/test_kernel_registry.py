"""Tests for the kernel/variant registry."""

import pytest

from repro.core.kernel import (
    _BUILTIN_KERNELS,
    _KERNELS,
    Kernel,
    _ensure_builtin_kernels,
    get_kernel,
    list_kernels,
    register_kernel,
    variant,
)
from repro.errors import KernelError, UnknownKernelError, UnknownVariantError
from tests.conftest import fresh_python


class TestRegistry:
    def test_builtin_kernels_registered(self):
        names = list_kernels()
        for expected in ["mandel", "blur", "life", "cc", "invert", "transpose",
                         "pixelize", "sandpile", "none"]:
            assert expected in names

    def test_unknown_kernel(self):
        with pytest.raises(UnknownKernelError) as ei:
            get_kernel("nope")
        assert "mandel" in str(ei.value)  # helpful suggestion list

    def test_unknown_variant(self):
        k = get_kernel("mandel")
        with pytest.raises(UnknownVariantError) as ei:
            k.compute_fn("gpu_magic")
        assert "omp_tiled" in str(ei.value)

    def test_variant_lookup_is_bound(self):
        k = get_kernel("mandel")
        fn = k.compute_fn("seq")
        assert callable(fn)
        assert getattr(fn, "__self__", None) is k

    def test_fresh_instance_per_get(self):
        assert get_kernel("mandel") is not get_kernel("mandel")

    def test_variant_names_sorted(self):
        k = get_kernel("blur")
        names = k.variant_names()
        assert names == sorted(names)
        assert "omp_tiled_opt" in names


class TestRegistration:
    def test_variant_decorator_collects(self):
        class MyKernel(Kernel):
            name = "my_test_kernel_x"

            @variant("v1")
            def compute_v1(self, ctx, n):
                return 0

        assert "v1" in MyKernel.variants

    def test_inherited_variants(self):
        class Base(Kernel):
            name = "base_x"

            @variant("common")
            def compute_common(self, ctx, n):
                return 0

        class Child(Base):
            name = "child_x"

            @variant("extra")
            def compute_extra(self, ctx, n):
                return 0

        assert set(Child.variants) >= {"common", "extra"}

    def test_register_requires_name(self):
        class Nameless(Kernel):
            pass

        with pytest.raises(KernelError):
            register_kernel(Nameless)

    def test_register_requires_kernel_subclass(self):
        with pytest.raises(KernelError):
            register_kernel(object)  # type: ignore[arg-type]

    def test_duplicate_name_rejected(self):
        class Dup(Kernel):
            name = "mandel"

        with pytest.raises(KernelError):
            register_kernel(Dup)

    def test_override_in_subclass_wins(self):
        class A(Kernel):
            name = "a_x"

            @variant("v")
            def compute_v(self, ctx, n):
                return 1

        class B(A):
            name = "b_x"

            @variant("v")
            def compute_v2(self, ctx, n):
                return 2

        assert B.variants["v"] is B.__dict__["compute_v2"]


BUILTIN_NAMES = [
    "blur", "cc", "heat", "heat3d", "invert", "life", "lu_wavefront", "mandel",
    "none", "pixelize", "sandpile", "scrollup", "spin", "transpose",
]


class TestLoadByName:
    """``get_kernel`` imports one kernel module; the name table keeps
    listing, hints and duplicate checks complete without importing the
    others.  Cases that depend on what is *not* imported yet run in a
    fresh interpreter."""

    def test_table_and_registry_agree(self):
        _ensure_builtin_kernels()
        for name, module in _BUILTIN_KERNELS.items():
            assert _KERNELS[name].__module__ == module
        builtin = {n for n, cls in _KERNELS.items() if cls.__module__.startswith("repro.kernels.")}
        assert builtin == set(_BUILTIN_KERNELS)

    def test_list_kernels_has_every_builtin(self):
        assert sorted(_BUILTIN_KERNELS) == BUILTIN_NAMES
        proc = fresh_python("-c", "from repro.core.kernel import list_kernels; "
                                  "print(' '.join(list_kernels()))")
        assert proc.stdout.split() == BUILTIN_NAMES, proc.stderr

    def test_get_kernel_registers_only_that_kernel(self):
        proc = fresh_python("-c", "import sys\n"
                                  "from repro.core.kernel import _KERNELS, get_kernel\n"
                                  "get_kernel('mandel')\n"
                                  "print(' '.join(_KERNELS))\n"
                                  "print(' '.join(m for m in sys.modules "
                                  "if m.startswith('repro.kernels.')))")
        registered, modules = proc.stdout.splitlines()
        assert registered.split() == ["mandel"], proc.stderr
        assert modules.split() == ["repro.kernels.mandel"]

    def test_unknown_kernel_hint_names_every_builtin(self):
        proc = fresh_python("-c", "from repro.core.kernel import get_kernel\n"
                                  "from repro.errors import UnknownKernelError\n"
                                  "try:\n    get_kernel('nosuch')\n"
                                  "except UnknownKernelError as exc:\n    print(exc.known)")
        assert proc.stdout.strip() == str(BUILTIN_NAMES), proc.stderr

    def test_loaded_file_cannot_claim_a_builtin_name(self, tmp_path):
        ext = tmp_path / "fake_mandel.py"
        ext.write_text(
            "from repro.core.kernel import Kernel, register_kernel\n\n"
            "@register_kernel\nclass Fake(Kernel):\n    name = 'mandel'\n"
        )
        proc = fresh_python("-c", "import sys\n"
                                  "from repro.core.kernel import load_kernel_module\n"
                                  "from repro.errors import KernelError\n"
                                  "try:\n    load_kernel_module(sys.argv[1])\n"
                                  "except KernelError as exc:\n    print('rejected:', exc)\n"
                                  "print('repro.kernels.mandel' in sys.modules)",
                            str(ext))
        assert proc.stdout.splitlines() == [
            "rejected: kernel 'mandel' already registered", "False"
        ], proc.stderr

    def test_procs_workers_resolve_builtin_and_loaded_kernels(self, tmp_path):
        ext = tmp_path / "ext_invert.py"
        ext.write_text(
            "from repro.core.kernel import register_kernel\n"
            "from repro.kernels.simple import InvertKernel\n\n"
            "@register_kernel\nclass ExtInvert(InvertKernel):\n    name = 'ext_invert'\n"
        )
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.core.engine import run\n"
            "from repro.core.kernel import load_kernel_module\n"
            "from repro.omp.procs import shutdown_pools\n"
            "from tests.conftest import make_config\n"
            "load_kernel_module(sys.argv[1])\n"
            "for k in ('invert', 'ext_invert'):\n"
            "    a = run(make_config(kernel=k, backend='procs', nthreads=2)).image\n"
            "    b = run(make_config(kernel=k)).image\n"
            "    print(k, np.array_equal(a, b))\n"
            "shutdown_pools()\n"
        )
        proc = fresh_python("-c", script, str(ext))
        assert proc.stdout.splitlines() == ["invert True", "ext_invert True"], proc.stderr
