"""The pinned heap: warm runs reuse their frame buffers' pages.

Importing the engine pins glibc's mmap and trim thresholds
(:func:`repro.util.heap.pin_heap`).  Every case runs in a fresh
interpreter, because the setting is process-wide and this process's
heap is shaped by every test that ran before.
"""

from __future__ import annotations

import os
import platform

import pytest

from tests.conftest import fresh_python

pytestmark = pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="the heap pin sets glibc's mallopt thresholds; other C libraries keep their policy",
)

#: minor page faults of the second heat 512² run; an unpinned heap
#: faults its 2 MiB fields in again, about 4.2k pages
FAULT_BOUND = 400

WARM_HEAT = """
import resource
from repro.core.config import RunConfig
from repro.core.engine import run
cfg = RunConfig(kernel="heat", variant="omp_tiled", dim=512, tile_w=32, tile_h=32,
                iterations=5)
run(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def clean_env() -> dict:
    """This environment without glibc's malloc tunables."""
    return {
        k: v for k, v in os.environ.items()
        if k != "GLIBC_TUNABLES" and not (k.startswith("MALLOC_") and k.endswith("_"))
    }


def python_out(code: str, env: dict) -> str:
    proc = fresh_python("-c", code, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_warm_run_does_not_fault_its_frames_in_again():
    faults = int(python_out(WARM_HEAT, clean_env()))
    assert faults < FAULT_BOUND, f"{faults} minor faults in a warm heat 512² run"


@pytest.mark.parametrize("name, value", [
    ("MALLOC_TRIM_THRESHOLD_", "1048576"),
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=1048576"),
])
def test_malloc_tunables_in_environment_leave_heap_alone(name, value):
    env = dict(clean_env(), **{name: value})
    out = python_out("from repro.util.heap import pin_heap; print(pin_heap())", env)
    assert out == "False"


def test_libc_without_mallopt_is_left_alone():
    code = (
        "import ctypes\n"
        "ctypes.CDLL = lambda name: object()\n"
        "from repro.util.heap import pin_heap\n"
        "print(pin_heap())\n"
    )
    assert python_out(code, clean_env()) == "False"


def test_pinning_twice_is_harmless():
    code = (
        "from repro.util.heap import pin_heap\n"
        "import repro.core.engine\n"
        "print(pin_heap(), pin_heap())\n"
        + WARM_HEAT
    )
    pinned, faults = python_out(code, clean_env()).splitlines()
    assert pinned == "True True"
    assert int(faults) < FAULT_BOUND
