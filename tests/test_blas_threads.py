import os
import subprocess
import sys
from pathlib import Path

import pytest

import moegather

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _python(code, **preset):
    """stdout of ``code`` in a fresh interpreter whose environment has none of
    the BLAS thread variables but those in ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    src = str(Path(moegather.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**env, **preset},
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


_SHOW = "; print(*(os.environ.get(v, '-') for v in {!r}))".format(BLAS_VARS)


def test_importing_the_package_pins_one_blas_thread():
    assert _python("import os, moegather" + _SHOW) == ["1", "1", "1"]


def test_a_thread_count_the_caller_set_is_kept():
    assert _python("import os, moegather" + _SHOW, OPENBLAS_NUM_THREADS="3") == ["3", "1", "1"]


def test_a_program_that_loaded_numpy_first_keeps_its_threads():
    assert _python("import os, numpy, moegather" + _SHOW) == ["-", "-", "-"]


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_a_matmul_after_the_import_runs_on_the_main_thread_alone():
    code = """
import moegather, numpy as np
a = np.ones((512, 512))
a @ a
print(*[line for line in open("/proc/self/status") if line.startswith("Threads:")])
"""
    assert _python(code) == ["Threads:", "1"]
