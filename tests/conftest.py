import sys

# moegather pins BLAS to one thread only when it is imported before numpy;
# importing it here, first, runs every test under the thread count a CLI run gets
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before moegather, so BLAS threads are not pinned")
import moegather  # noqa: E402,F401
from moegather import numerics  # noqa: E402

import pytest  # noqa: E402


@pytest.fixture(autouse=True)
def cold_svd_memo():
    """Every test starts with an empty ``svd`` memo, so what a test sees of
    LAPACK never depends on which tests ran before it."""
    numerics._memo.cache_clear()
