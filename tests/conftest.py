import sys

# moegather pins BLAS to one thread only when it is imported before numpy;
# importing it here, first, runs every test under the thread count a CLI run gets
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before moegather, so BLAS threads are not pinned")
import moegather  # noqa: E402,F401
