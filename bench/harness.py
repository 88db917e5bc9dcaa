"""Shared pieces of the benchmark: run sizes, output checks, statistics and
the record of the environment a result was measured in."""

from __future__ import annotations

import ctypes
import hashlib
import os
import resource
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Sizes:
    """How much work one run does. Shapes always come from ``default_config``."""

    train_size: int | None = None  # None keeps default_config's 20k/2k sequences
    test_size: int | None = None
    batch: int = 512  # the throughput batch
    setup_reps: int = 3  # set-up is repeated and its median reported
    setup_teacher_steps: int = 60  # short teacher: the probes' and inference's models
    setup_distill_steps: int = 20  # refines that teacher's SVD-KG student
    pipeline_teach_steps: int = 100
    pipeline_distill_steps: int = 50
    b1_per_round: int = 128  # batch-1 sequences per model in one inference round
    batches_per_round: int = 2  # throughput batches per model in one inference round
    probe_slices: int = 16  # the probes run in this many slices spread over the run
    probe_b1: int = 3000  # batch-1 calls per model when inference is not the focus
    probe_batches: int = 48
    probe_gathers: int = 16  # svdkg builds and noise scans when gather is not the focus
    scan_tokens: int = 256


FULL = Sizes()
SMOKE = Sizes(
    train_size=640,
    test_size=160,
    batch=64,
    setup_reps=2,
    setup_teacher_steps=3,
    setup_distill_steps=2,
    pipeline_teach_steps=3,
    pipeline_distill_steps=2,
    b1_per_round=8,
    batches_per_round=1,
    probe_slices=2,
    probe_b1=20,
    probe_batches=2,
    probe_gathers=1,
    scan_tokens=32,
)


class Checker:
    """Counts checked outputs; every failed check is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    def close(self, got, want, tol: float, what: str) -> bool:
        got, want = np.asarray(got), np.asarray(want)
        if got.shape != want.shape:
            return self.check(False, f"{what}: shape {got.shape} != {want.shape}")
        err = float(np.max(np.abs(got - want), initial=0.0))
        return self.check(err <= tol, f"{what}: max abs error {err:.3e} > {tol:.0e}")


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def pin_allocator() -> str:
    """Keep freed memory in the process heap instead of handing it back.

    With glibc's default, dynamic thresholds, every batch-512 forward maps
    and faults in about 64 MB of fresh pages (some 15k minor faults), which
    costs 25-35% of its time in the kernel. That kernel time is the noisiest
    part of the run on a shared host. A fixed mmap threshold (32 MB, glibc's
    largest) and a trim threshold of 1 GiB let the freed arrays be reused.
    Must run before the arrays to be reused are allocated. Returns a
    description of the setting for the run's environment record."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:  # not glibc
        return "default"
    if mallopt(_M_TRIM_THRESHOLD, 1 << 30) != 1 or mallopt(_M_MMAP_THRESHOLD, 32 << 20) != 1:
        return "default"
    return "glibc trim_threshold=1GiB mmap_threshold=32MiB"


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def mean(xs) -> float:
    return float(np.mean(xs)) if len(xs) else 0.0


def median(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


def percentile(xs, q: float) -> float:
    return float(np.percentile(xs, q)) if len(xs) else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, identifying the code measured when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "moegather").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int, smoke: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    uname = os.uname()
    return {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "machine": f"{uname.sysname} {uname.release} {uname.machine}",
        "cpus": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": source_digest(),
    }


class _CalibrationKernel:
    """Fixed numpy work: the per-token mix of a batch-1 forward (layer norm,
    tanh GELU, small matmuls), where interpreter and dispatch overhead
    dominate."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(8, 32))
        self.w1 = rng.normal(size=(32, 128), scale=0.1)
        self.w2 = rng.normal(size=(128, 32), scale=0.1)

    @staticmethod
    def _gelu(a: np.ndarray) -> np.ndarray:
        return 0.5 * a * (1.0 + np.tanh(0.8 * (a + 0.045 * a * a * a)))

    def __call__(self) -> None:
        h = self.x
        for _ in range(4):
            c = h - h.mean(axis=-1, keepdims=True)
            h = c / np.sqrt((c * c).mean(axis=-1, keepdims=True) + 1e-5)
            h = self._gelu(h @ self.w1) @ self.w2


class SpeedMeter:
    """Tracks how fast the machine runs while the benchmark measures.

    A SIGALRM handler runs the calibration kernel every ``PERIOD_S`` seconds,
    so the ticks are spread over all measured code. The kernel runs twice per
    tick and the second, warm run is timed. ``normalize`` converts measured
    intervals into seconds at the reference speed. It removes the tick time
    that fell inside the interval. Then it scales by ``REFERENCE_S`` ÷ the
    mean warm kernel time within ``WINDOW_S`` of the interval.
    """

    REFERENCE_S = 2.0e-4  # warm kernel time: typical on a 2-vCPU x86_64 VM, OpenBLAS 0.3.31
    PERIOD_S = 0.05
    WINDOW_S = 0.5

    def __init__(self):
        self.kernel = _CalibrationKernel()
        self.starts: list[float] = []
        self.busy: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._ticking = False

    def _tick(self, signum, frame) -> None:
        if self._ticking:  # a tick delayed past the next one
            return
        self._ticking = True
        start = perf_counter()
        self.kernel()
        warm = perf_counter()
        self.kernel()
        self.durations.append(perf_counter() - warm)
        self.starts.append(start)
        self.busy.append(perf_counter() - start)
        self._ticking = False

    def start(self) -> None:
        for _ in range(20):  # warm caches before the first tick
            self.kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def summary(self) -> dict:
        return {
            "ticks": len(self.starts),
            "kernel_ms_p50": 1e3 * median(self.durations),
            "speed_p50": self.REFERENCE_S / median(self.durations),
        }

    def normalize(self, intervals) -> np.ndarray:
        """Seconds at reference speed for each (start, end) interval."""
        iv = np.asarray(intervals, dtype=float).reshape(-1, 2)
        starts = np.asarray(self.starts)
        # a tick stretched by an interrupt says nothing about the machine's speed
        warm = np.asarray(self.durations)
        warm = np.minimum(warm, 3.0 * np.median(warm))
        warm_sum = np.concatenate([[0.0], np.cumsum(warm)])
        busy_sum = np.concatenate([[0.0], np.cumsum(self.busy)])
        inside = np.searchsorted(starts, iv)  # ticks that ran inside each interval
        near = np.searchsorted(starts, iv + [-self.WINDOW_S, self.WINDOW_S])
        count = near[:, 1] - near[:, 0]
        mean = np.where(
            count > 0,
            (warm_sum[near[:, 1]] - warm_sum[near[:, 0]]) / np.maximum(count, 1),
            warm.mean(),
        )
        busy = busy_sum[inside[:, 1]] - busy_sum[inside[:, 0]]
        return (iv[:, 1] - iv[:, 0] - busy) * (self.REFERENCE_S / mean)
