"""Seeded synthetic classification tasks.

One task family, ``gaussian_mixture``, stands in for real image/text corpora
at desk scale: each class owns a center direction with several satellite
modes around it, and every token draws its own mode. The overall separation
is calibrated per seed so that a linear probe on mean-pooled tokens lands
inside a target accuracy band. ``kind`` names the family in every task
description.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..numerics import Rng, check_number

TASK_KINDS = ("gaussian_mixture",)

_PROBE_RIDGE = 1e-3
_CALIBRATION_TRAIN = 3000
_CALIBRATION_EVAL = 1500
_ASSEMBLY_BLOCK = 1024  # sequences per step when mixture tokens are assembled


@dataclass(frozen=True)
class SyntheticTaskSpec:
    kind: str
    num_classes: int
    d_model: int
    seq_len: int
    train_size: int
    test_size: int
    seed: int
    modes_per_class: int = 2
    mode_spread: float = 0.7  # satellite distance from the class center
    token_noise: float = 1.0  # within-mode noise std per dimension
    probe_band: tuple[float, float] = (0.85, 0.95)

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"kind must be one of {TASK_KINDS}, got {self.kind!r}")
        for name in ("num_classes", "d_model", "seq_len", "train_size", "test_size", "modes_per_class"):
            check_number(name, getattr(self, name), integer=True, positive=True)
        check_number("seed", self.seed, integer=True)
        check_number("mode_spread", self.mode_spread)
        check_number("token_noise", self.token_noise)
        for bound in self.probe_band:
            check_number("probe_band", bound, at_most=1.0)
        if len(self.probe_band) != 2 or not self.probe_band[0] < self.probe_band[1]:
            raise ValueError(f"probe_band must be a pair lo < hi, got {list(self.probe_band)!r}")

    def to_dict(self) -> dict:
        return {**asdict(self), "probe_band": list(self.probe_band)}

    @staticmethod
    def from_dict(d: dict) -> "SyntheticTaskSpec":
        d = dict(d)
        if "probe_band" in d:
            d["probe_band"] = tuple(d["probe_band"])
        return SyntheticTaskSpec(**d)


@dataclass
class Dataset:
    tokens: np.ndarray  # (n, seq_len, d_model)
    labels: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return len(self.labels)


def _balanced_labels(n: int, num_classes: int, rng: Rng) -> np.ndarray:
    # Exactly balanced up to the remainder, then shuffled: class priors stay
    # uniform within 1/n by construction.
    reps = np.resize(np.arange(num_classes, dtype=np.int64), n)
    return reps[rng.permutation(n)]


def linear_probe_accuracy(train: Dataset, test: Dataset) -> float:
    """Ridge-regression probe on mean-pooled tokens to one-hot targets; the
    reference for how much of a task is linearly solvable."""

    def features(ds: Dataset) -> np.ndarray:
        return np.concatenate([ds.tokens.mean(axis=1), np.ones((len(ds), 1))], axis=1)

    x = features(train)
    y = np.eye(int(train.labels.max()) + 1)[train.labels]
    gram = x.T @ x + _PROBE_RIDGE * np.eye(x.shape[1])
    w = np.linalg.solve(gram, x.T @ y)
    pred = np.argmax(features(test) @ w, axis=1)
    return float((pred == test.labels).mean())


@dataclass
class _MixtureDraw:
    """The scale-free parts of a mixture sample."""

    labels: np.ndarray  # (n,) int64
    modes: np.ndarray  # (n, seq_len) satellite mode of each token
    noise: np.ndarray  # (n, seq_len, d_model), already times token_noise


class _MixtureSampler:
    def __init__(self, spec: SyntheticTaskSpec):
        self.spec = spec
        rng = Rng(spec.seed).derive("mixture-means")
        centers = rng.normal(size=(spec.num_classes, 1, spec.d_model))
        centers /= np.linalg.norm(centers, axis=2, keepdims=True)
        satellites = rng.normal(size=(spec.num_classes, spec.modes_per_class, spec.d_model))
        satellites /= np.linalg.norm(satellites, axis=2, keepdims=True)
        raw = centers + spec.mode_spread * satellites
        self.means = raw / np.linalg.norm(raw, axis=2, keepdims=True)

    def draw(self, n: int, rng: Rng) -> _MixtureDraw:
        spec = self.spec
        labels = _balanced_labels(n, spec.num_classes, rng.derive("labels"))
        # every token draws its own satellite mode of the sequence's class
        modes = rng.derive("modes").integers(0, spec.modes_per_class, size=(n, spec.seq_len))
        noise = rng.derive("tokens").normal(size=(n, spec.seq_len, spec.d_model))
        noise *= spec.token_noise
        return _MixtureDraw(labels=labels, modes=modes, noise=noise)

    def assemble(self, drawn: _MixtureDraw, scale: float, out: np.ndarray) -> Dataset:
        """Tokens ``scale * mean + noise``, written into ``out`` (which may be
        ``drawn.noise`` itself) a block of sequences at a time, so no
        full-size temporary is made."""
        table = scale * self.means
        for start in range(0, len(out), _ASSEMBLY_BLOCK):
            rows = slice(start, start + _ASSEMBLY_BLOCK)
            np.add(table[drawn.labels[rows, None], drawn.modes[rows]], drawn.noise[rows], out=out[rows])
        return Dataset(tokens=out, labels=drawn.labels)


def _calibrate_mixture_scale(sampler: _MixtureSampler, spec: SyntheticTaskSpec) -> float:
    """Bisect the mode separation until a pooled linear probe lands inside the
    requested accuracy band. Deterministic: the calibration sample is drawn
    once from its seeded streams and only re-assembled at each candidate scale."""
    lo_acc, hi_acc = spec.probe_band
    target = 0.5 * (lo_acc + hi_acc)
    cal_rng = Rng(spec.seed).derive("calibration")
    train = sampler.draw(_CALIBRATION_TRAIN, cal_rng.derive("train"))
    test = sampler.draw(_CALIBRATION_EVAL, cal_rng.derive("eval"))
    train_tokens, test_tokens = np.empty_like(train.noise), np.empty_like(test.noise)

    def probe(scale: float) -> float:
        return linear_probe_accuracy(sampler.assemble(train, scale, train_tokens),
                                     sampler.assemble(test, scale, test_tokens))

    lo, hi = 0.02, 64.0
    if probe(hi) < lo_acc:
        raise RuntimeError(
            f"mixture task cannot reach probe accuracy {lo_acc} even at separation {hi}"
        )
    for _ in range(28):
        mid = 0.5 * (lo + hi)
        acc = probe(mid)
        if lo_acc <= acc <= hi_acc:
            return mid
        if acc < target:
            lo = mid
        else:
            hi = mid
    final = 0.5 * (lo + hi)
    acc = probe(final)
    if not lo_acc <= acc <= hi_acc:
        raise RuntimeError(f"probe calibration failed: accuracy {acc:.3f} outside {spec.probe_band}")
    return final


def generate_dataset(spec: SyntheticTaskSpec, splits: tuple[str, ...] = ("train", "test")) -> tuple[Dataset, ...]:
    """Deterministic splits of the task, in the order ``splits`` names them
    ("train", "test" or both); the two draw from disjoint derived streams, so
    they never share a sample, and each has the same bytes whichever others
    are made with it."""
    sampler = _MixtureSampler(spec)
    scale = _calibrate_mixture_scale(sampler, spec)
    rng = Rng(spec.seed)
    sizes = {"train": spec.train_size, "test": spec.test_size}

    def make(name: str) -> Dataset:
        drawn = sampler.draw(sizes[name], rng.derive(name))
        return sampler.assemble(drawn, scale, out=drawn.noise)

    return tuple(make(name) for name in splits)
