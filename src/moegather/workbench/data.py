"""Seeded synthetic classification tasks.

Two task families stand in for real image/text corpora at desk scale:

* ``gaussian_mixture`` - each class owns a center direction with several
  satellite modes around it; every token draws its own mode, so pooled
  features separate classes coarsely while telling boundary tokens apart
  needs per-mode (nonlinear, capacity-hungry) structure. The overall
  separation is calibrated per seed so that a linear probe on mean-pooled
  tokens lands inside a target accuracy band.
* ``noisy_parity`` - tokens are noise except for a signed signal coordinate
  at a few designated positions; the label is the parity of those signs,
  optionally flipped with some probability. Linearly inseparable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..numerics import Rng, check_number

TASK_KINDS = ("gaussian_mixture", "noisy_parity")

PARITY_SIGNAL_AMPLITUDE = 1.5
_PROBE_RIDGE = 1e-3
_CALIBRATION_TRAIN = 3000
_CALIBRATION_EVAL = 1500


@dataclass(frozen=True)
class SyntheticTaskSpec:
    kind: str
    num_classes: int
    d_model: int
    seq_len: int
    train_size: int
    test_size: int
    seed: int
    modes_per_class: int = 2  # gaussian_mixture only
    mode_spread: float = 0.7  # gaussian_mixture: satellite distance from the class center
    token_noise: float = 1.0  # gaussian_mixture: within-mode noise std per dimension
    probe_band: tuple[float, float] = (0.85, 0.95)  # gaussian_mixture only
    parity_bits: int = 2  # noisy_parity only
    flip_prob: float = 0.05  # noisy_parity only

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"kind must be one of {TASK_KINDS}, got {self.kind!r}")
        for name in ("num_classes", "d_model", "seq_len", "train_size", "test_size",
                     "modes_per_class", "parity_bits"):
            check_number(name, getattr(self, name), integer=True, positive=True)
        check_number("mode_spread", self.mode_spread)
        check_number("token_noise", self.token_noise)
        check_number("flip_prob", self.flip_prob, at_most=1.0)
        for bound in self.probe_band:
            check_number("probe_band", bound, at_most=1.0)
        if len(self.probe_band) != 2 or not self.probe_band[0] < self.probe_band[1]:
            raise ValueError(f"probe_band must be a pair lo < hi, got {list(self.probe_band)!r}")
        if self.kind == "noisy_parity":
            if self.num_classes != 2:
                raise ValueError("noisy_parity is a binary task; num_classes must be 2")
            if self.parity_bits > self.seq_len:
                raise ValueError("parity_bits must fit into the sequence")

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

    def sample(self, n: int, scale: float, rng: Rng) -> Dataset:
        spec = self.spec
        labels = _balanced_labels(n, spec.num_classes, rng.derive("labels"))
        # every token draws its own satellite mode of the sequence's class
        modes = rng.derive("modes").integers(0, spec.modes_per_class, size=(n, spec.seq_len))
        noise = rng.derive("tokens").normal(size=(n, spec.seq_len, spec.d_model))
        centers = scale * self.means[labels[:, None], modes]
        return Dataset(tokens=centers + spec.token_noise * noise, labels=labels)


def _calibrate_mixture_scale(sampler: _MixtureSampler, spec: SyntheticTaskSpec) -> float:
    """Bisect the mode separation until a pooled linear probe lands inside the
    requested accuracy band. Deterministic: the probe sees the same seeded
    calibration sample at every candidate scale."""
    lo_acc, hi_acc = spec.probe_band
    target = 0.5 * (lo_acc + hi_acc)
    cal_rng = Rng(spec.seed).derive("calibration")

    def probe(scale: float) -> float:
        train = sampler.sample(_CALIBRATION_TRAIN, scale, cal_rng.derive("train"))
        test = sampler.sample(_CALIBRATION_EVAL, scale, cal_rng.derive("eval"))
        return linear_probe_accuracy(train, test)

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


def _generate_mixture(spec: SyntheticTaskSpec) -> tuple[Dataset, Dataset]:
    sampler = _MixtureSampler(spec)
    scale = _calibrate_mixture_scale(sampler, spec)
    rng = Rng(spec.seed)
    train = sampler.sample(spec.train_size, scale, rng.derive("train"))
    test = sampler.sample(spec.test_size, scale, rng.derive("test"))
    return train, test


def _generate_parity(spec: SyntheticTaskSpec) -> tuple[Dataset, Dataset]:
    rng = Rng(spec.seed)
    positions = np.sort(rng.derive("positions").choice(spec.seq_len, size=spec.parity_bits))

    def make(n: int, stream: Rng) -> Dataset:
        tokens = stream.derive("tokens").normal(size=(n, spec.seq_len, spec.d_model))
        signs = np.where(stream.derive("signs").uniform(size=(n, spec.parity_bits)) < 0.5, -1.0, 1.0)
        tokens[:, positions, 0] = PARITY_SIGNAL_AMPLITUDE * signs
        labels = ((signs < 0).sum(axis=1) % 2).astype(np.int64)
        if spec.flip_prob > 0:
            flips = stream.derive("flips").uniform(size=n) < spec.flip_prob
            labels = np.where(flips, 1 - labels, labels)
        return Dataset(tokens=tokens, labels=labels)

    return make(spec.train_size, rng.derive("train")), make(spec.test_size, rng.derive("test"))


def generate_dataset(spec: SyntheticTaskSpec) -> tuple[Dataset, Dataset]:
    """Deterministic (train, test) pair; the two splits draw from disjoint
    derived streams so they never share a sample."""
    if spec.kind == "gaussian_mixture":
        return _generate_mixture(spec)
    return _generate_parity(spec)
