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
_ASSEMBLY_BLOCK = 1024  # sequences per step when mixture tokens are assembled or pooled


@dataclass(frozen=True)
class SyntheticTaskSpec:
    kind: str
    num_classes: int
    d_model: int
    seq_len: int
    train_size: int
    test_size: int
    seed: int
    modes_per_class: int = 4
    mode_spread: float = 0.7  # satellite distance from the class center
    token_noise: float = 1.0  # within-mode noise std per dimension
    probe_band: tuple[float, float] = (0.85, 0.95)

    def __post_init__(self):
        object.__setattr__(self, "probe_band", tuple(self.probe_band))  # JSON holds it as a list
        if self.kind not in TASK_KINDS:
            raise ValueError(f"kind must be one of {TASK_KINDS}, got {self.kind!r}")
        for name in ("num_classes", "d_model", "seq_len", "train_size", "test_size", "modes_per_class"):
            check_number(name, getattr(self, name), integer=True, positive=True)
        if self.num_classes < 2:  # one class would make every loss 0
            raise ValueError(f"num_classes must be a count of at least 2, got {self.num_classes}")
        check_number("seed", self.seed, integer=True)
        check_number("mode_spread", self.mode_spread)
        check_number("token_noise", self.token_noise)
        for bound in self.probe_band:
            check_number("probe_band", bound, at_most=1.0)
        if len(self.probe_band) != 2 or not self.probe_band[0] < self.probe_band[1]:
            raise ValueError(f"probe_band must be a pair lo < hi, got {list(self.probe_band)!r}")

    def to_dict(self) -> dict:
        return {**asdict(self), "probe_band": list(self.probe_band)}


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


def _ridge_probe_accuracy(train_x: np.ndarray, train_labels: np.ndarray,
                          test_x: np.ndarray, test_labels: np.ndarray) -> float:
    """Ridge regression of one-hot targets on ``train_x`` and a bias column;
    the share of ``test_x`` rows whose largest output is their label."""

    def features(x: np.ndarray) -> np.ndarray:
        return np.concatenate([x, np.ones((len(x), 1))], axis=1)

    x = features(train_x)
    y = np.eye(int(train_labels.max()) + 1)[train_labels]
    gram = x.T @ x + _PROBE_RIDGE * np.eye(x.shape[1])
    w = np.linalg.solve(gram, x.T @ y)
    pred = np.argmax(features(test_x) @ w, axis=1)
    return float((pred == test_labels).mean())


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

    def _draw(self, n: int, rng: Rng, rows: int):
        """The first ``rows`` sequences of a sample of ``n``: their labels, cut
        from a permutation of all ``n``; each token's satellite mode of its
        sequence's class; and ``noise(k)``: the next ``k`` sequences' noise,
        times ``token_noise``. Each stream draws in order, so draws in blocks,
        or of fewer rows, give the values of one whole draw."""
        spec = self.spec
        labels = _balanced_labels(n, spec.num_classes, rng.derive("labels"))[:rows]
        modes = rng.derive("modes").integers(0, spec.modes_per_class, size=(rows, spec.seq_len))
        stream = rng.derive("tokens")

        def noise(k: int) -> np.ndarray:
            # drawn at its scale: 0 + s*z has the bits of (0 + 1*z)*s, with no second pass
            return stream.normal(size=(k, spec.seq_len, spec.d_model), scale=spec.token_noise)

        return labels, modes, noise

    def sample(self, n: int, rng: Rng, scale: float, rows: int) -> Dataset:
        """The first ``rows`` sequences of a sample of ``n``, with tokens
        ``scale * mean + noise``: the noise is drawn whole and becomes the
        tokens, and the scaled means are added into it a block of sequences at
        a time, so no other full-size array is made."""
        labels, modes, noise = self._draw(n, rng, rows)
        tokens = noise(rows)
        table = scale * self.means
        for start in range(0, rows, _ASSEMBLY_BLOCK):
            block = slice(start, start + _ASSEMBLY_BLOCK)
            np.add(table[labels[block, None], modes[block]], tokens[block], out=tokens[block])
        return Dataset(tokens=tokens, labels=labels)

    def pooled(self, n: int, rng: Rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sample that ``sample(n, rng, scale)`` draws, kept as its labels
        and two ``(n, d_model)`` arrays: the mean of each sequence's mode means
        and the mean of its noise. Its mean-pooled tokens at any scale are
        ``scale * means + noise`` up to rounding. Made a block of sequences at
        a time, so no full-size array is made."""
        labels, modes, noise = self._draw(n, rng, n)
        mode_means, noise_means = np.empty((n, self.spec.d_model)), np.empty((n, self.spec.d_model))
        for start in range(0, n, _ASSEMBLY_BLOCK):
            rows = slice(start, start + _ASSEMBLY_BLOCK)
            mode_means[rows] = self.means[labels[rows, None], modes[rows]].mean(axis=1)
            noise_means[rows] = noise(min(_ASSEMBLY_BLOCK, n - start)).mean(axis=1)
        return labels, mode_means, noise_means


def _calibrate_mixture_scale(sampler: _MixtureSampler, spec: SyntheticTaskSpec) -> float:
    """Bisect the mode separation until a pooled linear probe lands inside the
    requested accuracy band, in at most 29 probes after the one that checks
    the upper end of the range. Deterministic: the calibration sample is drawn
    once from its seeded streams and kept as per-sequence means only, so each
    candidate scale is scored on ``scale * means + noise`` without its tokens."""
    lo_acc, hi_acc = spec.probe_band
    target = 0.5 * (lo_acc + hi_acc)
    cal_rng = Rng(spec.seed).derive("calibration")
    train_labels, train_means, train_noise = sampler.pooled(_CALIBRATION_TRAIN, cal_rng.derive("train"))
    test_labels, test_means, test_noise = sampler.pooled(_CALIBRATION_EVAL, cal_rng.derive("eval"))

    def probe(scale: float) -> float:
        return _ridge_probe_accuracy(scale * train_means + train_noise, train_labels,
                                     scale * test_means + test_noise, test_labels)

    lo, hi = 0.02, 64.0
    if probe(hi) < lo_acc:
        raise RuntimeError(
            f"mixture task cannot reach probe accuracy {lo_acc} even at separation {hi}"
        )
    for _ in range(29):
        mid = 0.5 * (lo + hi)
        acc = probe(mid)
        if lo_acc <= acc <= hi_acc:
            return mid
        if acc < target:
            lo = mid
        else:
            hi = mid
    raise RuntimeError(f"probe calibration failed: accuracy {acc:.3f} outside {spec.probe_band}")


def generate_dataset(spec: SyntheticTaskSpec, splits: tuple[str, ...] = ("train", "test"),
                     rows: int | None = None) -> tuple[Dataset, ...]:
    """Deterministic splits of the task, in the order ``splits`` names them
    ("train", "test" or both); the two draw from disjoint derived streams, so
    they never share a sample, and each has the same bytes whichever others
    are made with it. With ``rows``, each split holds only its first ``rows``
    sequences (all, if it has fewer), with the bytes they have in the whole
    split, and the rest are never drawn."""
    sizes = {"train": spec.train_size, "test": spec.test_size}
    if not set(splits) <= sizes.keys():
        raise ValueError(f"splits must each be 'train' or 'test', got {list(splits)!r}")
    if rows is not None:
        check_number("rows", rows, integer=True, positive=True)
    sampler = _MixtureSampler(spec)
    scale = _calibrate_mixture_scale(sampler, spec)
    rng = Rng(spec.seed)
    return tuple(sampler.sample(sizes[name], rng.derive(name), scale, min(sizes[name], rows or sizes[name]))
                 for name in splits)
