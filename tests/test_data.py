import numpy as np
import pytest

from moegather.numerics import Rng
from moegather.workbench import data
from moegather.workbench.data import Dataset, SyntheticTaskSpec, generate_dataset


def reference_mixture(spec):
    """(scale, train, test) from fresh draws at every calibration probe, with
    the tokens built in one expression: the reference for the sampler's
    draw-once, assemble-in-blocks path."""
    means = data._MixtureSampler(spec).means

    def sample(n, scale, rng):
        labels = data._balanced_labels(n, spec.num_classes, rng.derive("labels"))
        modes = rng.derive("modes").integers(0, spec.modes_per_class, size=(n, spec.seq_len))
        noise = rng.derive("tokens").normal(size=(n, spec.seq_len, spec.d_model))
        return Dataset(tokens=scale * means[labels[:, None], modes] + spec.token_noise * noise, labels=labels)

    cal_rng = Rng(spec.seed).derive("calibration")
    lo_acc, hi_acc = spec.probe_band

    def probe(scale):
        return data.linear_probe_accuracy(sample(data._CALIBRATION_TRAIN, scale, cal_rng.derive("train")),
                                          sample(data._CALIBRATION_EVAL, scale, cal_rng.derive("eval")))

    lo, hi = 0.02, 64.0
    assert probe(hi) >= lo_acc
    for _ in range(28):
        scale = 0.5 * (lo + hi)
        acc = probe(scale)
        if lo_acc <= acc <= hi_acc:
            break
        lo, hi = (scale, hi) if acc < 0.5 * (lo_acc + hi_acc) else (lo, scale)
    else:
        scale = 0.5 * (lo + hi)
        assert lo_acc <= probe(scale) <= hi_acc
    rng = Rng(spec.seed)
    return scale, sample(spec.train_size, scale, rng.derive("train")), sample(spec.test_size, scale, rng.derive("test"))


@pytest.mark.parametrize("overrides", [
    {"token_noise": 1.7, "modes_per_class": 3, "train_size": data._ASSEMBLY_BLOCK + 37},
    {"modes_per_class": 1, "train_size": 2 * data._ASSEMBLY_BLOCK, "test_size": 5},
    {"token_noise": 0.6, "modes_per_class": 4, "num_classes": 5, "probe_band": (0.7, 0.75), "seed": 11},
])
def test_mixture_matches_the_per_probe_reference(overrides):
    spec = SyntheticTaskSpec(**{"kind": "gaussian_mixture", "num_classes": 3, "d_model": 6, "seq_len": 4,
                                "train_size": 300, "test_size": 70, "seed": 2, **overrides})
    scale, *want = reference_mixture(spec)
    assert data._calibrate_mixture_scale(data._MixtureSampler(spec), spec) == scale
    for got, ref in zip(generate_dataset(spec), want):
        assert np.array_equal(got.tokens, ref.tokens) and np.array_equal(got.labels, ref.labels)


@pytest.mark.parametrize("splits", [("train",), ("test",), ("test", "train")], ids="-".join)
def test_named_splits_have_the_bytes_of_the_pair_and_calibrate_once(monkeypatch, splits):
    spec = SyntheticTaskSpec(kind="gaussian_mixture", num_classes=3, d_model=6, seq_len=4,
                             train_size=120, test_size=30, seed=5)
    pair = dict(zip(("train", "test"), generate_dataset(spec)))
    calls, real = [], data._calibrate_mixture_scale
    monkeypatch.setattr(data, "_calibrate_mixture_scale", lambda *a: calls.append(None) or real(*a))
    got = generate_dataset(spec, splits=splits)
    assert len(calls) == 1 and len(got) == len(splits)
    for name, ds in zip(splits, got):
        assert np.array_equal(ds.tokens, pair[name].tokens) and np.array_equal(ds.labels, pair[name].labels)
