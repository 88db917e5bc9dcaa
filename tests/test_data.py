import tracemalloc

import numpy as np
import pytest

from moegather.numerics import Rng
from moegather.workbench import data
from moegather.workbench.config import default_config
from moegather.workbench.data import Dataset, SyntheticTaskSpec, generate_dataset

SMALL = {"kind": "gaussian_mixture", "num_classes": 3, "d_model": 6, "seq_len": 4,
         "train_size": 300, "test_size": 70, "seed": 2}


def reference_draw(spec, n, rng):
    """(labels, modes, noise) of a sample, each drawn whole in one expression."""
    labels = data._balanced_labels(n, spec.num_classes, rng.derive("labels"))
    modes = rng.derive("modes").integers(0, spec.modes_per_class, size=(n, spec.seq_len))
    noise = spec.token_noise * rng.derive("tokens").normal(size=(n, spec.seq_len, spec.d_model))
    return labels, modes, noise


def reference_sample(spec, n, scale, rng):
    labels, modes, noise = reference_draw(spec, n, rng)
    return Dataset(tokens=scale * data._MixtureSampler(spec).means[labels[:, None], modes] + noise, labels=labels)


def reference_mixture(spec):
    """(scale, train, test) from fresh draws at every calibration probe, with
    the tokens built in one expression and scored by ``linear_probe_accuracy``:
    the reference for the sampler's draw-once, pool-in-blocks calibration and
    its assemble-in-blocks splits."""
    cal_rng = Rng(spec.seed).derive("calibration")
    lo_acc, hi_acc = spec.probe_band

    def probe(scale):
        return data.linear_probe_accuracy(
            reference_sample(spec, data._CALIBRATION_TRAIN, scale, cal_rng.derive("train")),
            reference_sample(spec, data._CALIBRATION_EVAL, scale, cal_rng.derive("eval")))

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
    return (scale, reference_sample(spec, spec.train_size, scale, rng.derive("train")),
            reference_sample(spec, spec.test_size, scale, rng.derive("test")))


@pytest.mark.parametrize("overrides", [
    {"token_noise": 1.7, "modes_per_class": 3, "train_size": data._ASSEMBLY_BLOCK + 37},
    {"modes_per_class": 1, "train_size": 2 * data._ASSEMBLY_BLOCK, "test_size": 5},
    {"token_noise": 0.6, "modes_per_class": 4, "num_classes": 5, "probe_band": (0.7, 0.75), "seed": 11},
    # the default task's shapes and split sizes: these pin the default datasets' bytes
    default_config(0).task.to_dict(),
    default_config(1).task.to_dict(),
])
def test_mixture_matches_the_per_probe_reference(overrides):
    spec = SyntheticTaskSpec.from_dict({**SMALL, **overrides})
    scale, *want = reference_mixture(spec)
    assert data._calibrate_mixture_scale(data._MixtureSampler(spec), spec) == scale
    for got, ref in zip(generate_dataset(spec), want):
        assert np.array_equal(got.tokens, ref.tokens) and np.array_equal(got.labels, ref.labels)


@pytest.mark.parametrize("overrides", [
    {},
    {"seed": 7, "token_noise": 1.7, "modes_per_class": 3, "train_size": data._ASSEMBLY_BLOCK + 37},
    {"seed": 11, "token_noise": 0.6, "modes_per_class": 1, "train_size": 2 * data._ASSEMBLY_BLOCK + 1, "test_size": 5},
], ids=["small", "noisy", "one-mode"])
def test_pooled_sample_scores_as_its_assembled_tokens(overrides):
    """The calibration's pooled statistics stand for the tokens: the same
    labels, the noise's mean bit for bit, and the same probe accuracy at
    every scale of a fixed grid."""
    spec = SyntheticTaskSpec(**{**SMALL, **overrides})
    sampler = data._MixtureSampler(spec)
    rngs = [Rng(spec.seed).derive(tag) for tag in ("train", "test")]
    sizes = (spec.train_size, spec.test_size)
    pooled = [sampler.pooled(n, rng) for n, rng in zip(sizes, rngs)]
    for (labels, _, noise), n, rng in zip(pooled, sizes, rngs):
        want_labels, _, want_noise = reference_draw(spec, n, rng)
        assert np.array_equal(labels, want_labels)
        assert np.array_equal(noise, want_noise.mean(axis=1))
    (train_labels, train_means, train_noise), (test_labels, test_means, test_noise) = pooled
    for scale in np.geomspace(0.05, 8.0, 15):
        got = data._ridge_probe_accuracy(scale * train_means + train_noise, train_labels,
                                         scale * test_means + test_noise, test_labels)
        want = data.linear_probe_accuracy(*(reference_sample(spec, n, scale, rng) for n, rng in zip(sizes, rngs)))
        assert got == want, scale


def test_calibration_keeps_no_full_size_copy_of_its_sample():
    # the tokens of the calibration sample are never made: its peak stays below their bytes
    spec = default_config(0).task
    sampler = data._MixtureSampler(spec)
    tokens_bytes = (data._CALIBRATION_TRAIN + data._CALIBRATION_EVAL) * spec.seq_len * spec.d_model * 8
    tracemalloc.start()
    try:
        data._calibrate_mixture_scale(sampler, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tokens_bytes


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


@pytest.mark.parametrize("splits", [("val",), ("train", "val"), ("Test",), "train"], ids=repr)
def test_an_unknown_split_is_a_value_error_before_calibration(monkeypatch, splits):
    spec = SyntheticTaskSpec(kind="gaussian_mixture", num_classes=3, d_model=6, seq_len=4,
                             train_size=120, test_size=30, seed=5)

    def calibrate(*args):
        raise AssertionError("calibration ran")

    monkeypatch.setattr(data, "_calibrate_mixture_scale", calibrate)
    with pytest.raises(ValueError, match="'train' or 'test'"):
        generate_dataset(spec, splits=splits)


TINY_MIXTURE = {"kind": "gaussian_mixture", "num_classes": 3, "d_model": 6, "seq_len": 4,
                "train_size": 50, "test_size": 20, "seed": 0}


@pytest.mark.parametrize("overrides,message", [
    # no multiple of 1/1500 lies in the band, so the bisection runs out
    ({"probe_band": (0.5001, 0.5005)}, r"probe calibration failed: accuracy 0\.500 outside \(0\.5001, 0\.5005\)"),
    ({"token_noise": 1e6}, r"mixture task cannot reach probe accuracy 0\.85 even at separation 64\.0"),
], ids=["band-missed", "unreachable"])
def test_a_task_the_calibration_cannot_fit_is_a_runtime_error(overrides, message):
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        generate_dataset(SyntheticTaskSpec(**TINY_MIXTURE, **overrides))
