import numpy as np
import pytest

from moegather.workbench.data import PARITY_SIGNAL_AMPLITUDE, SyntheticTaskSpec, generate_dataset


def parity_spec(flip_prob):
    return SyntheticTaskSpec(kind="noisy_parity", num_classes=2, d_model=4, seq_len=6, train_size=4000,
                             test_size=3000, seed=3, parity_bits=3, flip_prob=flip_prob)


def signal_positions(ds):
    """Positions whose first coordinate is the signed signal in every sequence."""
    return np.flatnonzero(np.all(np.abs(ds.tokens[:, :, 0]) == PARITY_SIGNAL_AMPLITUDE, axis=0))


def test_noisy_parity_is_deterministic():
    a, b = generate_dataset(parity_spec(0.1)), generate_dataset(parity_spec(0.1))
    for x, y in zip(a, b):
        assert np.array_equal(x.tokens, y.tokens) and np.array_equal(x.labels, y.labels)


def test_noisy_parity_without_flips_labels_the_parity_of_the_signs():
    for ds in generate_dataset(parity_spec(0.0)):
        positions = signal_positions(ds)
        assert len(positions) == 3
        assert np.array_equal(ds.labels, (ds.tokens[:, positions, 0] < 0).sum(axis=1) % 2)


@pytest.mark.parametrize("flip_prob", [0.05, 0.3])
def test_noisy_parity_flips_labels_at_the_given_rate(flip_prob):
    for clean, noisy in zip(generate_dataset(parity_spec(0.0)), generate_dataset(parity_spec(flip_prob))):
        assert np.array_equal(clean.tokens, noisy.tokens)
        rate = np.mean(clean.labels != noisy.labels)
        assert abs(rate - flip_prob) <= 4 * np.sqrt(flip_prob * (1 - flip_prob) / len(clean))


def test_noisy_parity_splits_differ():
    train, test = generate_dataset(parity_spec(0.05))
    assert np.array_equal(signal_positions(train), signal_positions(test))
    assert not np.isin(test.tokens[:, :, 1:], train.tokens[:, :, 1:]).any()
