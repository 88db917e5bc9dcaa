import numpy as np
import pytest

from moegather.metrics import noise_scan
from moegather.model import Architecture, build_classifier, forward_batch, router_probs
from moegather.numerics import (
    NumericalError,
    Rng,
    ShapeError,
    SvdFactors,
    svd,
    top_k_indices,
    truncate_svd,
)


class TestSvd:
    def test_diagonal(self):
        f = svd(np.diag([3.0, 2.0]))
        assert np.allclose(f.S, [3.0, 2.0])

    def test_identity(self):
        f = svd(np.eye(2))
        assert np.allclose(f.S, [1.0, 1.0])

    def test_random_4x3_against_eigensolve_oracle(self):
        a = Rng(7).normal(size=(4, 3))
        f = svd(a)
        recon = f.reconstruct()
        assert np.linalg.norm(recon - a) / np.linalg.norm(a) < 1e-10
        # singular values squared are the eigenvalues of A^T A
        evals = np.sort(np.linalg.eigvalsh(a.T @ a))[::-1]
        assert np.abs(f.S**2 - evals).max() < 1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_reconstruction_and_orthonormality(self, seed):
        rng = Rng(seed)
        m = int(rng.integers(1, 40))
        n = int(rng.integers(1, 40))
        a = rng.normal(size=(m, n))
        if seed % 2:
            k = max(1, min(m, n) // 2)  # rank-deficient half the time
            a = rng.normal(size=(m, k)) @ rng.normal(size=(k, n))
        f = svd(a)
        r = min(m, n)
        assert f.U.shape == (m, r) and f.S.shape == (r,) and f.V.shape == (n, r)
        assert (np.diff(f.S) <= 1e-12 * max(f.S[0], 1.0)).all()
        assert (f.S >= 0).all()
        assert np.abs(f.U.T @ f.U - np.eye(r)).max() < 1e-8
        assert np.abs(f.V.T @ f.V - np.eye(r)).max() < 1e-8
        norm_a = np.linalg.norm(a)
        assert np.linalg.norm(f.reconstruct() - a) <= 1e-8 * max(norm_a, 1e-30)

    def test_zero_matrix(self):
        f = svd(np.zeros((3, 2)))
        assert np.array_equal(f.S, np.zeros(2))
        assert np.abs(f.U.T @ f.U - np.eye(2)).max() < 1e-12

    def test_linalg_error_maps_to_numerical_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalError, match="6x4 matrix failed: SVD did not converge"):
            svd(Rng(3).normal(size=(6, 4)))

    def test_rank_deficient_spectrum_has_exact_zeros(self):
        rng = Rng(5)
        a = rng.normal(size=(7, 2)) @ rng.normal(size=(2, 5))
        f = svd(a)
        assert (f.S[:2] > 0).all() and np.array_equal(f.S[2:], np.zeros(3))
        assert truncate_svd(f, 1.0).rank == 2

    def test_rejects_non_finite(self):
        with pytest.raises(NumericalError):
            svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            svd(np.zeros((0, 3)))


class TestTruncateSvd:
    def _factors(self, values):
        s = np.asarray(values, dtype=np.float64)
        r = s.size
        return SvdFactors(U=np.eye(r), S=s, V=np.eye(r))

    def test_forced_smallest_k(self):
        out = truncate_svd(self._factors([4.0, 3.0, 2.0, 1.0]), 0.7)
        assert out.rank == 2  # cumulative 7/10 = 0.70 >= 0.70

    def test_full_retention(self):
        out = truncate_svd(self._factors([4.0, 3.0, 2.0, 1.0]), 1.0)
        assert out.rank == 4

    def test_dominant_first_value(self):
        out = truncate_svd(self._factors([5.0, 1.0, 1.0, 1.0, 1.0, 1.0]), 0.5)
        assert out.rank == 1  # 5/10 >= 0.5

    def test_all_zero_spectrum_degenerate(self):
        out = truncate_svd(self._factors([0.0, 0.0, 0.0]), 0.9)
        assert out.rank == 1
        assert out.S[0] == 0.0

    def test_ratio_domain(self):
        f = self._factors([1.0])
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                truncate_svd(f, bad)

    @pytest.mark.parametrize("seed", range(6))
    def test_dominance_in_ratio(self, seed):
        # a larger retained-mass target can never keep fewer triplets
        f = svd(Rng(seed).normal(size=(8, 6)))
        grid = [0.1 * k for k in range(1, 11)]
        ranks = [truncate_svd(f, lam).rank for lam in grid]
        assert ranks == sorted(ranks)
        for lam, k in zip(grid, ranks):
            assert f.S[:k].sum() >= lam * f.S.sum() - 1e-12 * f.S.sum()
            assert k >= 1

    @pytest.mark.parametrize("seed", range(5))
    def test_truncation_beats_random_rank_k_factorizations(self, seed):
        # spot check of rank-k optimality: 100 random factorizations, each
        # given the best possible right factor for its random column space
        rng = Rng(seed)
        a = rng.normal(size=(6, 6))
        f = svd(a)
        k = 2 + int(rng.integers(0, 3))
        trunc = SvdFactors(f.U[:, :k], f.S[:k], f.V[:, :k])
        best_err = np.linalg.norm(trunc.reconstruct() - a)
        for _ in range(100):
            x = rng.normal(size=(6, k))
            y, *_ = np.linalg.lstsq(x, a, rcond=None)
            assert best_err <= np.linalg.norm(x @ y - a) + 1e-12


class TestTopK:
    def test_basic(self):
        assert top_k_indices([1.0, 2.0, 3.0, 0.5], 2).tolist() == [1, 2]

    def test_tie_breaks_to_lower_index(self):
        assert top_k_indices([7.0, 7.0, 7.0], 2).tolist() == [0, 1]

    def test_matches_full_sort_oracle(self):
        scores = Rng(11).normal(size=64)
        got = top_k_indices(scores, 16).tolist()
        expected = sorted(sorted(range(64), key=lambda i: -scores[i])[:16])
        assert got == expected

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            top_k_indices([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            top_k_indices([1.0, 2.0], 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_sorted_and_duplicate_free(self, seed):
        rng = Rng(seed)
        n = int(rng.integers(1, 50))
        k = int(rng.integers(1, n + 1))
        got = top_k_indices(rng.normal(size=n), k).tolist()
        assert got == sorted(set(got))
        assert len(got) == k

    def test_selects_per_row_of_a_2d_array(self):
        scores = Rng(12).normal(size=(5, 9))
        scores[2] = 7.0  # an all-tie row keeps its lowest indices
        got = top_k_indices(scores, 3)
        assert got.shape == (5, 3) and got.dtype.kind == "i"
        for row, picked in zip(scores, got):
            assert picked.tolist() == top_k_indices(row, 3).tolist()
        assert got[2].tolist() == [0, 1, 2]


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123).normal(size=100)
        b = Rng(123).normal(size=100)
        assert np.array_equal(a, b)

    def test_derive_is_order_independent(self):
        r1 = Rng(5)
        r1.normal(size=10)  # consume some of the parent
        r2 = Rng(5)
        assert np.array_equal(r1.derive("x").normal(size=4), r2.derive("x").normal(size=4))

    def test_distinct_tags_distinct_streams(self):
        r = Rng(5)
        assert not np.array_equal(r.derive("a").normal(size=8), r.derive("b").normal(size=8))


def _moe_model():
    arch = Architecture(d_model=2, d_ff=3, seq_len=1, num_classes=2, stage="moe", num_experts=2, top_k=1)
    return build_classifier(arch, Rng(0))


# each entry point given one array argument, which it must convert to float64
ARRAY_ENTRY_POINTS = {
    "forward_batch": lambda data: forward_batch(_moe_model(), [data]),
    "router_probs": lambda data: router_probs(data, _moe_model().blocks[0].stage.router),
    "noise_scan": lambda data: noise_scan(_moe_model().blocks[0].stage, [0.5], data),
    "svd": svd,
    "top_k_indices": lambda data: top_k_indices(data, 1),
}


class TestArrayInput:
    @pytest.mark.parametrize("data", [[[1.0, 2.0], [3.0]], [[1.0, "x"], [3.0, 4.0]]], ids=["ragged", "non-numeric"])
    @pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS)
    def test_a_malformed_array_is_a_shape_error(self, entry, data):
        with pytest.raises(ShapeError, match="must be a rectangular array of numbers"):
            ARRAY_ENTRY_POINTS[entry](data)

    def test_as_matrix_needs_two_dimensions(self):
        with pytest.raises(ShapeError, match="2-D"):
            svd([1.0, 2.0])
