import numpy as np
import pytest

from moegather import numerics
from moegather.metrics import noise_scan
from moegather.model import Architecture, build_classifier, forward_batch, router_probs
from moegather.numerics import (
    NumericalError,
    Rng,
    ShapeError,
    SvdFactors,
    svd,
    top_k_indices,
    truncation_rank,
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

    @pytest.mark.parametrize("shape", [(32, 128), (5, 9), (1, 4)])
    def test_a_wide_matrix_gets_its_transposes_factors_swapped(self, shape):
        # the wide orientation is factored as its transpose, so the bits agree exactly
        for seed in range(3):
            a = Rng(seed).normal(size=shape)
            wide, tall = svd(a), svd(a.T)
            assert wide.U.tobytes() == tall.V.tobytes() and wide.V.tobytes() == tall.U.tobytes()
            assert wide.S.tobytes() == tall.S.tobytes()

    @pytest.mark.parametrize("shape", [(32, 128), (128, 32)])
    def test_both_orientations_reconstruct_and_stay_orthonormal(self, shape):
        # the shapes of an expert's w1 and w2 at the default sizes
        for seed in range(3):
            a = Rng(seed).normal(size=shape)
            f = svd(a)
            r = min(shape)
            assert f.U.shape == (shape[0], r) and f.V.shape == (shape[1], r)
            assert np.abs(f.U.T @ f.U - np.eye(r)).max() < 1e-12
            assert np.abs(f.V.T @ f.V - np.eye(r)).max() < 1e-12
            assert np.linalg.norm(f.reconstruct() - a) < 1e-12 * np.linalg.norm(a)

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
        assert truncation_rank(f.S, 1.0) == 2
        assert f.rank == 5  # the triplets held, the zeros among them

    @pytest.mark.parametrize("shape", [(32, 128), (128, 32)])
    def test_rank_tolerance_is_matrix_ranks(self, shape):
        # singular values 1, 0.5 and 2 * min(m, n) * eps: the third lies below
        # max(m, n) * eps, np.linalg.matrix_rank's tolerance, but above min(m, n) * eps
        m, n = shape
        for seed in range(5):
            rng = Rng(seed)
            u, _ = np.linalg.qr(rng.normal(size=(m, 3)))
            v, _ = np.linalg.qr(rng.normal(size=(n, 3)))
            a = (u * [1.0, 0.5, 2 * min(m, n) * np.finfo(np.float64).eps]) @ v.T
            f = svd(a)
            assert f.S[2] == 0.0
            assert np.count_nonzero(f.S) == np.linalg.matrix_rank(a) == 2

    def test_rejects_non_finite(self):
        with pytest.raises(NumericalError):
            svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            svd(np.zeros((0, 3)))


def factor_bytes(f):
    return f.U.tobytes(), f.S.tobytes(), f.V.tobytes()


class TestSvdMemo:
    """``svd`` remembers factors by the matrix's shape and bytes; every test
    starts with an empty memo (``tests/conftest.py``)."""

    @pytest.mark.parametrize("shape", [(32, 128), (128, 32), (5, 3)])
    def test_equal_bytes_return_a_cold_calls_factors(self, shape):
        a = Rng(21).normal(size=shape)
        warm = [svd(a), svd(a.copy()), svd(a.tolist()), svd(np.asfortranarray(a))]
        assert numerics._memo.cache_info().misses == 1
        numerics._memo.cache_clear()
        cold = factor_bytes(svd(a.copy()))
        assert all(factor_bytes(f) == cold for f in warm)

    def test_an_in_place_update_gets_the_new_matrixs_factors(self):
        w = Rng(22).normal(size=(32, 128))
        before = factor_bytes(svd(w))
        w -= 1e-3  # what optimizer_step does to a weight
        after = svd(w)
        assert factor_bytes(after) != before
        np.testing.assert_allclose(after.reconstruct(), w, rtol=0, atol=1e-12)
        numerics._memo.cache_clear()
        assert factor_bytes(svd(w)) == factor_bytes(after)

    def test_an_in_place_update_that_keeps_the_hash_gets_the_new_matrixs_factors(self):
        w = Rng(28).normal(size=(32, 128))
        before = factor_bytes(svd(w))
        w[[0, 1]] = w[[1, 0]]  # the same 64-bit words, so the same hash
        after = svd(w)
        assert factor_bytes(after) != before
        np.testing.assert_allclose(after.reconstruct(), w, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(32, 128), (128, 32)])
    @pytest.mark.parametrize("name", ["U", "S", "V"])
    def test_factors_are_read_only(self, shape, name):
        f = svd(Rng(23).normal(size=shape))
        with pytest.raises(ValueError, match="read-only"):
            getattr(f, name)[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            getattr(f, name)[...] *= 2.0

    def test_a_failed_factorization_is_not_remembered(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        a = Rng(24).normal(size=(6, 4))
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalError, match="6x4 matrix failed"):
            svd(a)
        monkeypatch.undo()
        f = svd(a)
        assert numerics._memo.cache_info().currsize == 1
        np.testing.assert_allclose(f.reconstruct(), a, rtol=0, atol=1e-12)

    def test_a_non_finite_matrix_never_reaches_the_memo(self):
        with pytest.raises(NumericalError):
            svd(np.array([[np.inf, 1.0], [0.0, 1.0]]))
        info = numerics._memo.cache_info()
        assert info.hits == info.misses == info.currsize == 0

    def test_the_memo_holds_at_most_its_bound(self):
        bound = numerics._SVD_MEMO_ENTRIES
        assert numerics._memo.cache_info().maxsize == bound
        rng = Rng(25)
        for _ in range(bound + 5):
            svd(rng.normal(size=(4, 3)))
            assert numerics._memo.cache_info().currsize <= bound
        assert numerics._memo.cache_info().currsize == bound

    @pytest.mark.parametrize("shape, kept", [((48, 128), True), ((128, 48), True),
                                             ((48, 160), False), ((64, 512), False)])
    def test_a_matrix_is_kept_only_if_its_copy_and_factors_fit_the_byte_cap(self, shape, kept):
        a = Rng(26).normal(size=shape)
        f = svd(a)
        size = a.nbytes + f.U.nbytes + f.S.nbytes + f.V.nbytes
        assert (size <= numerics._SVD_MEMO_BYTES // numerics._SVD_MEMO_ENTRIES) == kept
        assert numerics._memo.cache_info().currsize == int(kept)
        assert not (f.U.flags.writeable or f.S.flags.writeable or f.V.flags.writeable)
        np.testing.assert_allclose(f.reconstruct(), a, rtol=0, atol=1e-12)

    def test_keys_with_one_hash_keep_their_own_factors(self):
        a = Rng(27).normal(size=(4, 3))
        b = a[[1, 0, 2, 3]]  # rows swapped: the same 64-bit words, so the same hash
        assert hash(numerics._Content(a)) == hash(numerics._Content(b))
        fa, fb = svd(a), svd(b)
        info = numerics._memo.cache_info()
        assert info.misses == info.currsize == 2
        np.testing.assert_allclose(fa.reconstruct(), a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fb.reconstruct(), b, rtol=0, atol=1e-12)
        assert factor_bytes(svd(b.copy())) == factor_bytes(fb)


class TestTruncateSvd:
    """The truncation rule, :func:`truncation_rank`. The class keeps the name
    of the copying truncation it tested before, so its tests keep their ids."""

    def test_forced_smallest_k(self):
        assert truncation_rank(np.array([4.0, 3.0, 2.0, 1.0]), 0.7) == 2  # cumulative 7/10 = 0.70 >= 0.70

    def test_full_retention(self):
        assert truncation_rank(np.array([4.0, 3.0, 2.0, 1.0]), 1.0) == 4

    def test_dominant_first_value(self):
        assert truncation_rank(np.array([5.0, 1.0, 1.0, 1.0, 1.0, 1.0]), 0.5) == 1  # 5/10 >= 0.5

    def test_all_zero_spectrum_degenerate(self):
        assert truncation_rank(np.zeros(3), 0.9) == 1

    def test_ratio_domain(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                truncation_rank(np.array([1.0]), bad)

    @pytest.mark.parametrize("seed", range(6))
    def test_dominance_in_ratio(self, seed):
        # a larger retained-mass target can never keep fewer triplets
        f = svd(Rng(seed).normal(size=(8, 6)))
        grid = [0.1 * k for k in range(1, 11)]
        ranks = [truncation_rank(f.S, lam) for lam in grid]
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

    @pytest.mark.parametrize("k", [128, 170, 256])
    def test_tie_breaks_to_lower_index_in_a_long_row(self, k):
        # at this length numpy's default (unstable) argsort picks other ties than the lowest-index ones
        scores = np.zeros(512)
        scores[::3] = 1.0
        expected = sorted(sorted(range(512), key=lambda i: (-scores[i], i))[:k])
        assert top_k_indices(scores, k).tolist() == expected

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
