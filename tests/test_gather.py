import itertools

import numpy as np
import pytest

from moegather.gather import (
    GatherConfig,
    StructureError,
    average_bias,
    build_student,
    copy_matched,
    gather_avg,
    gather_sum,
    gather_svdkg,
    gather_topkg,
    svdkg_merge,
    unit_scores,
)
from moegather.model import (
    Architecture,
    FeedForward,
    MoELayer,
    Router,
    _stage_forward_dense,
    build_classifier,
    count_parameters,
    forward_batch,
    state_hash,
)
from moegather.numerics import Rng, svd


def make_ffn(rng, d=6, h=8):
    return FeedForward(
        w1=rng.normal(size=(d, h)),
        b1=rng.normal(size=h),
        w2=rng.normal(size=(h, d)),
        b2=rng.normal(size=d),
    )


def make_bank(rng, num_experts=4, d=6, h=8):
    return [make_ffn(rng, d, h) for _ in range(num_experts)]


def moe_arch(**kw):
    defaults = dict(
        d_model=6, d_ff=8, seq_len=3, num_classes=4, num_blocks=2,
        parameter_sharing=True, stage="moe", num_experts=4, top_k=2,
    )
    defaults.update(kw)
    return Architecture(**defaults)


class TestCopyMatched:
    def test_matched_layers_bit_identical(self):
        teacher = build_classifier(moe_arch(), Rng(0))
        student = build_classifier(moe_arch().dense_twin(), Rng(1))
        copy_matched(teacher, student)
        assert np.array_equal(student.embed, teacher.embed)
        assert np.array_equal(student.head_w, teacher.head_w)
        assert np.array_equal(student.head_b, teacher.head_b)
        for tb, sb in zip(teacher.blocks, student.blocks):
            assert np.array_equal(sb.ln1_gain, tb.ln1_gain)
            assert np.array_equal(sb.ln2_bias, tb.ln2_bias)
            assert np.array_equal(sb.mixer, tb.mixer)

    def test_copy_leaves_stage_untouched(self):
        teacher = build_classifier(moe_arch(), Rng(0))
        student = build_classifier(moe_arch().dense_twin(), Rng(1))
        stage_before = {k: v.copy() for k, v in student.blocks[0].stage.tensors().items()}
        copy_matched(teacher, student)
        for k, v in student.blocks[0].stage.tensors().items():
            assert np.array_equal(v, stage_before[k])

    def test_shape_mismatch_names_layer(self):
        teacher = build_classifier(moe_arch(), Rng(0))
        student = build_classifier(moe_arch(seq_len=4).dense_twin(), Rng(1))
        with pytest.raises(StructureError, match="mixer"):
            copy_matched(teacher, student)

    def test_block_count_mismatch_names_first_missing_layer(self):
        teacher = build_classifier(moe_arch(), Rng(0))
        student = build_classifier(moe_arch(num_blocks=3).dense_twin(), Rng(1))
        with pytest.raises(StructureError, match="'block2.ln1.gain': teacher shape absent"):
            copy_matched(teacher, student)

    def test_forced_gate_oracle(self):
        # teacher with gates pinned to one expert (a one-expert router gives
        # every token gate 1) == student carrying that expert's weights in its
        # dense stage
        arch = moe_arch(num_experts=1, top_k=1)
        teacher = build_classifier(arch, Rng(2))
        student = build_classifier(arch.dense_twin(), Rng(3))
        copy_matched(teacher, student)
        chosen = teacher.blocks[0].stage.experts[0]
        stage = student.blocks[0].stage
        stage.w1[...] = chosen.w1
        stage.b1[...] = chosen.b1
        stage.w2[...] = chosen.w2
        stage.b2[...] = chosen.b2
        tokens = Rng(4).normal(size=(5, 3, 6))
        forced, _ = forward_batch(teacher, tokens)
        plain, _ = forward_batch(student, tokens)
        assert np.abs(forced - plain).max() < 1e-10


class TestBiasAndSimpleMerges:
    def test_average_bias_idempotent(self):
        rng = Rng(0)
        e = make_ffn(rng)
        b1, b2 = average_bias([e, e.copy(), e.copy()])
        assert np.allclose(b1, e.b1) and np.allclose(b2, e.b2)

    def test_average_bias_arithmetic(self):
        e1 = FeedForward(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), np.array([1.0, 3.0]))
        e2 = FeedForward(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), np.array([3.0, 5.0]))
        _, b2 = average_bias([e1, e2])
        assert np.array_equal(b2, np.array([2.0, 4.0]))

    def test_average_bias_matches_scalar_mean_oracle(self):
        rng = Rng(1)
        bank = make_bank(rng, num_experts=5)
        b1, b2 = average_bias(bank)
        for j in range(bank[0].d_ff):
            assert abs(b1[j] - sum(e.b1[j] for e in bank) / 5) < 1e-12
        for j in range(bank[0].d_model):
            assert abs(b2[j] - sum(e.b2[j] for e in bank) / 5) < 1e-12

    def test_sum_cancellation(self):
        rng = Rng(2)
        e = make_ffn(rng)
        neg = FeedForward(-e.w1, e.b1.copy(), -e.w2, e.b2.copy())
        w1, w2 = gather_sum([e, neg])
        assert np.allclose(w1, 0.0) and np.allclose(w2, 0.0)

    def test_replicated_experts(self):
        rng = Rng(3)
        e = make_ffn(rng)
        bank = [e.copy() for _ in range(4)]
        w1_sum, _ = gather_sum(bank)
        w1_avg, _ = gather_avg(bank)
        assert np.allclose(w1_sum, 4 * e.w1)
        assert np.allclose(w1_avg, e.w1)

    def test_matches_elementwise_oracle(self):
        rng = Rng(4)
        bank = make_bank(rng, num_experts=3)
        w1_sum, w2_sum = gather_sum(bank)
        w1_avg, w2_avg = gather_avg(bank)
        for i in range(bank[0].d_model):
            for j in range(bank[0].d_ff):
                s = sum(e.w1[i, j] for e in bank)
                assert abs(w1_sum[i, j] - s) < 1e-12
                assert abs(w1_avg[i, j] - s / 3) < 1e-12
        assert np.abs(w2_avg * 3 - w2_sum).max() < 1e-12


class TestTopKG:
    def test_single_expert_identity(self):
        rng = Rng(0)
        e = make_ffn(rng)
        w1, w2, selected = gather_topkg([e])
        assert np.array_equal(w1, e.w1) and np.array_equal(w2, e.w2)
        assert selected == [list(range(e.d_ff))]

    def test_concrete_two_expert_selection(self):
        # expert scores (1,2,3,0.5) and (9,0,0,8): selections {1,2} and {0,3}
        def with_scores(col_scores):
            d_ff = len(col_scores)
            w1 = np.zeros((3, d_ff))
            w1[0, :] = col_scores  # column norm equals the score, row norms 0
            w2 = np.zeros((d_ff, 3))
            return FeedForward(w1, np.zeros(d_ff), w2, np.zeros(3))

        e1 = with_scores([1.0, 2.0, 3.0, 0.5])
        e2 = with_scores([9.0, 0.0, 0.0, 8.0])
        w1, w2, selected = gather_topkg([e1, e2])
        assert selected == [[1, 2], [0, 3]]
        expected_cols = np.stack([e1.w1[:, 1], e1.w1[:, 2], e2.w1[:, 0], e2.w1[:, 3]], axis=1)
        assert np.array_equal(w1, expected_cols)

    @pytest.mark.parametrize("seed,num_experts,d_ff", [(0, 2, 8), (1, 4, 12), (2, 3, 12), (3, 6, 12)])
    def test_matches_enumeration_oracle(self, seed, num_experts, d_ff):
        rng = Rng(seed)
        bank = make_bank(rng, num_experts=num_experts, d=5, h=d_ff)
        w1, w2, selected = gather_topkg(bank)
        k = d_ff // num_experts
        for e, (expert, sel) in enumerate(zip(bank, selected)):
            scores = unit_scores(expert)
            best = max(
                itertools.combinations(range(d_ff), k),
                key=lambda c: (sum(scores[i] for i in c), tuple(-i for i in c)),
            )
            assert tuple(sel) == tuple(sorted(best))
        # positional pairing: column j of w1 and row j of w2 share a unit
        flat = [(e, u) for e, sel in enumerate(selected) for u in sel]
        for j, (e, u) in enumerate(flat):
            assert np.array_equal(w1[:, j], bank[e].w1[:, u])
            assert np.array_equal(w2[j, :], bank[e].w2[u, :])

    def test_tie_prefers_lower_index(self):
        rng = Rng(5)
        e = make_ffn(rng, d=4, h=6)
        e.w1[:, 3] = e.w1[:, 1]  # duplicate scores at units 1 and 3
        e.w2[3, :] = e.w2[1, :]
        zero = FeedForward(np.zeros((4, 6)), np.zeros(6), np.zeros((6, 4)), np.zeros(4))
        scores = unit_scores(e)
        assert scores[1] == pytest.approx(scores[3])
        _, _, selected = gather_topkg([e, zero])
        if scores[1] >= np.sort(scores)[-3]:  # the tied pair is in contention
            assert 1 in selected[0] or 3 not in selected[0]

    def test_remainder_requires_flag(self):
        rng = Rng(6)
        bank = make_bank(rng, num_experts=3, h=8)
        with pytest.raises(StructureError):
            gather_topkg(bank)
        _, _, selected = gather_topkg(bank, allow_remainder=True)
        assert [len(s) for s in selected] == [3, 3, 2]


class TestSvdKG:
    def test_single_expert_full_ratio_roundtrip(self):
        rng = Rng(0)
        e = make_ffn(rng)
        w1, w2, record = gather_svdkg([e], 1.0)
        assert np.linalg.norm(w1 - e.w1) / np.linalg.norm(e.w1) < 1e-8
        assert np.linalg.norm(w2 - e.w2) / np.linalg.norm(e.w2) < 1e-8

    def test_full_ratio_equals_sum(self):
        rng = Rng(1)
        bank = make_bank(rng, num_experts=3)
        w1, w2, _ = gather_svdkg(bank, 1.0)
        w1_sum, w2_sum = gather_sum(bank)
        assert np.linalg.norm(w1 - w1_sum) / np.linalg.norm(w1_sum) < 1e-8
        assert np.linalg.norm(w2 - w2_sum) / np.linalg.norm(w2_sum) < 1e-8

    @pytest.mark.parametrize("ratio", [0.3, 0.7, 1.0])
    def test_rank_one_experts_kept_exactly(self, ratio):
        rng = Rng(2)
        d, h = 5, 7
        bank = []
        total_w1 = np.zeros((d, h))
        for _ in range(3):
            u = rng.normal(size=d)
            v = rng.normal(size=h)
            w1 = np.outer(u, v)
            total_w1 += w1
            bank.append(FeedForward(w1, rng.normal(size=h), rng.normal(size=(h, d)), rng.normal(size=d)))
        w1_g, _, record = gather_svdkg(bank, ratio)
        assert record.ranks_w1 == [1, 1, 1]
        assert np.abs(w1_g - total_w1).max() < 1e-10

    def test_matches_truncate_then_sum_oracle(self):
        # independent oracle built on numpy's SVD, not the package's
        rng = Rng(3)
        bank = make_bank(rng, num_experts=4, d=6, h=9)
        ratio = 0.75
        w1_g, w2_g, record = gather_svdkg(bank, ratio)
        for role, merged in (("w1", w1_g), ("w2", w2_g)):
            expected = np.zeros_like(merged)
            for expert in bank:
                mat = getattr(expert, role)
                u, s, vt = np.linalg.svd(mat, full_matrices=False)
                cum = np.cumsum(s)
                k = int(np.searchsorted(cum, ratio * cum[-1], side="left")) + 1
                expected += (u[:, :k] * s[:k]) @ vt[:k, :]
            rel = np.linalg.norm(merged - expected) / np.linalg.norm(expected)
            assert rel < 1e-8

    def test_report_ranks_satisfy_smallest_k_rule(self):
        rng = Rng(4)
        bank = make_bank(rng, num_experts=3)
        ratio = 0.6
        _, _, record = gather_svdkg(bank, ratio)
        for ranks, spectra in (
            (record.ranks_w1, record.singular_values_w1),
            (record.ranks_w2, record.singular_values_w2),
        ):
            for k, spectrum in zip(ranks, spectra):
                s = np.asarray(spectrum)
                total = s.sum()
                assert s[:k].sum() >= ratio * total
                assert k == 1 or s[: k - 1].sum() < ratio * total
        assert record.rank_total_w1 == sum(record.ranks_w1)

    @pytest.mark.parametrize("seed", range(4))
    def test_monotone_approach_to_full_merge(self, seed):
        rng = Rng(seed)
        bank = make_bank(rng, num_experts=3, d=6, h=8)
        factors = [svd(e.w1) for e in bank]
        full = svdkg_merge(factors, 1.0)[0]
        grid = [0.1 * k for k in range(1, 11)]
        dist = [np.linalg.norm(svdkg_merge(factors, lam)[0] - full) for lam in grid]
        for a, b in zip(dist, dist[1:]):
            assert b <= a + 1e-9


class TestBuildStudent:
    def test_identical_experts_avg_matches_teacher_forward(self):
        # gates are raw softmax values, so they only sum to one when every
        # expert is selected; use top_k == num_experts for the identity
        teacher = build_classifier(moe_arch(num_experts=4, top_k=4), Rng(0))
        stage = teacher.blocks[0].stage
        for e in stage.experts[1:]:
            for name, t in e.tensors().items():
                t[...] = stage.experts[0].tensors()[name]
        student, _ = build_student(teacher, GatherConfig(method="avg"))
        tokens = Rng(1).normal(size=(6, 3, 6))
        t_logits, _ = forward_batch(teacher, tokens)  # noise off
        s_logits, _ = forward_batch(student, tokens)
        assert np.abs(t_logits - s_logits).max() < 1e-10

    def test_svdkg_full_ratio_equals_sum_student(self):
        teacher = build_classifier(moe_arch(), Rng(2))
        s_svd, _ = build_student(teacher, GatherConfig(method="svdkg", svd_ratio=1.0))
        s_sum, _ = build_student(teacher, GatherConfig(method="sum"))
        for (n1, p1), (n2, p2) in zip(s_svd.parameters().items(), s_sum.parameters().items()):
            assert n1 == n2
            scale = max(np.linalg.norm(p2), 1e-12)
            assert np.linalg.norm(p1 - p2) / scale < 1e-8

    @pytest.mark.parametrize("method", ["sum", "avg", "topkg", "svdkg"])
    def test_parameter_count_matches_dense_baseline(self, method):
        teacher = build_classifier(moe_arch(), Rng(3))
        cfg = GatherConfig(method=method, svd_ratio=0.75 if method == "svdkg" else None)
        student, _ = build_student(teacher, cfg)
        baseline = build_classifier(moe_arch().dense_twin(), Rng(9))
        # oracle: count every trainable tensor by explicit shape walk
        expected = sum(int(np.prod(p.shape)) for p in baseline.parameters().values())
        assert count_parameters(student) == expected
        for (sn, sp), (bn, bp) in zip(student.parameters().items(), baseline.parameters().items()):
            assert sn == bn and sp.shape == bp.shape

    def test_shared_teacher_yields_shared_student(self):
        teacher = build_classifier(moe_arch(), Rng(4))
        student, _ = build_student(teacher, GatherConfig(method="avg"))
        assert student.blocks[0].stage is student.blocks[1].stage

    def test_unshared_teacher_keeps_stages_separate(self):
        teacher = build_classifier(moe_arch(parameter_sharing=False), Rng(5))
        student, report = build_student(teacher, GatherConfig(method="avg"))
        assert student.blocks[0].stage is not student.blocks[1].stage
        assert len(report.layers) == 2
        assert not np.array_equal(student.blocks[0].stage.w1, student.blocks[1].stage.w1)

    def test_matched_bias_policy_pairs_units(self):
        teacher = build_classifier(moe_arch(), Rng(6))
        cfg = GatherConfig(method="topkg", bias_policy="matched")
        student, report = build_student(teacher, cfg)
        experts = teacher.blocks[0].stage.experts
        selected = report.layers[0].selected_units
        expected_b1 = np.concatenate([experts[e].b1[idx] for e, idx in enumerate(selected)])
        assert np.array_equal(student.blocks[0].stage.b1, expected_b1)
        expected_b2 = np.mean([e.b2 for e in experts], axis=0)
        assert np.allclose(student.blocks[0].stage.b2, expected_b2)

    @pytest.mark.parametrize("sharing", [True, False])
    @pytest.mark.parametrize("method", ["sum", "avg", "topkg", "svdkg"])
    def test_seed_does_not_change_the_student(self, method, sharing):
        # every student tensor comes from the teacher; the seed is provenance only
        teacher = build_classifier(moe_arch(parameter_sharing=sharing), Rng(8))
        ratio = 0.75 if method == "svdkg" else None
        hashes = {state_hash(build_student(teacher, GatherConfig(method, ratio, seed=seed))[0]) for seed in range(3)}
        assert len(hashes) == 1

    def test_dense_teacher_rejected(self):
        dense = build_classifier(moe_arch().dense_twin(), Rng(7))
        with pytest.raises(StructureError):
            build_student(dense, GatherConfig(method="avg"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GatherConfig(method="svdkg")  # ratio required
        with pytest.raises(ValueError):
            GatherConfig(method="sum", svd_ratio=0.5)  # ratio forbidden
        with pytest.raises(ValueError):
            GatherConfig(method="avg", bias_policy="matched")
        with pytest.raises(ValueError):
            GatherConfig(method="nope")


class TestGatherProperties:
    @pytest.mark.parametrize("method", ["sum", "avg", "topkg", "svdkg"])
    def test_shapes_preserved(self, method):
        rng = Rng(0)
        bank = make_bank(rng, num_experts=4, d=5, h=8)
        if method == "topkg":
            w1, w2, _ = gather_topkg(bank)
        elif method == "svdkg":
            w1, w2, _ = gather_svdkg(bank, 0.5)
        else:
            w1, w2 = (gather_sum if method == "sum" else gather_avg)(bank)
        assert w1.shape == bank[0].w1.shape
        assert w2.shape == bank[0].w2.shape

    @pytest.mark.parametrize("seed", range(3))
    def test_sum_avg_svdkg_permutation_invariant(self, seed):
        rng = Rng(seed)
        bank = make_bank(rng, num_experts=4)
        perm = list(Rng(seed + 100).permutation(4))
        shuffled = [bank[i] for i in perm]
        assert np.allclose(gather_sum(bank)[0], gather_sum(shuffled)[0], atol=1e-12)
        assert np.allclose(gather_avg(bank)[1], gather_avg(shuffled)[1], atol=1e-12)
        a, _, _ = gather_svdkg(bank, 0.7)
        b, _, _ = gather_svdkg(shuffled, 0.7)
        assert np.abs(a - b).max() < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_topkg_permutation_equivariance_at_function_level(self, seed):
        # permuting the expert bank permutes hidden units blockwise; the
        # induced feed-forward map with matched b1 is unchanged
        rng = Rng(seed)
        bank = make_bank(rng, num_experts=4, d=5, h=8)
        perm = list(Rng(seed + 200).permutation(4))
        shuffled = [bank[i] for i in perm]

        def assemble(experts):
            w1, w2, sel = gather_topkg(experts)
            b1 = np.concatenate([experts[e].b1[idx] for e, idx in enumerate(sel)])
            return FeedForward(w1, b1, w2, np.mean([e.b2 for e in experts], axis=0))

        f_orig = assemble(bank)
        f_perm = assemble(shuffled)
        for _ in range(5):
            x = rng.normal(size=5)
            y_orig = _stage_forward_dense(f_orig, x, need_grad=False)[0]
            y_perm = _stage_forward_dense(f_perm, x, need_grad=False)[0]
            assert np.abs(y_orig - y_perm).max() < 1e-10
