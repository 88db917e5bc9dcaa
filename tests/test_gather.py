import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moegather.gather import (
    GatherConfig,
    StructureError,
    average_bias,
    build_student,
    gather_avg,
    gather_sum,
    gather_svdkg,
    gather_topkg,
    matched_tensors,
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
    model_from_tensors,
    state_hash,
)
from moegather.numerics import NumericalError, Rng, svd


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
        d_model=6, d_ff=8, seq_len=3, num_classes=4, num_blocks=2, stage="moe", num_experts=4, top_k=2,
    )
    defaults.update(kw)
    return Architecture(**defaults)


class TestCopyMatched:
    def test_forced_gate_oracle(self):
        # teacher with gates pinned to one expert (a one-expert router gives
        # every token gate 1) == the dense model assembled from the teacher's
        # matched tensors and that expert's weights
        arch = moe_arch(num_experts=1, top_k=1)
        teacher = build_classifier(arch, Rng(2))
        chosen = teacher.blocks[0].stage.experts[0]
        stage = {f"stage.{name}": t.copy() for name, t in chosen.tensors().items()}
        student = model_from_tensors(arch.dense_twin(), {**matched_tensors(teacher), **stage})
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
    @pytest.mark.parametrize("a,want", [
        (np.eye(2), [1.0, 1.0]),
        (np.array([[3.0], [4.0]]), [5.0]),
        (Rng(4).normal(size=(5, 3)), None),  # None: the scalar loop below is the oracle
    ], ids=["identity", "three_four_five", "scalar_loop_oracle"])
    def test_unit_scores_add_paired_norms(self, a, want):
        d, h = a.shape
        if want is None:
            want = [sum(a[i, j] ** 2 for i in range(d)) ** 0.5 for j in range(h)]

        def scores(w1, w2):
            return unit_scores(FeedForward(w1, np.zeros(h), w2, np.zeros(d)))

        assert np.abs(scores(a, np.zeros((h, d))) - want).max() < 1e-12  # column norms of w1
        assert np.abs(scores(np.zeros((d, h)), a.T) - want).max() < 1e-12  # row norms of w2
        assert np.abs(scores(a, 2 * a.T) - 3 * np.asarray(want)).max() < 1e-12

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

    @pytest.mark.parametrize("seed,num_experts,d_ff", [(0, 2, 8), (1, 4, 12), (2, 3, 12), (3, 6, 12), (4, 3, 8)])
    def test_matches_enumeration_oracle(self, seed, num_experts, d_ff):
        rng = Rng(seed)
        bank = make_bank(rng, num_experts=num_experts, d=5, h=d_ff)
        w1, w2, selected = gather_topkg(bank)
        for e, (expert, sel) in enumerate(zip(bank, selected)):
            k = d_ff // num_experts + (e < d_ff % num_experts)
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

    def test_remainder_spreads_over_the_first_experts(self):
        for num_experts, d_ff, quota in ((3, 8, [3, 3, 2]), (4, 2, [1, 1, 0, 0])):
            bank = make_bank(Rng(6), num_experts=num_experts, h=d_ff)
            w1, w2, selected = gather_topkg(bank)
            assert [len(s) for s in selected] == quota
            assert w1.shape == bank[0].w1.shape and w2.shape == bank[0].w2.shape


class TestSvdKG:
    def test_single_expert_full_ratio_roundtrip(self):
        rng = Rng(0)
        e = make_ffn(rng)
        w1, w2, *_ = gather_svdkg([e], 1.0)
        assert np.linalg.norm(w1 - e.w1) / np.linalg.norm(e.w1) < 1e-8
        assert np.linalg.norm(w2 - e.w2) / np.linalg.norm(e.w2) < 1e-8

    def test_full_ratio_equals_sum(self):
        rng = Rng(1)
        bank = make_bank(rng, num_experts=3)
        w1, w2, *_ = gather_svdkg(bank, 1.0)
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
        w1_g, *_, spectra = gather_svdkg(bank, ratio)
        assert spectra["ranks_w1"] == [1, 1, 1]
        assert np.abs(w1_g - total_w1).max() < 1e-10

    def test_matches_truncate_then_sum_oracle(self):
        # independent oracle built on numpy's SVD, not the package's
        rng = Rng(3)
        bank = make_bank(rng, num_experts=4, d=6, h=9)
        ratio = 0.75
        w1_g, w2_g, *_ = gather_svdkg(bank, ratio)
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
        *_, spectra = gather_svdkg(bank, ratio)
        for role in ("w1", "w2"):
            for k, spectrum in zip(spectra[f"ranks_{role}"], spectra[f"singular_values_{role}"]):
                s = np.asarray(spectrum)
                total = s.sum()
                assert s[:k].sum() >= ratio * total
                assert k == 1 or s[: k - 1].sum() < ratio * total

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

    def test_matched_bias_policy_pairs_units(self):
        teacher = build_classifier(moe_arch(), Rng(6))
        cfg = GatherConfig(method="topkg", bias_policy="matched")
        student, report = build_student(teacher, cfg)
        experts = teacher.blocks[0].stage.experts
        selected = report.selected_units
        expected_b1 = np.concatenate([experts[e].b1[idx] for e, idx in enumerate(selected)])
        assert np.array_equal(student.blocks[0].stage.b1, expected_b1)
        expected_b2 = np.mean([e.b2 for e in experts], axis=0)
        assert np.allclose(student.blocks[0].stage.b2, expected_b2)

    @pytest.mark.parametrize("method", ["sum", "avg", "topkg", "svdkg"])
    def test_seed_does_not_change_the_student(self, method):
        # every student tensor comes from the teacher; the seed is provenance only
        teacher = build_classifier(moe_arch(), Rng(8))
        ratio = 0.75 if method == "svdkg" else None
        hashes = {state_hash(build_student(teacher, GatherConfig(method, ratio, seed=seed))[0]) for seed in range(3)}
        assert len(hashes) == 1

    @pytest.mark.parametrize("method", ["sum", "avg", "topkg", "svdkg"])
    def test_student_holds_copies_of_the_teacher(self, method):
        teacher = build_classifier(moe_arch(), Rng(10))
        before = state_hash(teacher)
        student, _ = build_student(teacher, GatherConfig(method, 0.75 if method == "svdkg" else None))
        for name, t in student.tensors().items():
            if not name.startswith("stage."):
                assert np.array_equal(t, teacher.tensors()[name])
            t[...] += 1.0  # mutate every student tensor, matched and gathered
        assert state_hash(teacher) == before

    @pytest.mark.parametrize("method,ratio,bias_policy", [
        ("sum", None, "average"), ("avg", None, "average"), ("topkg", None, "average"),
        ("topkg", None, "matched"), ("svdkg", 0.75, "average"), ("svdkg", 1.0, "average"),
    ])
    def test_student_shares_no_memory_with_the_teacher(self, method, ratio, bias_policy):
        teacher = build_classifier(moe_arch(), Rng(10))
        student, _ = build_student(teacher, GatherConfig(method, ratio, bias_policy))
        for name, s in student.tensors().items():
            for source, t in teacher.tensors().items():
                assert not np.shares_memory(s, t), (name, source)

    def test_dense_teacher_rejected(self):
        dense = build_classifier(moe_arch().dense_twin(), Rng(7))
        with pytest.raises(StructureError):
            build_student(dense, GatherConfig(method="avg"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("method", ["sum", "avg", "topkg", "svdkg"])
    def test_a_non_finite_expert_is_refused_by_every_method(self, method, bad):
        teacher = build_classifier(moe_arch(), Rng(11))
        teacher.blocks[0].stage.experts[2].w2[3, 1] = bad
        cfg = GatherConfig(method, 0.75 if method == "svdkg" else None)
        with pytest.raises(NumericalError, match="MoE stage has non-finite entries"):
            build_student(teacher, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GatherConfig(method="svdkg")  # ratio required
        with pytest.raises(ValueError):
            GatherConfig(method="sum", svd_ratio=0.5)  # ratio forbidden
        with pytest.raises(ValueError):
            GatherConfig(method="avg", bias_policy="matched")
        with pytest.raises(ValueError):
            GatherConfig(method="nope")

    def test_an_unknown_bias_policy_is_refused(self):
        with pytest.raises(ValueError, match="bias_policy must be one of .*, got 'median'"):
            GatherConfig(method="sum", bias_policy="median")

    @pytest.mark.parametrize("ratio", ["0.5", True, 0, 1.5, float("nan")])
    def test_svd_ratio_must_be_a_number_in_the_unit_interval(self, ratio):
        with pytest.raises(ValueError, match="svd_ratio must be a positive finite number at most 1"):
            GatherConfig(method="svdkg", svd_ratio=ratio)

    @pytest.mark.parametrize("method", ["sum", "avg", "topkg", "svdkg"])
    def test_report_is_flat_and_fills_only_its_methods_fields(self, method):
        teacher = build_classifier(moe_arch(), Rng(12))
        ratio = 0.75 if method == "svdkg" else None
        _, report = build_student(teacher, GatherConfig(method, ratio))
        d = report.to_dict()
        per_method = {"svdkg": ["ranks_w1", "ranks_w2", "singular_values_w1", "singular_values_w2"],
                      "topkg": ["selected_units"]}
        assert set(d) == {"method", "svd_ratio", "bias_policy", "residual_w1", "residual_w2",
                          "rank_total_w1", "rank_total_w2", *per_method["svdkg"], *per_method["topkg"]}
        assert (d["method"], d["svd_ratio"], d["bias_policy"]) == (method, ratio, "average")
        for key in (*per_method["svdkg"], *per_method["topkg"]):
            assert len(d[key]) == (4 if key in per_method.get(method, []) else 0), key
        assert len(d["residual_w1"]) == len(d["residual_w2"]) == 4
        assert (d["rank_total_w1"], d["rank_total_w2"]) == (sum(d["ranks_w1"]), sum(d["ranks_w2"]))


class TestGatherProperties:
    @pytest.mark.parametrize("method", ["sum", "avg", "topkg", "svdkg"])
    def test_shapes_preserved(self, method):
        rng = Rng(0)
        bank = make_bank(rng, num_experts=4, d=5, h=8)
        if method == "topkg":
            w1, w2, _ = gather_topkg(bank)
        elif method == "svdkg":
            w1, w2, *_ = gather_svdkg(bank, 0.5)
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
        a, *_ = gather_svdkg(bank, 0.7)
        b, *_ = gather_svdkg(shuffled, 0.7)
        assert np.abs(a - b).max() < 1e-8

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_experts=st.integers(1, 5),
        d_model=st.integers(1, 6),
        d_ff=st.integers(1, 8),
        ratio=st.floats(0.05, 1.0),
        data=st.data(),
    )
    def test_sum_avg_svdkg_student_permutation_invariant(self, seed, num_experts, d_model, d_ff, ratio, data):
        perm = data.draw(st.permutations(range(num_experts)))
        arch = moe_arch(d_model=d_model, d_ff=d_ff, num_experts=num_experts, top_k=1)
        teacher, shuffled = build_classifier(arch, Rng(seed)), build_classifier(arch, Rng(seed))
        stage = shuffled.blocks[0].stage
        stage.experts = [stage.experts[i] for i in perm]
        stage.router.weight = stage.router.weight[:, perm]
        for cfg in (GatherConfig("sum"), GatherConfig("avg"), GatherConfig("svdkg", ratio)):
            a, b = build_student(teacher, cfg)[0].parameters(), build_student(shuffled, cfg)[0].parameters()
            assert max(np.abs(a[name] - b[name]).max() for name in a) < 1e-12, cfg.method

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


class TestReportResiduals:
    """Each report's residual_w1/residual_w2 against a direct oracle, for the
    teacher's one shared stage."""

    @staticmethod
    def gathered(method, zero_expert=False):
        """(teacher stage, student stage, report) of one gather."""
        teacher = build_classifier(moe_arch(), Rng(11))
        if zero_expert:
            for t in teacher.blocks[0].stage.experts[0].tensors().values():
                t[...] = 0.0
        student, report = build_student(teacher, GatherConfig(method, 1.0 if method == "svdkg" else None))
        return teacher.blocks[0].stage, student.blocks[0].stage, report

    @pytest.mark.parametrize("method", ["sum", "avg"])
    def test_merges_report_the_distance_to_the_merged_weights(self, method):
        moe, dense, report = self.gathered(method)
        for i, e in enumerate(moe.experts):
            for w, merged, residual in ((e.w1, dense.w1, report.residual_w1), (e.w2, dense.w2, report.residual_w2)):
                want = np.linalg.norm(w - merged) / np.linalg.norm(w)
                assert abs(residual[i] - want) <= 1e-12 * want

    def test_topkg_reports_the_weight_of_the_dropped_units(self):
        moe, _, report = self.gathered("topkg")
        for e, kept, r1, r2 in zip(moe.experts, report.selected_units, report.residual_w1, report.residual_w2):
            dropped = np.setdiff1d(np.arange(e.d_ff), kept)
            assert abs(r1 - np.linalg.norm(e.w1[:, dropped]) / np.linalg.norm(e.w1)) <= 1e-12
            assert abs(r2 - np.linalg.norm(e.w2[dropped, :]) / np.linalg.norm(e.w2)) <= 1e-12

    def test_svdkg_at_full_ratio_reports_no_residual(self):
        _, _, report = self.gathered("svdkg")
        assert max(report.residual_w1 + report.residual_w2) <= 1e-12

    @pytest.mark.parametrize("method", ["sum", "avg", "topkg", "svdkg"])
    def test_an_all_zero_expert_has_zero_residual(self, method):
        _, _, report = self.gathered(method, zero_expert=True)
        assert report.residual_w1[0] == 0.0 and report.residual_w2[0] == 0.0
