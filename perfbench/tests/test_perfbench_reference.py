"""The benchmark's reference scorers and helpers against hand-computed values.

Run with ``python3 -m pytest perfbench/tests``.
"""

import math

import numpy as np
import pytest

import reference as ref

LN2 = math.log(2)


class TestEntropy:
    def test_hand_values(self):
        P = [[1.0, 0.0, 0.0, 0.0], [0.25] * 4, [0.5, 0.25, 0.25, 0.0]]
        got = ref.entropy_rows(P)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(math.log(4), abs=1e-15)
        assert got[2] == pytest.approx(1.5 * LN2, abs=1e-15)

    def test_class_order_cannot_split_a_tie(self):
        votes = np.array([4, 3, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0]) / 10
        rng = np.random.default_rng(0)
        rows = np.array([rng.permutation(votes) for _ in range(50)])
        assert len(set(ref.entropy_rows(rows).tolist())) == 1


def test_margin_hand_values():
    got = ref.margin_rows([[0.6, 0.3, 0.1], [0.5, 0.5, 0.0], [0.1, 0.2, 0.7]])
    assert got == pytest.approx([0.3, 0.0, 0.5], abs=1e-15)


class TestVoteEntropy:
    def test_two_of_three_members_agree(self):
        members = [[[0.9, 0.1, 0.0]], [[0.6, 0.4, 0.0]], [[0.2, 0.8, 0.0]]]
        want = -(2 / 3 * math.log(2 / 3) + 1 / 3 * math.log(1 / 3))
        assert ref.vote_entropy_rows(members)[0] == pytest.approx(want, abs=1e-15)

    def test_tied_member_votes_for_lowest_class(self):
        members = [[[0.5, 0.5]], [[1.0, 0.0]]]
        assert ref.vote_entropy_rows(members)[0] == 0.0


class TestKl:
    def test_identical_members_score_exactly_zero(self):
        p = np.array([5, 3, 2, 1]) / 11
        assert ref.kl_rows(np.tile(p, (5, 1, 1)))[0] == 0.0

    def test_opposite_members(self):
        members = [[[1.0, 0.0]], [[0.0, 1.0]]]
        assert ref.kl_rows(members)[0] == pytest.approx(LN2, abs=1e-15)

    def test_zero_mass_terms_drop_out(self):
        members = [[[0.5, 0.5]], [[1.0, 0.0]]]
        # consensus (0.75, 0.25)
        want = (0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
                + math.log(1 / 0.75)) / 2
        assert ref.kl_rows(members)[0] == pytest.approx(want, abs=1e-15)


class TestDensity:
    def test_quadratic_form_hand_values(self):
        Z = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]
        assert ref.density_factor(Z) == pytest.approx([0.5, 2 / 3, 0.5], abs=1e-15)

    def test_zero_vector_is_half_similar_to_everything(self):
        assert ref.density_factor([[3.0, 0.0], [0.0, 0.0]]) \
            == pytest.approx([0.75, 0.5], abs=1e-15)

    def test_blocks_do_not_change_the_result(self):
        Z = np.random.default_rng(1).normal(size=(37, 4))
        assert ref.density_factor(Z, block=5) \
            == pytest.approx(ref.density_factor(Z), abs=1e-15)

    def test_standardize_fits_on_one_matrix_applies_to_another(self):
        got = ref.standardize([[0.0, 5.0], [2.0, 5.0]], [[3.0, 7.0]])
        assert got.tolist() == [[2.0, 0.0]]


class TestTieBreak:
    def test_equal_scores_go_to_the_lowest_position(self):
        scores = [0.5, 0.9, 0.5, 0.9]
        assert ref.best_first(scores).tolist() == [1, 3, 0, 2]
        assert ref.best_first(scores, minimize=True).tolist() == [0, 2, 1, 3]

    def test_compare_batch_verdicts(self):
        scores = np.array([0.5, 0.9, 0.5 + 1e-16, 0.9, 0.1])
        assert ref.compare_batch([1, 3, 0], scores) == "tie_order"
        assert ref.compare_batch([1, 3, 2], scores) == "exact"
        assert ref.compare_batch([1, 3, 4], scores) == "wrong"
        assert ref.compare_batch([3, 1, 1], scores) == "wrong"
        assert ref.compare_batch([4, 0], scores, minimize=True) == "exact"


class TestHalfUpRounding:
    @pytest.mark.parametrize("fraction, n, want", [
        ("0.5", 1, 1),          # 0.5 -> 1
        ("0.5", 5, 3),          # 2.5 -> 3, where banker's rounding gives 2
        ("0.005", 9159, 46),    # the README's example
        ("0.005", 9100, 46),    # exactly 45.5
        ("0.015", 100, 2),      # exactly 1.5; the float 0.015 is below it
        ("0.0149", 100, 1),
        ("0.02", 9204, 184),
    ])
    def test_values(self, fraction, n, want):
        assert ref.round_half_up(fraction, n) == want


class TestPercentile:
    @pytest.mark.parametrize("n, want", [
        (20, "50"), (99, "50"), (100, "90"), (999, "90"), (1000, "99"),
        (9999, "99"), (10000, "99.9"), (10 ** 6, "99.9"),
    ])
    def test_highest_rung_with_ten_beyond(self, n, want):
        p = ref.tail_percentile(n)
        assert p == want
        assert n - ref.nearest_rank(p, n) >= ref.TAIL_BEYOND

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            ref.tail_percentile(19)

    def test_nearest_rank_leaves_exactly_ten_beyond(self):
        values = list(range(100, 0, -1))
        assert ref.percentile(values, "90") == 90
        assert sum(v > 90 for v in values) == 10
        assert ref.percentile(list(range(1, 10001)), "99.9") == 9990

    def test_median(self):
        assert ref.percentile([3.0, 1.0, 2.0], "50") == 2.0
