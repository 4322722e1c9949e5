import numpy as np
import pytest

from satmimo import InfeasibleError, brute_force_assignment, max_weight_assignment


class TestMaxWeightAssignment:
    def test_diagonal_dominant(self):
        w = np.eye(3) * 0.9 + 0.05
        np.testing.assert_array_equal(max_weight_assignment(w), [0, 1, 2])

    def test_two_by_two_counterintuitive(self):
        # greedy would grab 0.9 first and end at 0.9 + 0.2 = 1.1; the optimum
        # here is also 1.1 but the cross pairing gives only 0.1 + 0.8
        w = np.array([[0.9, 0.1], [0.8, 0.2]])
        pi = max_weight_assignment(w)
        np.testing.assert_array_equal(pi, [0, 1])
        assert w[np.arange(len(pi)), pi].sum() == pytest.approx(1.1)

    def test_all_equal_weights_value(self):
        w = np.full((3, 5), 0.7)
        pi = max_weight_assignment(w)
        assert len(set(pi)) == 3
        assert w[np.arange(len(pi)), pi].sum() == pytest.approx(2.1)
        # deterministic tie-break: lexicographically smallest mapping
        np.testing.assert_array_equal(pi, [0, 1, 2])

    def test_rectangular_uses_best_columns(self):
        w = np.array([[0.0, 0.0, 1.0, 0.0],
                      [0.0, 1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(max_weight_assignment(w), [2, 1])

    def test_infeasible_when_more_streams_than_sats(self):
        with pytest.raises(InfeasibleError):
            max_weight_assignment(np.ones((3, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            max_weight_assignment(np.array([[1.0, np.inf]]))

    def test_matches_brute_force_on_500_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            s = int(rng.integers(1, 7))
            l = int(rng.integers(s, 7))
            w = rng.uniform(0, 1, size=(s, l))
            fast = max_weight_assignment(w)
            slow = brute_force_assignment(w)
            assert w[np.arange(s), fast].sum() == pytest.approx(
                w[np.arange(s), slow].sum(), rel=1e-12)

    def test_matches_brute_force_mapping_with_integer_ties(self):
        # integer-valued weights tie often; brute force sums them exactly
        # and keeps the first optimum in lexicographic order, so the two
        # mappings must agree entry for entry
        rng = np.random.default_rng(17)
        for _ in range(1500):
            s = int(rng.integers(1, 6))
            l = int(rng.integers(s, 7))
            top = int(rng.integers(1, 4))
            w = rng.integers(0, top + 1, size=(s, l)) * rng.choice([1.0, 7.0, 1e5])
            np.testing.assert_array_equal(max_weight_assignment(w),
                                          brute_force_assignment(w))

    def test_one_hungarian_solve(self, monkeypatch):
        from satmimo import assignment
        calls = []
        hungarian = assignment._hungarian_min

        def count(cost):
            calls.append(cost.shape)
            return hungarian(cost)

        monkeypatch.setattr(assignment, "_hungarian_min", count)
        rng = np.random.default_rng(3)
        w = rng.integers(0, 2, size=(4, 6)).astype(float)
        np.testing.assert_array_equal(max_weight_assignment(w),
                                      brute_force_assignment(w))
        assert calls == [(6, 6)]

    def test_no_streams(self):
        assert max_weight_assignment(np.zeros((0, 3))).shape == (0,)

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(0, 1, size=(3, 5))
        perm = rng.permutation(5)
        pi = max_weight_assignment(w)
        pi_p = max_weight_assignment(w[:, perm])
        assert w[np.arange(3), pi].sum() == pytest.approx(
            w[:, perm][np.arange(3), pi_p].sum(), rel=1e-12)

    def test_scaling_leaves_mapping_unchanged(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            w = rng.uniform(0, 1, size=(3, 4))
            np.testing.assert_array_equal(max_weight_assignment(w),
                                          max_weight_assignment(3.7 * w))


class TestBruteForce:
    def test_single_pair(self):
        np.testing.assert_array_equal(brute_force_assignment([[2.0]]), [0])

    def test_antidiagonal_dominant(self):
        w = np.array([[0.0, 0.1, 0.9],
                      [0.1, 0.9, 0.0],
                      [0.9, 0.0, 0.1]])
        np.testing.assert_array_equal(brute_force_assignment(w), [2, 1, 0])

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_assignment(np.ones((2, 9)))
