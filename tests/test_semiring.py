"""Unit tests for the semiring module."""

import numpy as np
import pytest

from repro.semiring import (
    MAX_TIMES,
    MIN_PLUS,
    OR_AND,
    PLUS_PAIR,
    PLUS_TIMES,
    available_semirings,
    get_semiring,
)


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_semiring("plus_times") is PLUS_TIMES
        assert get_semiring("min_plus") is MIN_PLUS

    def test_lookup_passthrough(self):
        assert get_semiring(PLUS_TIMES) is PLUS_TIMES

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="available"):
            get_semiring("nope")

    def test_available(self):
        names = available_semirings()
        assert "plus_times" in names and "or_and" in names
        assert names == tuple(sorted(names))


class TestOperations:
    def test_plus_times(self):
        a, b = np.array([2.0, 3.0]), np.array([4.0, 5.0])
        np.testing.assert_allclose(PLUS_TIMES.multiply(a, b), [8.0, 15.0])
        np.testing.assert_allclose(PLUS_TIMES.add(a, b), [6.0, 8.0])

    def test_min_plus(self):
        a, b = np.array([2.0, 3.0]), np.array([4.0, 1.0])
        np.testing.assert_allclose(MIN_PLUS.multiply(a, b), [6.0, 4.0])
        np.testing.assert_allclose(MIN_PLUS.add(a, b), [2.0, 1.0])
        assert MIN_PLUS.add_identity == np.inf

    def test_max_times(self):
        a, b = np.array([2.0, -3.0]), np.array([4.0, 5.0])
        np.testing.assert_allclose(MAX_TIMES.add(a, b), [4.0, 5.0])

    def test_or_and(self):
        a, b = np.array([1.0, 0.0, 2.0]), np.array([1.0, 1.0, 0.0])
        np.testing.assert_allclose(OR_AND.multiply(a, b), [1.0, 0.0, 0.0])

    def test_plus_pair(self):
        a, b = np.array([7.0, -2.0]), np.array([0.5, 8.0])
        np.testing.assert_allclose(PLUS_PAIR.multiply(a, b), [1.0, 1.0])

    def test_reduceat_sums_segments(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        starts = np.array([0, 2])
        np.testing.assert_allclose(PLUS_TIMES.reduceat(vals, starts), [3.0, 7.0])

    def test_reduceat_min(self):
        vals = np.array([3.0, 1.0, 9.0, 5.0])
        starts = np.array([0, 2])
        np.testing.assert_allclose(MIN_PLUS.reduceat(vals, starts), [1.0, 5.0])

    def test_reduceat_or_preserves_dtype(self):
        vals = np.array([1.0, 0.0, 1.0])
        out = OR_AND.reduceat(vals, np.array([0, 1]))
        assert out.dtype == vals.dtype
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_reduceat_empty(self):
        out = PLUS_TIMES.reduceat(np.array([]), np.array([], dtype=int))
        assert len(out) == 0

    def test_is_annihilated(self):
        mask = PLUS_TIMES.is_annihilated(np.array([0.0, 1.0, 0.0]))
        assert mask.tolist() == [True, False, True]


class TestSequentialMinMaxFold:
    """min/max runs fold left to right from the run head, whatever the
    duplicate share: numpy's vectorized min/max reduction picks 0.0 vs
    -0.0, and which NaN survives, by SIMD lane."""

    @pytest.mark.parametrize("name", ["min_plus", "max_times"])
    def test_fold_runs_and_reduceat_match_left_fold(self, name):
        sr = get_semiring(name)
        rng = np.random.default_rng(5)
        lengths = rng.integers(1, 40, size=3000)
        vals = rng.choice(np.array([0.0, -0.0, np.nan, -np.nan, 1.0]), lengths.sum())
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        run_start = np.zeros(len(vals), dtype=bool)
        run_start[starts] = True
        expected = np.empty(len(starts))
        for i, (lo, n) in enumerate(zip(starts, lengths)):
            acc = vals[lo]
            for v in vals[lo + 1 : lo + n]:
                acc = sr.add_ufunc(acc, v)
            expected[i] = acc
        with np.errstate(invalid="ignore"):
            _, folded = sr.fold_runs(run_start, vals)
            assert folded.tobytes() == expected.tobytes()
            assert sr.fold_runs_masked(run_start, vals).tobytes() == expected.tobytes()
            assert sr.reduceat(vals, starts).tobytes() == expected.tobytes()
