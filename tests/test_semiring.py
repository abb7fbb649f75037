"""Unit tests for the semiring module."""

import numpy as np
import pytest

from repro.semiring import (
    MAX_TIMES,
    MIN_PLUS,
    OR_AND,
    PLUS_PAIR,
    PLUS_TIMES,
    Semiring,
    available_semirings,
    canonical_nan,
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

    # The segmented reduction of the compress phase is Semiring.fold
    # over a run-start mask.
    def test_reduceat_sums_segments(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        run_start = np.array([True, False, True, False])
        np.testing.assert_allclose(PLUS_TIMES.fold(run_start, vals), [3.0, 7.0])

    def test_reduceat_min(self):
        vals = np.array([3.0, 1.0, 9.0, 5.0])
        run_start = np.array([True, False, True, False])
        np.testing.assert_allclose(MIN_PLUS.fold(run_start, vals), [1.0, 5.0])

    def test_reduceat_or_preserves_dtype(self):
        vals = np.array([1.0, 0.0, 1.0])
        out = OR_AND.fold(np.array([True, True, False]), vals)
        assert out.dtype == vals.dtype
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_reduceat_empty(self):
        out = PLUS_TIMES.fold(np.array([], dtype=bool), np.array([]))
        assert len(out) == 0

    def test_is_annihilated(self):
        mask = PLUS_TIMES.is_annihilated(np.array([0.0, 1.0, 0.0]))
        assert mask.tolist() == [True, False, True]


class TestSequentialMinMaxFold:
    """Every run folds left to right from the run head, whatever the
    semiring and the duplicate share, and a NaN result is the canonical
    quiet NaN: numpy's pairwise sum and vectorized min/max reductions
    would pick the rounding, the sign of zeros and which NaN survives
    by grouping and SIMD lane."""

    @pytest.mark.parametrize("name", sorted(available_semirings()))
    def test_fold_runs_and_reduceat_match_left_fold(self, name):
        sr = get_semiring(name)
        rng = np.random.default_rng(5)
        lengths = rng.integers(1, 40, size=3000)
        vals = rng.choice(
            np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, 0.1]),
            lengths.sum(),
        )
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        run_start = np.zeros(len(vals), dtype=bool)
        run_start[starts] = True
        expected = np.empty(len(starts))
        with np.errstate(invalid="ignore"):
            for i, (lo, n) in enumerate(zip(starts, lengths)):
                acc = vals[lo]
                for v in vals[lo + 1 : lo + n]:
                    acc = sr.add_ufunc(acc, v)
                expected[i] = np.nan if np.isnan(acc) else acc
            assert sr.fold(run_start, vals).tobytes() == expected.tobytes()

    def test_canonical_nan_overwrites_sign_and_payload(self):
        quiet = np.float64(np.nan).view(np.uint64)
        vals = np.array([1.0, -np.nan, np.nan, -0.0])
        vals[2:3].view(np.uint64)[0] |= np.uint64(0x1234)  # a payload
        out = canonical_nan(vals)
        assert out is vals
        assert out.view(np.uint64).tolist() == [
            np.float64(1.0).view(np.uint64), quiet, quiet,
            np.float64(-0.0).view(np.uint64),
        ]

    def test_non_ufunc_add_folds_in_stream_order(self):
        """A custom ⊕ that is not a ufunc takes the Python loop, in the
        same order."""
        sr = Semiring("concat", lambda a, b: 10 * a + b, np.multiply, 0.0)
        run_start = np.array([True, False, False, True, False])
        out = sr.fold(run_start, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert out.tolist() == [123.0, 45.0]
