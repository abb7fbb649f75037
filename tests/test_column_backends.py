"""Cross-backend property suite for the panel-vectorized column kernels.

The contract under test (DESIGN.md §11): for every shipped semiring and
every input shape, ``column_backend="panel"`` and ``column_backend="loop"``
produce **bit-identical** canonical CSR — same indptr, same indices, and
byte-for-byte equal data, not merely allclose — and both equal numpy
PB, because every path folds duplicates in the same order.  The panel
runs compiled when an engine exists; CI runs this file again under
``REPRO_JIT_DISABLE=1`` to cover the numpy panel.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.config import PBConfig
from repro.core.pb_spgemm import pb_spgemm
from repro.errors import ConfigError, ShapeError
from repro.generators import erdos_renyi, rmat
from repro.kernels import (
    esc_column_spgemm,
    hash_spgemm,
    hashvec_spgemm,
    heap_spgemm,
    jit,
    panel_spgemm,
    resolve_column_backend,
    spa_spgemm,
)
from repro.kernels.column_panel import COLUMN_BACKENDS
from repro.kernels.hashvec_spgemm import _table_size
from repro.matrix.coo import COOMatrix
from repro.matrix.csc import CSCMatrix
from repro.matrix.csr import CSRMatrix
from repro.semiring import available_semirings, get_semiring

pytestmark = pytest.mark.column

KERNELS = {
    "heap": heap_spgemm,
    "hash": hash_spgemm,
    "hashvec": hashvec_spgemm,
    "spa": spa_spgemm,
}

SEMIRINGS = available_semirings()


def _hub_skew(seed=7):
    """A deliberately skewed pair: B's first column selects *every*
    column of A (a hub output column), the rest are sparse noise."""
    rng = np.random.default_rng(seed)
    m = n = 64
    rows = list(range(n))
    cols = [0] * n  # B(:, 0) dense -> C(:, 0) merges all of A's columns
    rng_rows = rng.integers(0, n, size=150)
    rng_cols = rng.integers(1, n, size=150)
    b = COOMatrix(
        (n, n),
        np.concatenate([rows, rng_rows]),
        np.concatenate([cols, rng_cols]),
        rng.normal(size=n + 150),
    )
    a = COOMatrix(
        (m, n),
        rng.integers(0, m, size=400),
        rng.integers(0, n, size=400),
        rng.normal(size=400),
    )
    return a.to_csc(), b.to_csr()


def _dup_heavy(seed=3):
    """R-MAT squared: power-law rows make long duplicate runs per key."""
    g = rmat(7, 8, seed=seed)
    return g.to_csc(), g


def _cases():
    er = erdos_renyi(128, 6, seed=11)
    return {
        "empty_matrix": (CSCMatrix.empty((40, 30)), CSRMatrix.empty((30, 20))),
        "empty_columns": (
            # B has many structurally empty columns interleaved.
            COOMatrix((16, 16), [0, 5, 9], [2, 2, 7], [1.5, -2.0, 3.25]).to_csc(),
            COOMatrix((16, 16), [2, 2, 7], [0, 8, 8], [0.5, 1.25, -1.0]).to_csr(),
        ),
        "one_by_n": (
            COOMatrix((1, 8), [0] * 8, range(8), np.arange(1.0, 9.0)).to_csc(),
            COOMatrix(
                (8, 5), [0, 1, 2, 3, 7, 7], [0, 1, 2, 3, 4, 0],
                [2.0, -1.0, 0.5, 4.0, 1.0, -3.0],
            ).to_csr(),
        ),
        "er": (er.to_csc(), er),
        "dup_heavy_rmat": _dup_heavy(),
        "hub_skew": _hub_skew(),
    }


CASES = _cases()


def _bits(c):
    return (c.indptr.tobytes(), c.indices.tobytes(), c.data.tobytes())


class TestPanelLoopBitIdentity:
    @pytest.mark.parametrize("semiring", SEMIRINGS)
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_bit_identical(self, kernel, case, semiring):
        """Loop and panel equal each other and numpy PB: one fold."""
        a, b = CASES[case]
        loop = KERNELS[kernel](a, b, semiring=semiring, column_backend="loop")
        pan = KERNELS[kernel](a, b, semiring=semiring, column_backend="panel")
        with jit.disabled():
            pb = pb_spgemm(a, b, semiring)
        assert _bits(loop) == _bits(pan) == _bits(pb)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_tiny_panels_still_identical(self, kernel):
        # panel_tuples=1 forces one output column (or less) per panel —
        # the maximal-panel-count degenerate case.
        a, b = CASES["dup_heavy_rmat"]
        loop = KERNELS[kernel](a, b, column_backend="loop")
        pan = panel_spgemm(a, b, panel_tuples=1)
        assert _bits(loop) == _bits(pan)

    def test_kernels_agree_with_each_other(self):
        a, b = CASES["er"]
        ref = None
        for kernel in sorted(KERNELS):
            got = _bits(KERNELS[kernel](a, b))
            ref = ref or got
            assert got == ref


class TestEscColumnBackends:
    @pytest.mark.parametrize("semiring", SEMIRINGS)
    def test_arena_matches_concat(self, semiring):
        """The chunked arena expand + radix sort against the whole
        column-major stream concatenated and stably argsorted here."""
        from repro.kernels.compress import compress_sorted
        from repro.kernels.outer_expand import iter_expand_columns

        a, b = CASES["dup_heavy_rmat"]
        sr = get_semiring(semiring)
        arena = esc_column_spgemm(a, b, semiring=semiring)
        parts = list(iter_expand_columns(a, b, sr))
        rows, cols, vals = (np.concatenate([p[i] for p in parts]) for i in (2, 3, 4))
        order = np.argsort(rows * b.shape[1] + cols, kind="stable")
        c_rows, c_cols, c_vals = compress_sorted(
            rows[order], cols[order], vals[order], sr
        )
        indptr = np.zeros(a.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(c_rows, minlength=a.shape[0]), out=indptr[1:])
        concat = CSRMatrix((a.shape[0], b.shape[1]), indptr, c_cols, c_vals)
        assert _bits(arena) == _bits(concat)

    def test_shape_mismatch_raises_shape_error(self):
        a = CSCMatrix.identity(4)
        b = CSRMatrix.identity(5)
        with pytest.raises(ShapeError):
            esc_column_spgemm(a, b)


def _with_specials(mat, seed):
    """``mat`` with every value drawn from signed zeros, NaN, ±inf and
    ±1: the values whose min/max folds depend on order.  ``inf - inf``
    and ``0 * inf`` make the other NaN; inputs carry one NaN only,
    because which payload ``NaN + NaN`` keeps is not fixed by IEEE 754."""
    rng = np.random.default_rng(seed)
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0])
    data = rng.choice(specials, size=mat.nnz)
    return type(mat)(mat.shape, mat.indptr, mat.indices, data)


class TestMinMaxFolds:
    """min/max fold each duplicate run sequentially in stream order on
    every path: numpy's vectorized min/max reduction picks 0.0 vs -0.0,
    and which NaN survives, by SIMD lane."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("semiring", ["min_plus", "max_times"])
    def test_signed_zero_and_nan_folds_agree(self, semiring, seed):
        import warnings

        from repro.core import pb_spgemm
        from repro.kernels import jit

        a, b = CASES["dup_heavy_rmat"]
        a, b = _with_specials(a, seed), _with_specials(b, seed + 100)
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            loop = _bits(hash_spgemm(a, b, semiring=semiring, column_backend="loop"))
            # The default panel: compiled when an engine exists.
            assert _bits(hash_spgemm(a, b, semiring=semiring)) == loop
            esc = _bits(esc_column_spgemm(a, b, semiring=semiring))
            pb = _bits(pb_spgemm(a, b, semiring))
            assert esc == pb
            with jit.disabled():
                assert _bits(pb_spgemm(a, b, semiring)) == pb
                # One panel for the whole product: duplicate-heavy, so
                # the numpy panel takes its bulk fold path.
                panel = panel_spgemm(a, b, semiring=semiring, panel_tuples=1 << 20)
                assert _bits(panel) == loop


class TestConfigPlumbing:
    def test_resolve_precedence(self):
        cfg = PBConfig(column_backend="loop")
        assert resolve_column_backend(cfg, None) == "loop"
        # An explicit kwarg beats config.
        assert resolve_column_backend(cfg, "panel") == "panel"

    def test_resolve_defaults(self):
        assert resolve_column_backend(None, None) == "panel"

    def test_resolve_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            resolve_column_backend(None, "vector")

    def test_pbconfig_validates_column_fields(self):
        with pytest.raises(ConfigError):
            PBConfig(column_backend="bogus")

    def test_config_reaches_kernel_through_multiply(self):
        a, b = CASES["er"]
        loop = repro.multiply(a, b, algorithm="hash",
                              config=PBConfig(column_backend="loop"))
        pan = repro.multiply(a, b, algorithm="hash",
                             config=PBConfig(column_backend="panel"))
        assert _bits(loop) == _bits(pan)

    def test_registry_metadata(self):
        from repro.kernels.dispatch import algorithm_metadata

        meta = algorithm_metadata()
        for name in KERNELS:
            assert meta[name]["supports_config"]
        assert COLUMN_BACKENDS == ("panel", "loop")


class TestSegmentReduce:
    def test_empty(self):
        sr = get_semiring("plus_times")
        keys, vals = sr.segment_reduce(
            np.empty(0, np.uint64), np.empty(0, np.float64)
        )
        assert len(keys) == 0 and len(vals) == 0

    def test_length_mismatch(self):
        sr = get_semiring("plus_times")
        with pytest.raises(ValueError):
            sr.segment_reduce(np.zeros(3, np.uint64), np.zeros(2))

    def test_plus_is_sequential_left_fold(self):
        # The panel/loop bit-identity hinges on this: duplicate runs
        # must fold left-to-right in input order, not pairwise.
        sr = get_semiring("plus_times")
        rng = np.random.default_rng(0)
        vals = rng.normal(size=64)
        keys = np.zeros(64, dtype=np.uint64)
        _, reduced = sr.segment_reduce(keys, vals)
        acc = 0.0
        for v in vals:
            acc += float(v)
        assert reduced[0] == acc  # bit-equal, not approx

    def test_stable_within_run(self):
        # Equal keys keep input order before folding (stable sort).
        sr = get_semiring("min_plus")
        keys = np.array([2, 1, 2, 1], dtype=np.uint64)
        vals = np.array([5.0, 7.0, 3.0, 1.0])
        uk, uv = sr.segment_reduce(keys, vals)
        assert uk.tolist() == [1, 2]
        assert uv.tolist() == [1.0, 3.0]

    def test_non_ufunc_add_fallback(self):
        from repro.semiring import Semiring

        # add_ufunc is a plain callable, not an np.ufunc — forces the
        # lexsort + per-run Python fold path.
        sr = Semiring("custom_plus", lambda x, y: x + y, np.multiply, 0.0)
        keys = np.array([1, 1, 2], dtype=np.uint64)
        vals = np.array([1.0, 2.0, 10.0])
        uk, uv = sr.segment_reduce(keys, vals)
        assert uk.tolist() == [1, 2]
        assert uv.tolist() == [3.0, 10.0]


class TestLoopFixes:
    def test_table_size_zero_upper(self):
        assert _table_size(0) == 0
        assert _table_size(-3) == 0

    def test_table_size_positive(self):
        assert _table_size(1) == 2
        assert _table_size(3) == 8
        for u in (1, 2, 5, 17, 100):
            s = _table_size(u)
            assert s >= 2 * u and (s & (s - 1)) == 0

    def test_add_scalar_matches_ufunc(self):
        plus = get_semiring("plus_times")
        assert plus.add_scalar(0.1, 0.2) == 0.1 + 0.2
        mn = get_semiring("min_plus")
        assert mn.add_scalar(3.0, -1.0) == -1.0

    def test_add_scalar_returns_python_float(self):
        plus = get_semiring("plus_times")
        out = plus.add_scalar(np.float64(1.5), np.float64(2.5))
        assert isinstance(out, float) and not isinstance(out, np.floating)


class TestPanelDirect:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            panel_spgemm(CSCMatrix.identity(4), CSRMatrix.identity(5))

    def test_matches_dense_reference(self):
        a, b = CASES["er"]
        c = panel_spgemm(a, b)
        want = a.to_dense() @ b.to_dense()
        np.testing.assert_allclose(c.to_dense(), want, rtol=1e-12)
