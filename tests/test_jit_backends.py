"""Compiled hot-kernel tier (repro.kernels.jit, DESIGN.md §14).

Covers the engine probe (caching, disable switch, missing compiler,
failed build), the bit-identity of the compiled PB pipeline and the
compiled column panel against the numpy code across every built-in
semiring, the absent-degradation contract (silent, numpy results,
including on process-pool workers), warm-up hygiene (Session
construction + ``jit_warmup_s`` stopwatch), the planner's calibrated
pricing (profile schema v6, stale versions rejected), and the CLI
surfaces (``repro machine --json``, backend flags).

Every test runs whether or not an engine is available: engine-requiring
assertions are guarded by :func:`repro.kernels.jit.jit_available`, and
the fallback tests *force* unavailability by hiding the C compiler
(no ``$CC``, empty ``PATH``), so the real absent-compiler path is
exercised even on machines with a working toolchain.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import repro
from repro.core.binning import (
    VariableBinLayout,
    balanced_bin_edges,
    distribute_packed,
    plan_bins,
)
from repro.core.config import PBConfig
from repro.core.pb_spgemm import pb_spgemm, pb_spgemm_detailed
from repro.core.symbolic import symbolic_phase
from repro.generators import erdos_renyi
from repro.kernels import jit as jit_tier
from repro.kernels.hash_spgemm import hash_spgemm, hash_spgemm_loop
from repro.kernels.jit import _cc
from repro.kernels.jit._avail import probe
from repro.kernels.outer_expand import expand_arena
from repro.kernels.compress import _compress_segments, compress_keyed
from repro.kernels.radix import _sort_segments, radix_sort_pairs, sort_tuples
from repro.kernels.reference import dense_spgemm_reference
from repro.matrix.coo import COOMatrix
from repro.matrix.stats import flops_per_row
from repro.semiring import available_semirings, get_semiring

from tests.test_block_core import problems

pytestmark = pytest.mark.jit


@pytest.fixture
def clean_jit_state():
    """Reset the probe/engine caches around tests that perturb them."""
    jit_tier.reset_jit_state()
    yield
    jit_tier.reset_jit_state()


@pytest.fixture
def no_engine(clean_jit_state, monkeypatch, tmp_path):
    """Force the tier unavailable by hiding the C compiler: no ``$CC``
    and an empty ``PATH``, so the probe finds nothing to build with."""
    empty = tmp_path / "empty-path"
    empty.mkdir()
    monkeypatch.delenv("CC", raising=False)
    # The missing compiler must be the cause, also when the suite runs
    # with the tier disabled.
    monkeypatch.delenv("REPRO_JIT_DISABLE", raising=False)
    monkeypatch.setenv("PATH", str(empty))
    jit_tier.reset_jit_state()
    yield
    jit_tier.reset_jit_state()


def _mats(scale=9, ef=6, seed=7):
    a = erdos_renyi(1 << scale, ef, seed=seed, fmt="csr")
    b = erdos_renyi(1 << scale, ef, seed=seed + 1, fmt="csr")
    return a, b


def _bitwise_equal(c0, c1) -> bool:
    return bool(
        np.array_equal(c0.indptr, c1.indptr)
        and np.array_equal(c0.indices, c1.indices)
        and np.array_equal(
            np.asarray(c0.data).view(np.uint64),
            np.asarray(c1.data).view(np.uint64),
        )
    )


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

class TestProbe:
    def test_probe_is_cached(self, clean_jit_state):
        st1 = probe()
        st2 = probe()
        assert st1 is st2
        assert probe(refresh=True) is not st1 or st1 == probe()

    def test_status_dict_shape(self):
        st = jit_tier.jit_status()
        assert {
            "engine",
            "available",
            "cc_compiler",
            "cc_reason",
            "disabled",
            "warmed",
        } <= set(st)
        assert st["available"] == (st["engine"] not in (None, "none"))

    def test_disable_env_wins(self, clean_jit_state, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_DISABLE", "1")
        jit_tier.reset_jit_state()
        st = probe()
        assert st.disabled and not st.available and st.engine == "none"
        assert not jit_tier.jit_available()

    def test_missing_compiler_is_the_reason(self, no_engine):
        st = probe()
        assert st.engine == "none" and not st.available
        assert st.cc_compiler is None
        assert "no C compiler on PATH" in st.cc_reason

    def test_failed_build_is_reported(self, clean_jit_state, monkeypatch):
        """A compiler that cannot produce the library marks the tier
        unavailable with the build error as the reason — in the status
        and the machine report — and the multiply still runs
        bit-identically on numpy, silently."""
        if not probe().available:
            pytest.skip("no C compiler on this machine")
        monkeypatch.setattr(_cc, "_lib", None)  # force a fresh build
        monkeypatch.setenv("REPRO_JIT_CACHE_DIR", "/dev/null/jit")
        jit_tier.reset_jit_state()
        a, b = _mats(scale=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c1 = hash_spgemm(a.to_csc(), b)
            res = pb_spgemm_detailed(a.to_csc(), b)
        st = jit_tier.jit_status()
        assert st["available"] is False and st["engine"] == "none"
        assert "cc engine build failed" in st["cc_reason"]
        assert jit_tier.blocker(repro.get_semiring("plus_times")) == "no_engine"
        assert _bitwise_equal(hash_spgemm_loop(a.to_csc(), b), c1)
        assert res.pipeline == "numpy:no_engine"


# ---------------------------------------------------------------------------
# bit-identity of the compiled kernels (engine-gated)
# ---------------------------------------------------------------------------

class TestBitIdentity:
    @pytest.fixture(autouse=True)
    def _need_engine(self):
        if not jit_tier.jit_available():
            pytest.skip("no JIT engine on this machine")

    @pytest.mark.parametrize("semiring", sorted(available_semirings()))
    def test_pb_pipeline_all_jit(self, semiring):
        a, b = _mats()
        with jit_tier.disabled():
            r0 = pb_spgemm_detailed(a.to_csc(), b, semiring=semiring)
        r1 = pb_spgemm_detailed(a.to_csc(), b, semiring=semiring)
        assert (r0.pipeline, r1.pipeline) == ("numpy:no_engine", "compiled")
        assert _bitwise_equal(r0.c, r1.c)

    @pytest.mark.parametrize("semiring", sorted(available_semirings()))
    def test_panel_jit_column_kernel(self, semiring):
        """The panel on the compiled tier (the default) against the
        numpy panel and numpy PB, on an input larger than the harness
        draws."""
        a, b = _mats()
        with jit_tier.disabled():
            c0 = hash_spgemm(a.to_csc(), b, semiring=semiring)
            pb = pb_spgemm(a.to_csc(), b, semiring)
        c1 = hash_spgemm(a.to_csc(), b, semiring=semiring)
        assert _bitwise_equal(c0, c1)
        assert _bitwise_equal(pb, c1)

    @pytest.mark.parametrize(
        "shape", [(70_000, 64, 40), (40, 64, 200_000)], ids=["rows", "cols"]
    )
    @pytest.mark.parametrize("semiring", sorted(available_semirings()))
    def test_panel_past_uint16_runs_fused(self, semiring, shape):
        """More than 2^16 output rows, or few rows and more than 2^16
        output columns: the compiled panel runs the fused kernel at
        uint32 indices, still bit-identical to the loop, the numpy
        panel and numpy PB."""
        from repro.matrix.coo import COOMatrix

        rng = np.random.default_rng(0)
        m, k, n = shape
        a = COOMatrix(
            (m, k), rng.integers(0, m, 3000), rng.integers(0, k, 3000), rng.normal(size=3000)
        ).to_csc()
        b = COOMatrix(
            (k, n), rng.integers(0, k, 300), rng.integers(0, n, 300), rng.normal(size=300)
        ).to_csr()
        ctx = jit_tier.panel_context(m, n, repro.get_semiring(semiring), np.uint32)
        assert ctx.index_dtype == np.uint32
        c1 = hash_spgemm(a, b, semiring=semiring)
        # The product holds row or column ids past 16 bits.
        last_row = int(np.flatnonzero(np.diff(c1.indptr)).max())
        assert max(last_row, int(c1.indices.max())) >= 1 << 16
        assert _bitwise_equal(hash_spgemm_loop(a, b, semiring=semiring), c1)
        with jit_tier.disabled():
            assert _bitwise_equal(hash_spgemm(a, b, semiring=semiring), c1)
            assert _bitwise_equal(pb_spgemm(a, b, semiring), c1)

    def test_sort_backend_exact_permutation(self):
        """The compiled sort over one segment, the numpy sort and a
        stable argsort agree on keys, payload bits and passes."""
        rng = np.random.default_rng(3)
        for nbits in (11, 17, 22, 40):
            dt = np.uint32 if nbits <= 32 else np.uint64
            keys = rng.integers(0, 1 << nbits, size=4001).astype(dt)
            vals = rng.random(4001)
            ref = np.argsort(keys, kind="stable")
            k0, v0, p0 = sort_tuples(keys, vals, key_bits=nbits)
            one_seg = np.array([0, len(keys)], dtype=np.int64)
            k1, v1, p1 = sort_tuples(
                keys.copy(), vals.copy(), key_bits=nbits, segments=one_seg
            )
            assert p0 == p1
            assert np.array_equal(k0, keys[ref]) and np.array_equal(k1, keys[ref])
            assert v0.tobytes() == vals[ref].tobytes() == v1.tobytes()

    def test_sort_backend_edge_sizes(self):
        for n in (0, 1):
            keys = np.arange(n, dtype=np.uint64)
            vals = np.arange(n, dtype=np.float64)
            segments = np.array([0, n], dtype=np.int64)
            k1, v1, _ = sort_tuples(keys, vals, key_bits=17, segments=segments)
            assert len(k1) == n and len(v1) == n

    def test_distribute_backend_identical(self):
        """The compiled expand straight into bins (local bins on and
        off) equals the numpy expand + counting distribute."""
        a, b = _mats(scale=8)
        a_csc = a.to_csc()
        cfg = PBConfig()
        sym = symbolic_phase(a_csc, b, cfg)
        layout = plan_bins(
            a_csc.shape[0], b.shape[1], sym.nbins, sym.rows_per_bin, cfg
        )
        rows, cols, vals = expand_arena(a_csc, b, per_k=sym.flops_per_k)
        k0, v0, s0 = distribute_packed(layout, rows, cols, vals)
        for local_tuples in (0, 32):
            k1, v1, s1 = expand_arena(
                a_csc, b, per_k=sym.flops_per_k, layout=layout,
                local_tuples=local_tuples,
            )
            assert np.array_equal(k0, k1)
            assert np.array_equal(v0.view(np.uint64), v1.view(np.uint64))
            assert np.array_equal(s0, s1)

    @pytest.mark.parametrize("semiring", sorted(available_semirings()))
    def test_compiled_fold_matches_numpy_compress(self, semiring):
        """One bin holding runs of every length 1-300: the compiled
        compress folds each run exactly like the numpy compress
        (``Semiring.fold``: a left fold from the run head, through ±0,
        NaNs of both signs and ±inf, NaN stored canonically)."""
        from repro.semiring import get_semiring

        rng = np.random.default_rng(11)
        lengths = np.arange(1, 301)
        layout = plan_bins(len(lengths), 2, 1, len(lengths))
        keys = np.repeat(
            np.arange(len(lengths), dtype=np.uint32) << layout.col_bits, lengths
        ).astype(layout.key_dtype)
        n = len(keys)
        vals = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]
        pick = rng.random(n) < 0.3
        vals[pick] = rng.choice(special, int(pick.sum()))
        sr = get_semiring(semiring)
        with np.errstate(invalid="ignore"):
            ref_keys, ref_vals = compress_keyed(keys, vals, sr)
        row_counts, cols, data = compress_keyed(
            keys, vals.copy(), sr, layout=layout,
            segments=np.array([0, n], dtype=np.int64),
        )
        assert data.tobytes() == ref_vals.tobytes()
        assert np.array_equal(cols, ref_keys & 1)
        assert np.array_equal(row_counts, np.ones(len(lengths)))

    def test_compiled_sort_matches_numpy_radix_per_bin(self):
        rng = np.random.default_rng(4)
        for nbits in (5, 17, 40):
            dt = np.uint32 if nbits <= 32 else np.uint64
            starts = np.array([0, 0, 1, 700, 700, 3001], dtype=np.int64)
            keys = rng.integers(0, 1 << nbits, size=3001).astype(dt)
            vals = rng.random(3001)
            k1, v1 = keys.copy(), vals.copy()
            _, _, p1 = sort_tuples(k1, v1, key_bits=nbits, segments=starts)
            for lo, hi in zip(starts[:-1], starts[1:]):
                k0, v0, p0 = radix_sort_pairs(keys[lo:hi], vals[lo:hi], key_bits=nbits)
                assert np.array_equal(k0, k1[lo:hi])
                assert v0.tobytes() == v1[lo:hi].tobytes()
            assert p1 == p0

    @pytest.mark.parallel
    def test_process_pool_workers_bit_identical(self):
        a, b = _mats(scale=8)
        cfg = PBConfig(executor="process", nthreads=2)
        c0 = repro.multiply(a, b, config=PBConfig())
        c1 = repro.multiply(a, b, config=cfg)
        assert _bitwise_equal(c0, c1)


# ---------------------------------------------------------------------------
# tier differential: each PB phase, numpy form against compiled form
# ---------------------------------------------------------------------------

_NEG_NAN = np.copysign(np.nan, -1.0)


def _special_operands(m, k, n, seed=0):
    """A (CSC) and B (CSR) whose values include ±0 and NaNs of both
    signs; k is small, so the product merges many tuples per entry.
    A's last quarter of rows is empty, so range bins there are too."""
    rng = np.random.default_rng(seed)

    def draw(shape, row_hi, nnz):
        vals = rng.standard_normal(nnz)
        pick = rng.random(nnz) < 0.3
        vals[pick] = rng.choice(np.array([0.0, -0.0, np.nan, _NEG_NAN]), int(pick.sum()))
        rows, cols = rng.integers(0, row_hi, nnz), rng.integers(0, shape[1], nnz)
        return COOMatrix(shape, rows, cols, vals)

    return draw((m, k), 3 * m // 4, 3 * m).to_csc(), draw((k, n), k, 4 * n).to_csr()


def _layout(a_csc, b_csr, nbins, mapping, pack_keys):
    m, n = a_csc.shape[0], b_csr.shape[1]
    if mapping == "balanced":
        edges = balanced_bin_edges(flops_per_row(a_csc, b_csr), nbins)
        return VariableBinLayout(m, n, edges, pack_keys=pack_keys)
    return plan_bins(m, n, nbins, -(-m // nbins), PBConfig(pack_keys=pack_keys))


def _same_bytes(x, y) -> bool:
    return x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestTierDifferential:
    """The numpy tier's segment forms against the compiled kernels, one
    phase at a time, on the same input, compared byte for byte: the
    binned expand (arena expand + distribute), the in-place segment sort
    and the binned compress straight to row counts, columns and values."""

    @pytest.fixture(autouse=True)
    def _need_engine(self):
        if not jit_tier.jit_available():
            pytest.skip("no JIT engine on this machine")

    @pytest.mark.parametrize("pack_keys", [True, False], ids=["u32", "u64"])
    @pytest.mark.parametrize("mapping", ["range", "balanced"])
    @pytest.mark.parametrize("nbins", [1, 1024, 4096, 8192])
    def test_phases(self, nbins, mapping, pack_keys):
        a, b = _special_operands(8192, 40, 96)
        layout = _layout(a, b, nbins, mapping, pack_keys)
        assert layout.key_dtype == (np.uint32 if pack_keys else np.uint64)
        per_k = (a.col_nnz() * b.row_nnz()).astype(np.int64)
        for name in sorted(available_semirings()):
            sr = get_semiring(name)
            rows, cols, vals = expand_arena(a, b, semiring=sr, per_k=per_k)
            k0, v0, s0 = distribute_packed(layout, rows, cols, vals)
            k1, v1, s1 = expand_arena(a, b, semiring=sr, per_k=per_k, layout=layout)
            assert np.array_equal(s0, s1)
            assert _same_bytes(k0, k1) and _same_bytes(v0, v1)
            if mapping == "range" and nbins > 1:
                assert np.diff(s0).min() == 0  # empty bins are covered

            k0, v0, p0 = _sort_segments(k0, v0, layout.key_bits, s0)
            k1, v1, p1 = sort_tuples(k1, v1, key_bits=layout.key_bits, segments=s1)
            assert p0 == p1
            assert _same_bytes(k0, k1) and _same_bytes(v0, v1)

            with np.errstate(invalid="ignore"):
                rc0, i0, d0 = _compress_segments(k0, v0, sr, layout, s0)
            rc1, i1, d1 = compress_keyed(k1, v1, sr, layout=layout, segments=s1)
            assert np.array_equal(rc0, rc1) and rc0.sum() == len(i0)
            assert _same_bytes(i0, i1) and _same_bytes(d0, d1)
            assert len(i0) < len(k0)  # the fold merged duplicates

    def test_all_empty_and_single_tuple_bins(self):
        """Segments with no tuples, or one, around a populated one."""
        layout = plan_bins(8, 4, 4, 2)
        keys = np.array([5, 3, 3, 1, 6], dtype=layout.key_dtype)
        vals = np.array([1.0, -0.0, 0.0, np.nan, 2.0])
        starts = np.array([0, 0, 1, 4, 5], dtype=np.int64)
        sr = get_semiring("plus_times")
        k0, v0, _ = _sort_segments(keys.copy(), vals.copy(), layout.key_bits, starts)
        k1, v1, _ = sort_tuples(keys.copy(), vals.copy(), key_bits=layout.key_bits, segments=starts)
        assert _same_bytes(k0, k1) and _same_bytes(v0, v1)
        out0 = _compress_segments(k0, v0, sr, layout, starts)
        out1 = compress_keyed(k1, v1, sr, layout=layout, segments=starts)
        for x, y in zip(out0, out1):
            assert _same_bytes(np.asarray(x, dtype=y.dtype), y)
        empty = np.zeros(5, dtype=np.int64)
        rc, idx, data = _compress_segments(
            np.empty(0, dtype=layout.key_dtype), np.empty(0), sr, layout, empty
        )
        assert not rc.any() and len(idx) == len(data) == 0


def _equal_with_nans(c, ref) -> bool:
    """Same structure, and the same values with any NaN matching a NaN
    (the reference does not canonicalize NaN payloads)."""
    d, r = np.asarray(c.data), np.asarray(ref.data)
    nan = np.isnan(d)
    return bool(
        np.array_equal(c.indptr, ref.indptr)
        and np.array_equal(c.indices, ref.indices)
        and np.array_equal(nan, np.isnan(r))
        and d[~nan].tobytes() == r[~nan].tobytes()
    )


class TestNumpyOnlyTier:
    """The cases only the numpy tier runs, against the dense oracle."""

    @pytest.mark.parametrize("nbins", [1, 7])
    @pytest.mark.parametrize("semiring", sorted(available_semirings()))
    def test_modulo_bins(self, semiring, nbins):
        """Modulo bins interleave rows (and never pack keys): the binned
        compress must still return row-major output."""
        a, b = _special_operands(300, 12, 40, seed=2)
        cfg = PBConfig(bin_mapping="modulo", nbins=nbins, pack_keys=False)
        with np.errstate(invalid="ignore"):
            res = pb_spgemm_detailed(a, b, semiring, cfg)
            ref = dense_spgemm_reference(a, b, semiring)
        assert res.pipeline == "numpy:mapping"
        assert _equal_with_nans(res.c, ref)

    def test_non_float64_semiring(self):
        from repro.semiring import PLUS_TIMES, Semiring

        single = Semiring(
            "plus_times32", np.add, PLUS_TIMES.multiply, 0.0, np.dtype(np.float32)
        )
        a, b = _special_operands(300, 12, 40, seed=3)
        with np.errstate(invalid="ignore"):
            res = pb_spgemm_detailed(a, b, single)
            ref = dense_spgemm_reference(a, b, single)
        assert res.pipeline == "numpy:dtype"
        assert _equal_with_nans(res.c, ref)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_jit_backends_match_numpy_on_harness_shapes(problem):
    """The block-core harness shapes (k >> n, n >> k, 0/1 extents, five
    semirings): compiled PB and the compiled panel equal the numpy
    pipeline bit for bit.  ``tests/test_column_harness.py`` runs every
    column strategy against the same reference."""
    if not jit_tier.jit_available():
        pytest.skip("no JIT engine on this machine")
    a, b, sr = problem
    pb1 = pb_spgemm(a, b, sr)
    panel = hash_spgemm(a, b, semiring=sr)
    with jit_tier.disabled():
        ref = pb_spgemm(a, b, sr)
    assert _bitwise_equal(pb1, ref)
    assert _bitwise_equal(panel, ref)


# ---------------------------------------------------------------------------
# absent degradation (engine forced away)
# ---------------------------------------------------------------------------

class TestAbsentDegradation:
    def test_unavailable_when_compiler_missing(self, no_engine):
        assert not jit_tier.jit_available()

    def test_panel_jit_falls_back(self, no_engine):
        """With no engine the panel runs on numpy, silently, and equals
        the loop ground truth."""
        a, b = _mats(scale=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c1 = repro.multiply(a, b, algorithm="hash")
        c0 = hash_spgemm_loop(a.to_csc(), b)
        assert _bitwise_equal(c0, c1)

    @pytest.mark.parallel
    def test_process_pool_falls_back_bit_identical(self, no_engine):
        a, b = _mats(scale=8)
        cfg = PBConfig(executor="process", nthreads=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c1 = repro.multiply(a, b, config=cfg)
            c0 = repro.multiply(a, b, config=PBConfig())
        assert _bitwise_equal(c0, c1)

    def test_sort_tuples_falls_back_to_radix(self, no_engine):
        """Without an engine PB runs the numpy pipeline silently, and its
        sort is the numpy radix."""
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 1 << 17, size=500, dtype=np.uint64)
        vals = rng.random(500)
        a, b = _mats(scale=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k1, v1, p1 = sort_tuples(keys, vals, key_bits=17)
            res = pb_spgemm_detailed(a.to_csc(), b)
        k0, v0, p0 = radix_sort_pairs(keys, vals, key_bits=17)
        assert np.array_equal(k0, k1) and np.array_equal(v0, v1) and p0 == p1
        assert res.pipeline == "numpy:no_engine"


# ---------------------------------------------------------------------------
# warm-up hygiene
# ---------------------------------------------------------------------------

class TestWarmup:
    def test_warmup_idempotent(self):
        s1 = jit_tier.warmup()
        s2 = jit_tier.warmup()
        assert s1 >= 0.0 and s2 >= 0.0
        assert jit_tier.jit_status()["warmed"] == jit_tier.jit_available()
        if jit_tier.jit_available():
            assert s2 == 0.0

    def test_warmup_without_engine_stays_cold(self, no_engine):
        """With no engine there is nothing to warm: the status must not
        report ``warmed`` next to ``available: false``."""
        jit_tier.warmup()
        st = jit_tier.jit_status()
        assert not st["available"] and not st["warmed"]

    def test_session_records_warmup(self, clean_jit_state):
        # Any config warms when an engine exists: modulo bins keep PB on
        # numpy, but the session's column kernels run compiled.
        with repro.Session(PBConfig(bin_mapping="modulo", pack_keys=False)) as s:
            assert s.stats.jit_warmup_s >= 0.0
            assert "jit_warmup_s" in s.stats.to_dict()
        assert jit_tier.jit_status()["warmed"] == jit_tier.jit_available()

    def test_session_without_jit_skips_warmup(self, no_engine):
        # No engine: the session loads nothing and records no cost.
        with repro.Session(PBConfig()) as s:
            assert s.stats.jit_warmup_s == 0.0
        assert not jit_tier.jit_status()["warmed"]

    def test_session_for_compiled_pipeline_warms(self, clean_jit_state):
        with repro.Session(PBConfig()):
            assert jit_tier.jit_status()["warmed"] == jit_tier.jit_available()

    def test_detailed_run_has_phase_stopwatch(self):
        a, b = _mats(scale=8)
        res0 = pb_spgemm_detailed(
            a.to_csc(), b, config=PBConfig(bin_mapping="modulo", pack_keys=False)
        )
        assert res0.pipeline == "numpy:mapping"
        assert "jit_warmup_s" not in res0.phase_seconds
        res1 = pb_spgemm_detailed(a.to_csc(), b, config=PBConfig())
        assert ("jit_warmup_s" in res1.phase_seconds) == (
            res1.pipeline == "compiled"
        )


# ---------------------------------------------------------------------------
# config surface
# ---------------------------------------------------------------------------

class TestConfig:
    def test_backend_validation(self):
        # Neither the numpy PB pipeline nor the column kernels have a
        # backend to pick.
        for field in (
            "sort_backend", "distribute_backend", "expand_backend", "column_backend"
        ):
            with pytest.raises(TypeError):
                PBConfig(**{field: "radix"})

    def test_dispatch_metadata_flags(self):
        """No option names the compiled tier: the registry lists no
        backends."""
        from repro.kernels.dispatch import algorithm_metadata

        meta = algorithm_metadata()
        for name in ("heap", "hash", "hashvec", "spa", "esc_column"):
            assert "column_backends" not in meta[name]


# ---------------------------------------------------------------------------
# planner pricing
# ---------------------------------------------------------------------------

class TestPlannerPricing:
    def test_profile_schema_v6_roundtrip(self):
        from repro.planner.calibrate import (
            PROFILE_SCHEMA_VERSION,
            MachineProfile,
            default_profile,
        )

        assert PROFILE_SCHEMA_VERSION == 6
        prof = default_profile()
        for stale in ("jit_scatter_mtuples_s", "column_mtuples_s", "effective_clock_ghz"):
            assert stale not in prof.to_dict()
        again = MachineProfile.from_dict(json.loads(json.dumps(prof.to_dict())))
        assert again == prof

    def test_v3_profile_rejected(self, tmp_path):
        """Stale profiles recalibrate, never migrate: a v5 or v4 file
        (which carry the simulator's rates) is rejected like a v3 or v2
        one, and the planner falls back to presets."""
        from repro.planner.calibrate import (
            MachineProfile,
            default_profile,
            profile_path,
        )
        from repro.planner.plan import resolve_profile

        d = default_profile().to_dict()
        d["jit_scatter_mtuples_s"] = 0.0
        for version in (5, 4, 3, 2):
            d["schema_version"] = version
            with pytest.raises(ValueError, match="schema_version"):
                MachineProfile.from_dict(d)
        d["schema_version"] = 4
        with open(profile_path(tmp_path), "w") as fh:
            json.dump(d, fh)
        with pytest.warns(RuntimeWarning, match="machine profile"):
            prof = resolve_profile(str(tmp_path))
        assert prof == default_profile()

    def test_rank_emits_no_column_backend_override(self):
        """Column candidates are priced on the panel as it runs by
        default; the ranker never pins a column backend."""
        from repro.planner.calibrate import default_profile
        from repro.planner.cost import rank
        from repro.planner.sketch import deepen, sketch

        a, _ = _mats(scale=10, ef=8)
        a_csc, b_csr = a.to_csc(), a
        sk = deepen(sketch(a_csc, b_csr), a_csc, b_csr)
        for c in rank(a_csc, b_csr, sk, default_profile()):
            assert "column_backend" not in c.overrides
        pb = next(c for c in rank(a_csc, b_csr, sk, default_profile()) if c.algorithm == "pb")
        assert pb.overrides == {}  # no Fig. 6 knob sweep either

    def test_resolved_config_applies_backend_overrides(self):
        from repro.planner.plan import _resolved_config

        cfg = _resolved_config(
            None,
            {
                "tile_rows": 64,
                "nbins": 64,  # no longer an override key
                "column_backend": "panel_jit",  # no longer an override key
                "not_a_knob": 1,
            },
        )
        assert cfg.tile_rows == 64
        assert cfg.nbins is None
        assert cfg == PBConfig(tile_rows=64)

    def test_calibrate_measures_jit_rate(self, monkeypatch):
        """The column rate is timed on ``hash_spgemm`` as it runs by
        default, so it measures the compiled panel when an engine
        exists."""
        from importlib import import_module

        from repro.planner.calibrate import calibrate

        # import_module: ``repro.kernels`` re-exports a function named
        # ``hash_spgemm`` that shadows the submodule attribute.
        hash_mod = import_module("repro.kernels.hash_spgemm")

        calls = []
        real = hash_mod.hash_spgemm

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(hash_mod, "hash_spgemm", spy)
        prof = calibrate(quick=True, measure_pool=False)
        assert prof.panel_flop_ns + prof.panel_out_ns > 0.0
        assert calls


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------

class TestCLI:
    def test_machine_json_reports_probe(self, capsys):
        from repro.cli import main

        assert main(["machine", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "jit" in out
        assert set(out["jit"]) >= {"engine", "available", "warmed"}
        assert out["jit"]["available"] == (out["jit"]["engine"] not in (None, "none"))

    def test_machine_plain_still_has_subcommands(self, capsys):
        from repro.cli import main

        assert main(["machine"]) == 0
        assert "jit" in capsys.readouterr().out
        assert main(["machine", "stream"]) == 0

    def test_multiply_jit_flags(self, tmp_path, capsys):
        from repro.cli import main
        from repro.matrix.io import write_matrix_market

        a, _ = _mats(scale=7, ef=4)
        path = tmp_path / "a.mtx"
        write_matrix_market(a, path)
        rc = main(["matrix", "multiply", str(path), "--algorithm", "hash"])
        assert rc == 0
        assert "C = A*B" in capsys.readouterr().out
        # The column kernels have no backend flag.
        with pytest.raises(SystemExit):
            main(
                ["matrix", "multiply", str(path), "--algorithm", "hash",
                 "--column-backend", "panel"]
            )
