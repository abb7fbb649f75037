"""Differential harness for the session paths: warm-pool ``multiply``
under both bin schedules, tiled and partitioned grids on the warm
engine, and fused ``multiply_many`` waves.

Reuses the block-core ``problems`` strategy (k >> n, n >> k, 0/1
extents, five semirings) on one module-scoped process session, with
the compiled tier off so the numpy pipeline runs on its pool.  Every
product must be bit-identical to monolithic ``pb_spgemm``, and the
warm pool must never be replaced: a restart here would mean a
deterministic bug hidden by the recovery machinery.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PBConfig, Session
from repro.core import partitioned_pb_spgemm, pb_spgemm
from repro.kernels import jit
from repro.parallel import process_backend_available
from repro.semiring import available_semirings

from tests.test_block_core import _bit_equal, problems

pytestmark = pytest.mark.skipif(
    not process_backend_available(), reason="POSIX shared memory unavailable"
)

CONFIG = PBConfig(executor="process", nthreads=2)


@pytest.fixture(scope="module")
def session():
    # The pool serves only the numpy pipeline: keep the compiled tier
    # off for the module so every multiply here runs on the engine.
    with jit.disabled(), Session(CONFIG) as s:
        yield s
        assert s.stats.engine_restarts == 0


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problems(), st.sampled_from(["auto", "barrier"]))
def test_session_multiply_matches_monolithic(session, problem, pipeline):
    a, b, sr = problem
    engine_multiplies = session.stats.engine_multiplies
    c = session.multiply(a, b, semiring=sr, config=CONFIG.with_(pipeline=pipeline))
    _bit_equal(c, pb_spgemm(a, b, sr))
    assert session.stats.engine_multiplies == engine_multiplies + 1
    assert session.stats.engine_restarts == 0


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problems(), st.integers(1, 50), st.integers(1, 50))
def test_session_tiled_matches_monolithic(session, problem, tile_rows, tile_cols):
    a, b, sr = problem
    engine_multiplies = session.stats.engine_multiplies
    cfg = CONFIG.with_(tile_rows=tile_rows, tile_cols=tile_cols)
    c = session.multiply(a, b, algorithm="tiled", semiring=sr, config=cfg)
    _bit_equal(c, pb_spgemm(a, b, sr))
    # One engine resolution per grid, however many tiles it has.
    assert session.stats.engine_multiplies == engine_multiplies + 1
    assert session.stats.engine_restarts == 0


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problems(), st.sampled_from([1, 2, 3]))
def test_session_partitioned_matches_monolithic(session, problem, parts):
    a, b, sr = problem
    engine_multiplies = session.stats.engine_multiplies
    c = partitioned_pb_spgemm(a, b, parts, sr, CONFIG, session=session)
    _bit_equal(c, pb_spgemm(a, b, sr))
    assert session.stats.engine_multiplies == engine_multiplies + 1
    assert session.stats.engine_restarts == 0


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(problems(), min_size=2, max_size=3),
    st.sampled_from(sorted(available_semirings())),
)
def test_fused_multiply_many_matches_per_pair(session, batch, sr):
    pairs = [(a, b) for a, b, _ in batch]
    fused_waves = session.stats.fused_waves
    products = session.multiply_many(pairs, semiring=sr)
    assert session.stats.fused_waves == fused_waves + 1
    assert len(products) == len(pairs)
    for (a, b), c in zip(pairs, products):
        _bit_equal(c, pb_spgemm(a, b, sr))
    assert session.stats.engine_restarts == 0
