"""Property-based semiring-law tests (hypothesis).

Each registered semiring must satisfy the algebraic laws the ESC
pipeline silently relies on: ⊕ associativity/commutativity (compress
merges runs in arbitrary grouping), the ⊕-identity annihilating
behaviour, and that ``Semiring.fold`` (the compress fold of every path)
is exactly the serial left fold of ``add``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.semiring import available_semirings, get_semiring

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

finite = st.floats(-100, 100, allow_nan=False, width=32)
SEMIRINGS = sorted(available_semirings())


@pytest.mark.parametrize("name", SEMIRINGS)
class TestAddLaws:
    @SETTINGS
    @given(a=finite, b=finite, c=finite)
    def test_add_associative(self, name, a, b, c):
        sr = get_semiring(name)
        x = np.array([a]), np.array([b]), np.array([c])
        left = sr.add(sr.add(x[0], x[1]), x[2])[0]
        right = sr.add(x[0], sr.add(x[1], x[2]))[0]
        assert left == pytest.approx(right, rel=1e-9, abs=1e-9)

    @SETTINGS
    @given(a=finite, b=finite)
    def test_add_commutative(self, name, a, b):
        sr = get_semiring(name)
        assert sr.add(np.array([a]), np.array([b]))[0] == pytest.approx(
            sr.add(np.array([b]), np.array([a]))[0], rel=1e-12, abs=1e-12
        )

    @SETTINGS
    @given(a=finite)
    def test_identity_neutral(self, name, a):
        sr = get_semiring(name)
        ident = np.array([sr.add_identity])
        out = sr.add(np.array([a]), ident)[0]
        if name == "or_and":
            # boolean domain: identity is neutral on {0,1} values only
            a01 = float(a != 0)
            assert sr.add(np.array([a01]), ident)[0] == a01
        else:
            assert out == pytest.approx(a)


@pytest.mark.parametrize("name", SEMIRINGS)
class TestReduceatConsistency:
    @SETTINGS
    @given(
        vals=hnp.arrays(np.float64, st.integers(1, 60), elements=finite),
        data=st.data(),
    )
    def test_reduceat_matches_fold(self, name, vals, data):
        sr = get_semiring(name)
        if name == "or_and":
            vals = (vals != 0).astype(np.float64)
        n_segments = data.draw(st.integers(1, min(len(vals), 8)))
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(1, len(vals) - 1) if len(vals) > 1 else st.nothing(),
                    max_size=n_segments - 1,
                    unique=True,
                )
            )
        ) if len(vals) > 1 else []
        starts = np.array([0] + cuts, dtype=np.int64)
        run_start = np.zeros(len(vals), dtype=bool)
        run_start[starts] = True
        got = sr.fold(run_start, vals)
        bounds = list(starts) + [len(vals)]
        for i in range(len(starts)):
            seg = vals[bounds[i] : bounds[i + 1]]
            acc = seg[0]
            for v in seg[1:]:
                acc = sr.add(np.array([acc]), np.array([v]))[0]
            assert got[i] == acc  # the same left fold, bit for bit

    @SETTINGS
    @given(vals=hnp.arrays(np.float64, st.integers(1, 40), elements=finite))
    def test_single_segment_equals_full_fold(self, name, vals):
        sr = get_semiring(name)
        if name == "or_and":
            vals = (vals != 0).astype(np.float64)
        run_start = np.zeros(len(vals), dtype=bool)
        run_start[0] = True
        got = sr.fold(run_start, vals)[0]
        acc = vals[0]
        for v in vals[1:]:
            acc = sr.add(np.array([acc]), np.array([v]))[0]
        assert got == acc


class TestMultiplyShapes:
    @SETTINGS
    @given(
        a=hnp.arrays(np.float64, 16, elements=finite),
        b=hnp.arrays(np.float64, 16, elements=finite),
    )
    def test_multiply_elementwise_shape(self, a, b):
        for name in SEMIRINGS:
            out = get_semiring(name).multiply(a, b)
            assert out.shape == a.shape

    @SETTINGS
    @given(a=finite, b=finite)
    def test_plus_pair_always_one(self, a, b):
        sr = get_semiring("plus_pair")
        assert sr.multiply(np.array([a]), np.array([b]))[0] == 1.0
