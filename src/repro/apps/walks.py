"""Walk counting and bounded-hop distances via semiring matrix powers.

Two more of the paper's Sec. I applications:

* counting length-k walks (plus-times powers of the adjacency matrix —
  the chained-product pattern of sparse Jacobians, ref. [10]),
* shortest paths within a hop budget (min-plus powers — the
  cycle-detection / path-query family, ref. [5]).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..matrix.base import INDEX_DTYPE
from ..matrix.coo import COOMatrix
from ..matrix.csr import CSRMatrix
from ..semiring import MIN_PLUS
from ._session import loop_multiply, spgemm_session


def count_walks(
    adj: CSRMatrix,
    length: int,
    algorithm: str = "pb",
    config=None,
    session=None,
) -> CSRMatrix:
    """Matrix whose (i, j) entry counts length-``length`` walks i→j.

    Computed as the plus-times matrix power A^length by repeated
    squaring (O(log k) SpGEMMs).  When ``config`` runs on worker
    processes (``executor="process"`` on the numpy pipeline), or with
    an explicit ``session``, every squaring runs on one warm
    :class:`repro.session.Session` instead of spawning a pool per
    multiply.
    """
    if adj.shape[0] != adj.shape[1]:
        raise ShapeError(f"adjacency matrix must be square, got {adj.shape}")
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    n = adj.shape[0]
    result = CSRMatrix.identity(n)
    base = adj
    k = length
    with spgemm_session(config, session) as sess:
        while k:
            if k & 1:
                result = loop_multiply(
                    sess, result.to_csc(), base.to_csr(), algorithm, config
                )
            k >>= 1
            if k:
                base = loop_multiply(
                    sess, base.to_csc(), base.to_csr(), algorithm, config
                )
    return result


def bounded_hop_distances(
    adj: CSRMatrix,
    max_hops: int,
    algorithm: str = "pb",
    config=None,
    session=None,
) -> CSRMatrix:
    """Shortest weighted distances using at most ``max_hops`` edges.

    Min-plus iteration: D₁ = A (with an implicit 0 diagonal folded in),
    D_{k+1} = min(D_k, D_k ⊗ A).  Entry (i, j) of the result is the
    least-cost path of ≤ max_hops edges; absent entries are unreachable
    within the budget.  ``config`` / ``session`` behave as in
    :func:`count_walks` (one warm session for the whole iteration).
    """
    if adj.shape[0] != adj.shape[1]:
        raise ShapeError(f"adjacency matrix must be square, got {adj.shape}")
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    if adj.nnz and adj.data.min() < 0:
        raise ValueError("min-plus distances require non-negative weights")

    dist = adj
    with spgemm_session(config, session) as sess:
        for _ in range(max_hops - 1):
            step = loop_multiply(
                sess,
                dist.to_csc(),
                adj.to_csr(),
                algorithm,
                config,
                semiring="min_plus",
            )
            dist = _entrywise_min(dist, step)
    return dist


def _entrywise_min(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """min(A, B) over the union support (absent = +inf)."""
    ca, cb = a.to_coo(), b.to_coo()
    n = a.shape[1]
    keys = np.concatenate([ca.rows * n + ca.cols, cb.rows * n + cb.cols])
    vals = np.concatenate([ca.vals, cb.vals])
    keys, merged = MIN_PLUS.segment_reduce(keys, vals)
    rows = (keys // n).astype(INDEX_DTYPE)
    cols = (keys % n).astype(INDEX_DTYPE)
    return COOMatrix(a.shape, rows, cols, merged, validate=False).to_csr()
