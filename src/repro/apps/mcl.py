"""Markov clustering (MCL) — the HipMCL workload (paper ref. [9]).

The MCL loop alternates **expansion** (squaring the column-stochastic
matrix — the SpGEMM whose compression factor is usually < 4, PB's sweet
spot), **inflation** (elementwise power + renormalization) and
**pruning** (dropping small entries to keep the iterate sparse).
Columns converge to attractor indicators that define the clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..matrix.base import VALUE_DTYPE
from ..matrix.coo import COOMatrix
from ..matrix.csr import CSRMatrix
from ..matrix.ops import add, prune
from ._session import loop_multiply, spgemm_session


@dataclass(frozen=True)
class MCLResult:
    """Outcome of a Markov-clustering run."""

    labels: np.ndarray  # cluster id per vertex (consecutive ints)
    n_clusters: int
    iterations: int
    converged: bool


def _column_normalize(m: CSRMatrix) -> CSRMatrix:
    coo = m.to_coo()
    sums = np.zeros(m.shape[1], dtype=VALUE_DTYPE)
    np.add.at(sums, coo.cols, coo.vals)
    vals = coo.vals / np.where(sums[coo.cols] > 0, sums[coo.cols], 1.0)
    return COOMatrix(m.shape, coo.rows, coo.cols, vals, validate=False).to_csr()


def _inflate(m: CSRMatrix, r: float) -> CSRMatrix:
    out = m.copy()
    out.data = out.data**r
    return _column_normalize(out)


def markov_clustering(
    adj: CSRMatrix,
    inflation: float = 2.0,
    prune_threshold: float = 1e-4,
    max_iter: int = 50,
    tol: float = 1e-8,
    algorithm: str = "pb",
    add_self_loops: bool = True,
    config=None,
    session=None,
) -> MCLResult:
    """Cluster the undirected graph of ``adj`` with MCL.

    Parameters
    ----------
    adj:
        Symmetric adjacency matrix (weights allowed).
    inflation:
        Inflation exponent r (higher → finer clusters).
    prune_threshold:
        Entries below this are dropped after each expansion.
    max_iter, tol:
        Convergence controls (max-norm change of the iterate).
    algorithm:
        SpGEMM kernel used for expansion.
    add_self_loops:
        Add the identity before normalizing (standard MCL practice).
    config:
        Optional :class:`~repro.core.PBConfig` for the expansion
        SpGEMMs (``nthreads`` threads on the compiled pipeline).
        When its multiplies run on worker processes (``executor=
        "process"`` on the numpy pipeline) the whole MCL loop runs on
        one internal :class:`repro.session.Session` — the worker pool
        spawns once and shared-memory arenas are recycled across
        iterations instead of being rebuilt per expansion.
    session:
        An existing :class:`repro.session.Session` to run on (left
        open; overrides the internal one).
    """
    if adj.shape[0] != adj.shape[1]:
        raise ShapeError(f"adjacency matrix must be square, got {adj.shape}")
    if inflation <= 1.0:
        raise ValueError(f"inflation must exceed 1, got {inflation}")
    n = adj.shape[0]
    if n == 0:
        return MCLResult(np.zeros(0, dtype=np.int64), 0, 0, True)

    work = adj
    if add_self_loops:
        work = add(work, CSRMatrix.identity(n))
    m = _column_normalize(work)

    converged = False
    it = 0
    with spgemm_session(config, session) as sess:
        for it in range(1, max_iter + 1):
            expanded = loop_multiply(
                sess, m.to_csc(), m.to_csr(), algorithm, config
            )
            nxt = _inflate(prune(expanded, prune_threshold), inflation)
            delta = _max_abs_difference(m, nxt)
            m = nxt
            if delta < tol:
                converged = True
                break

    # Attractor of each column = its maximal entry's row (scatter in
    # ascending value order so the last write per column is its max).
    coo = m.to_coo()
    attractor = np.arange(n, dtype=np.int64)  # isolated columns self-attract
    order = np.argsort(coo.vals, kind="stable")
    attractor[coo.cols[order]] = coo.rows[order]
    _, labels = np.unique(attractor, return_inverse=True)
    return MCLResult(
        labels=labels.astype(np.int64),
        n_clusters=int(labels.max()) + 1 if len(labels) else 0,
        iterations=it,
        converged=converged,
    )


def _max_abs_difference(a: CSRMatrix, b: CSRMatrix) -> float:
    diff = add(a, b, alpha=1.0, beta=-1.0)
    return float(np.abs(diff.data).max()) if diff.nnz else 0.0
