"""Tests for the application layer, verified against networkx/numpy."""

import networkx as nx
import numpy as np
import pytest

from repro import PBConfig
from repro.apps import (
    bfs_levels,
    bounded_hop_distances,
    clustering_coefficients,
    count_triangles,
    count_walks,
    markov_clustering,
    multi_source_bfs,
    pagerank,
    triangles_per_vertex,
)
from repro.errors import ShapeError
from repro.generators import banded, block_diagonal, erdos_renyi
from repro.matrix import CSRMatrix


def undirected_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    up = np.triu(rng.random((n, n)) < p, k=1)
    sym = (up | up.T).astype(float)
    return CSRMatrix.from_dense(sym), nx.from_numpy_array(sym)


@pytest.fixture(scope="module")
def graph():
    return undirected_graph(80, 0.08, seed=7)


class TestTriangles:
    def test_count_matches_networkx(self, graph):
        adj, g = graph
        assert count_triangles(adj) == sum(nx.triangles(g).values()) // 3

    def test_per_vertex_matches_networkx(self, graph):
        adj, g = graph
        tri = triangles_per_vertex(adj)
        expected = nx.triangles(g)
        np.testing.assert_allclose(tri, [expected[i] for i in range(80)])

    def test_clustering_matches_networkx(self, graph):
        adj, g = graph
        cc = clustering_coefficients(adj)
        expected = nx.clustering(g)
        np.testing.assert_allclose(cc, [expected[i] for i in range(80)], atol=1e-12)

    def test_triangle_free_graph(self):
        adj = banded(20, 1)  # a path-with-selfloops band; strip diag handled
        assert count_triangles(adj) == 0

    def test_complete_graph(self):
        n = 7
        adj = CSRMatrix.from_dense(np.ones((n, n)) - np.eye(n))
        assert count_triangles(adj) == n * (n - 1) * (n - 2) // 6

    def test_self_loops_ignored(self):
        dense = np.ones((4, 4))  # includes diagonal
        adj = CSRMatrix.from_dense(dense)
        assert count_triangles(adj) == 4  # K4 has 4 triangles

    def test_requires_square(self):
        with pytest.raises(ShapeError):
            count_triangles(CSRMatrix.empty((3, 4)))


class TestBFS:
    def test_levels_match_networkx(self, graph):
        adj, g = graph
        lv = bfs_levels(adj, 0)
        expected = nx.single_source_shortest_path_length(g, 0)
        for v in range(80):
            assert lv[v] == expected.get(v, -1)

    def test_multi_source_consistent(self, graph):
        adj, _ = graph
        sources = [0, 5, 11]
        multi = multi_source_bfs(adj, sources)
        for j, s in enumerate(sources):
            np.testing.assert_array_equal(multi[:, j], bfs_levels(adj, s))

    def test_max_depth(self, graph):
        adj, _ = graph
        lv = multi_source_bfs(adj, [0], max_depth=1)[:, 0]
        assert set(np.unique(lv)).issubset({-1, 0, 1})

    def test_disconnected(self):
        adj = block_diagonal(2, 5, seed=1)
        lv = bfs_levels(adj, 0)
        assert np.all(lv[5:] == -1)
        assert np.all(lv[:5] >= 0)

    def test_empty_sources(self, graph):
        adj, _ = graph
        assert multi_source_bfs(adj, []).shape == (80, 0)

    def test_source_out_of_range(self, graph):
        adj, _ = graph
        with pytest.raises(ShapeError):
            bfs_levels(adj, 99)

    def test_directed_edges_respected(self):
        # 0 -> 1 -> 2, no way back.
        dense = np.zeros((3, 3))
        dense[0, 1] = 1
        dense[1, 2] = 1
        adj = CSRMatrix.from_dense(dense)
        lv = bfs_levels(adj, 0)
        assert lv.tolist() == [0, 1, 2]
        assert bfs_levels(adj, 2).tolist() == [-1, -1, 0]


class TestPageRank:
    def test_matches_networkx(self, graph):
        adj, g = graph
        pr = pagerank(adj, damping=0.85, tol=1e-12)
        expected = nx.pagerank(g, alpha=0.85, tol=1e-12)
        np.testing.assert_allclose(pr, [expected[i] for i in range(80)], atol=1e-6)

    def test_sums_to_one(self, graph):
        adj, _ = graph
        assert pagerank(adj).sum() == pytest.approx(1.0)

    def test_dangling_nodes(self):
        dense = np.zeros((4, 4))
        dense[1, 0] = 1.0  # 0 -> 1; nodes 1,2,3 dangle
        adj = CSRMatrix.from_dense(dense)
        pr = pagerank(adj)
        assert pr.sum() == pytest.approx(1.0)
        assert pr[1] > pr[0]

    def test_invalid_damping(self, graph):
        adj, _ = graph
        with pytest.raises(ValueError):
            pagerank(adj, damping=1.5)

    def test_empty_graph(self):
        assert pagerank(CSRMatrix.empty((0, 0))).shape == (0,)


class TestMCL:
    def test_recovers_planted_blocks(self):
        adj = block_diagonal(3, 12, seed=5)
        sym = CSRMatrix.from_dense(
            np.maximum(adj.to_dense(), adj.to_dense().T)
        )
        res = markov_clustering(sym, inflation=2.0)
        assert res.n_clusters == 3
        labels = res.labels
        truth = np.repeat(np.arange(3), 12)
        # Each block maps to exactly one cluster.
        for b in range(3):
            assert len(np.unique(labels[truth == b])) == 1

    def test_converges(self):
        adj = block_diagonal(2, 8, seed=2)
        sym = CSRMatrix.from_dense(np.maximum(adj.to_dense(), adj.to_dense().T))
        res = markov_clustering(sym)
        assert res.converged
        assert res.iterations >= 1

    def test_result_labels_consecutive(self):
        adj = block_diagonal(4, 6, seed=3)
        sym = CSRMatrix.from_dense(np.maximum(adj.to_dense(), adj.to_dense().T))
        res = markov_clustering(sym)
        assert set(res.labels.tolist()) == set(range(res.n_clusters))

    def test_invalid_inflation(self):
        with pytest.raises(ValueError):
            markov_clustering(CSRMatrix.identity(4), inflation=1.0)

    def test_empty(self):
        res = markov_clustering(CSRMatrix.empty((0, 0)))
        assert res.n_clusters == 0 and res.converged

    def test_process_config_without_workers_runs_serially(self):
        # executor="process" with the default nthreads=1 is the
        # documented serial fallback, as in repro.multiply: no session.
        adj = block_diagonal(3, 12, seed=5)
        sym = CSRMatrix.from_dense(np.maximum(adj.to_dense(), adj.to_dense().T))
        res = markov_clustering(sym, config=PBConfig(executor="process"))
        ref = markov_clustering(sym)
        np.testing.assert_array_equal(res.labels, ref.labels)
        assert res.iterations == ref.iterations


class TestWalks:
    def test_walk_counts_match_matrix_power(self, graph):
        adj, _ = graph
        for k in (0, 1, 2, 3):
            w = count_walks(adj, k)
            np.testing.assert_allclose(
                w.to_dense(), np.linalg.matrix_power(adj.to_dense(), k), atol=1e-9
            )

    def test_process_config_without_workers_runs_serially(self, graph):
        adj, _ = graph
        w = count_walks(adj, 3, config=PBConfig(executor="process"))
        ref = count_walks(adj, 3)
        np.testing.assert_array_equal(w.indptr, ref.indptr)
        np.testing.assert_array_equal(w.indices, ref.indices)
        assert w.data.tobytes() == ref.data.tobytes()

    def test_negative_length(self, graph):
        adj, _ = graph
        with pytest.raises(ValueError):
            count_walks(adj, -1)

    def test_bounded_hop_matches_networkx(self):
        rng = np.random.default_rng(4)
        up = np.triu(rng.random((30, 30)) < 0.12, k=1)
        weights = np.triu(rng.uniform(1, 5, (30, 30)), k=1) * up
        sym = weights + weights.T
        adj = CSRMatrix.from_dense(sym)
        g = nx.from_numpy_array(sym)
        hops = 3
        dist = bounded_hop_distances(adj, hops).to_dense()
        for i in range(30):
            lengths = nx.single_source_dijkstra_path_length(g, i)
            paths = nx.single_source_dijkstra_path(g, i)
            for j, d in lengths.items():
                if i == j:
                    continue
                if len(paths[j]) - 1 <= hops and dist[i, j] != 0:
                    assert dist[i, j] <= d + 1e-9 or dist[i, j] == pytest.approx(d)

    def test_bounded_hop_one_is_adjacency(self, graph):
        adj, _ = graph
        d1 = bounded_hop_distances(adj, 1)
        np.testing.assert_allclose(d1.to_dense(), adj.to_dense())

    def test_negative_weights_rejected(self):
        adj = CSRMatrix.from_dense(np.array([[0.0, -1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            bounded_hop_distances(adj, 2)
