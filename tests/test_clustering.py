"""Clustering and stratification tests.

The UPGMA oracle recomputes every inter-cluster distance from scratch as
the mean over all cross pairs of original points, so it shares no code
with the incremental production update. A second oracle, legacy_upgma, is
the full-rescan loop the cached-nearest-neighbour UPGMA replaced, and a
third, cached_upgma, is that UPGMA with its cache seeded by n - 1 rescans:
both must produce the same merges with == distances.
scipy, when installed, checks cut partitions on tie-free inputs.
legacy_stratify, the per-entry stratify the column one replaced, must give
equal strata.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xfertune import (
    ClusterError,
    DatasetMeta,
    Dendrogram,
    LogTable,
    Merge,
    NetworkMeta,
    ParamConfig,
    ParamLattice,
    StratifyConfig,
    Stratum,
    TransferLogEntry,
    UnknownRouteError,
    assign_stratum,
    cut_dendrogram,
    stratify,
    upgma_cluster,
)
from xfertune import clustering, simulator
from xfertune.clustering import (
    FeatureSpec,
    _cluster_by_vectors,
    _pairwise_distances,
    load_band_stratum,
    tier2_vector,
)
from xfertune.logs import unique_rows
from xfertune.simulator import DATASET_CLASSES


def brute_force_upgma(points):
    """Average-linkage merges, O(n^3), distances recomputed each round."""
    pts = np.atleast_2d(np.asarray(points, dtype=float).T).T
    if pts.shape[0] == 1:
        pts = pts.T
    n = len(pts)
    d0 = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    clusters = {i: [i] for i in range(n)}
    merges = []
    next_id = n
    while len(clusters) > 1:
        ids = sorted(clusters)
        best = None
        for ai, a in enumerate(ids):
            for b in ids[ai + 1:]:
                d = float(np.mean([d0[i, j] for i in clusters[a] for j in clusters[b]]))
                if best is None or d < best[0]:
                    best = (d, a, b)
        d, a, b = best
        clusters[next_id] = clusters.pop(a) + clusters.pop(b)
        merges.append((a, b, d, next_id))
        next_id += 1
    return merges


def legacy_pairwise_distances(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def legacy_upgma(points: np.ndarray, weights: np.ndarray) -> Dendrogram:
    """The full-rescan UPGMA loop: O(n^3), copies the matrix every merge."""
    n = len(points)
    if n == 1:
        return Dendrogram(1, ())
    dist = legacy_pairwise_distances(points)
    ids = list(range(n))
    sizes = list(float(w) for w in weights)
    merges = []
    next_id = n
    while len(ids) > 1:
        m = len(ids)
        iu = np.triu_indices(m, 1)
        vals = dist[iu]
        # first occurrence in row-major upper-triangle order is the
        # lexicographically smallest (id_a, id_b) pair, since ids ascend
        k = int(np.argmin(vals))
        i, j = int(iu[0][k]), int(iu[1][k])
        d = float(vals[k])
        si, sj = sizes[i], sizes[j]
        # average linkage: size-weighted mean of distances to the two parts
        row = (si * dist[i, :] + sj * dist[j, :]) / (si + sj)
        keep = [t for t in range(m) if t not in (i, j)]
        merges.append(Merge(ids[i], ids[j], d, next_id))
        new_row = row[keep]
        dist = dist[np.ix_(keep, keep)]
        dist = np.pad(dist, ((0, 1), (0, 1)))
        dist[-1, :-1] = new_row
        dist[:-1, -1] = new_row
        dist[-1, -1] = 0.0
        ids = [ids[t] for t in keep] + [next_id]
        sizes = [sizes[t] for t in keep] + [si + sj]
        next_id += 1
    return Dendrogram(n, tuple(merges))


def cached_upgma(points: np.ndarray, weights: np.ndarray) -> Dendrogram:
    """The cached-nearest-neighbour UPGMA with a plainer seed and merge
    loop: n - 1 rescans seed the cache, and every merge recomputes the live
    mask and breaks each tie by cluster id."""
    n = len(points)
    if n == 1:
        return Dendrogram(1, ())
    dist = legacy_pairwise_distances(points)
    sizes = np.array(weights, dtype=float)
    ids = np.arange(n)
    nn = np.full(n, -1)
    nn_dist = np.full(n, np.inf)

    def argmin_by_id(values):
        best = values.min()
        tied = np.flatnonzero(values == best)
        return int(tied[np.argmin(ids[tied])]), float(best)

    def rescan(x):
        row = np.where(ids > ids[x], dist[x], np.inf)
        nn[x], nn_dist[x] = argmin_by_id(row)

    for x in range(n - 1):
        rescan(x)
    merges = []
    for new_id in range(n, 2 * n - 1):
        i, d = argmin_by_id(nn_dist)
        j = int(nn[i])
        merges.append(Merge(int(ids[i]), int(ids[j]), d, new_id))
        si, sj = sizes[i], sizes[j]
        row = (si * dist[i] + sj * dist[j]) / (si + sj)
        dist[i] = row
        dist[:, i] = row
        sizes[i] = si + sj
        ids[i], ids[j] = new_id, -1
        nn_dist[i] = nn_dist[j] = np.inf
        others = ids >= 0
        others[i] = False
        stale = others & ((nn == i) | (nn == j))
        closer = others & ~stale & (row < nn_dist)
        nn[closer] = i
        nn_dist[closer] = row[closer]
        for x in np.flatnonzero(stale):
            rescan(x)
    return Dendrogram(n, tuple(merges))


def assert_same_merges(got: Dendrogram, want: Dendrogram):
    assert [(m.a, m.b, m.new_id) for m in got.merges] == \
        [(m.a, m.b, m.new_id) for m in want.merges]
    assert [m.distance for m in got.merges] == [m.distance for m in want.merges]


def random_points(rng):
    n = int(rng.integers(2, 13))
    dim = int(rng.integers(1, 4))
    pts = rng.uniform(0.0, 1.0, size=(n, dim))
    if n >= 4 and rng.uniform() < 0.3:
        pts[1] = pts[0]   # exercise zero-distance ties
    return pts


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(12)
    for _ in range(60):
        pts = random_points(rng)
        dend = upgma_cluster(pts)
        want = brute_force_upgma(pts)
        assert len(dend.merges) == len(want)
        for got, (a, b, d, new_id) in zip(dend.merges, want):
            assert (got.a, got.b, got.new_id) == (a, b, new_id)
            assert abs(got.distance - d) <= 1e-10 * max(1.0, d)


def test_linkage_distances_are_monotone():
    rng = np.random.default_rng(13)
    for _ in range(30):
        dend = upgma_cluster(random_points(rng))
        d = [m.distance for m in dend.merges]
        assert all(b >= a - 1e-12 for a, b in zip(d, d[1:]))


def test_hand_worked_three_point_merge_order():
    dend = upgma_cluster([0.0, 0.1, 1.0])
    assert dend.merges[0] == Merge(a=0, b=1, distance=pytest.approx(0.1), new_id=3)
    m = dend.merges[1]
    assert (m.a, m.b, m.new_id) == (2, 3, 4)
    # average of |1-0| and |1-0.1|
    assert m.distance == pytest.approx(0.95)


def test_single_point_dendrogram():
    dend = upgma_cluster([[0.5, 0.5]])
    assert dend.leaf_count == 1 and dend.merges == ()
    assert cut_dendrogram(dend, 1.0) == [{0}]


def test_dendrogram_rejects_decreasing_merges():
    merges = (Merge(0, 1, 0.5, 3), Merge(2, 3, 0.3, 4))
    with pytest.raises(ClusterError):
        Dendrogram(3, merges)


def test_cut_thresholds():
    dend = upgma_cluster([0.0, 0.1, 1.0])
    assert cut_dendrogram(dend, 0.05) == [{0}, {1}, {2}]
    assert cut_dendrogram(dend, 0.1) == [{0, 1}, {2}]
    assert cut_dendrogram(dend, 1.0) == [{0, 1, 2}]
    with pytest.raises(ClusterError):
        cut_dendrogram(dend, -0.1)


def test_duplicates_merge_at_zero():
    dend = upgma_cluster([5.0, 5.0, 1.0])
    assert dend.merges[0].distance == 0.0
    assert cut_dendrogram(dend, 0.0) == [{0, 1}, {2}]


def test_weighted_dedupe_equals_multiset_clustering():
    # clustering unique vectors with multiplicities must give the same flat
    # clusters as clustering the full multiset
    rng = np.random.default_rng(14)
    for _ in range(20):
        base = rng.uniform(0.0, 1.0, size=(int(rng.integers(2, 6)), 2))
        reps = rng.integers(1, 4, size=len(base))
        vectors = [tuple(base[i]) for i in range(len(base)) for _ in range(reps[i])]
        n = len(vectors)
        cut = float(rng.uniform(0.05, 0.6))
        got = {frozenset(g) for g in _cluster_by_vectors(vectors, list(range(n)), cut)}

        merges = brute_force_upgma(np.array(vectors))
        parent = list(range(n + len(merges)))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b, d, new_id in merges:
            if d <= cut:
                parent[find(a)] = new_id
                parent[find(b)] = new_id
        want = {}
        for leaf in range(n):
            want.setdefault(find(leaf), set()).add(leaf)
        assert got == {frozenset(v) for v in want.values()}


@st.composite
def weighted_point_sets(draw):
    """Up to 200 weighted points in 1-4 dimensions. Rounding to a coarse
    lattice makes many distances tie exactly; copied rows add duplicates."""
    n = draw(st.integers(1, 200))
    dim = draw(st.integers(1, 4))
    grid = draw(st.sampled_from([0, 2, 4, 10]))   # 0: continuous coordinates
    dups = draw(st.integers(0, n // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(0.0, 1.0, size=(n, dim))
    if grid:
        pts = np.round(pts * grid) / grid
    pts[rng.integers(0, n, dups)] = pts[rng.integers(0, n, dups)]
    return pts, rng.integers(1, 5, size=n).astype(float)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=weighted_point_sets())
def test_upgma_matches_legacy_oracle(case):
    pts, weights = case
    assert np.array_equal(_pairwise_distances(pts), legacy_pairwise_distances(pts))
    got = clustering._upgma(pts, weights).merges
    want = legacy_upgma(pts, weights).merges
    assert [(m.a, m.b, m.new_id) for m in got] == [(m.a, m.b, m.new_id) for m in want]
    assert [m.distance for m in got] == [m.distance for m in want]


def jittered_corpus(seed, size):
    """Chameleon small-class lattice at three loads, a random subset of
    entries with ext_load jittered by +-0.02 and the measurements recomputed,
    then rtt_ms jittered by +-20% (the simulator's laws read the endpoint's
    RTT, not the entry's), so every entry is its own tier-3 point."""
    spec = simulator.ENDPOINTS["chameleon"]
    small = simulator.DATASET_CLASSES["small"]
    base = simulator.generate_training_logs(specs=[spec], classes={"small": small},
                                            seed=seed)
    rng = np.random.default_rng(seed)
    picked = sorted(rng.choice(len(base), size=size, replace=False))
    out = []
    for k in picked:
        e = base[k]
        load = e.network.ext_load + float(rng.uniform(-0.02, 0.02))
        tput = simulator.throughput_mbps(spec, e.params, load,
                                         e.dataset.avg_file_size_bytes)
        power = simulator.power_above_base_watts(spec, e.params, tput)
        duration = e.dataset.total_size_bytes * 8.0 / 1e6 / tput
        out.append(dataclasses.replace(
            e, network=dataclasses.replace(e.network, ext_load=load),
            throughput_mbps=tput, avg_power_watts=power,
            energy_joules=power * duration, duration_s=duration))
    rtts = spec.rtt_ms * rng.uniform(0.8, 1.2, size)
    return [dataclasses.replace(e, network=dataclasses.replace(e.network, rtt_ms=float(r)))
            for e, r in zip(out, rtts)]


def assert_cells_hold_several_vectors(vectors, cut):
    # so _cluster_by_vectors takes its cell-mean path, not only exact vectors
    uniq = unique_rows(vectors)[0]
    assert len(unique_rows(clustering._grid_cells(uniq, cut))[0]) < len(uniq)


@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_blocked_upgma_matches_the_cached_oracle_across_blocks(n):
    rng = np.random.default_rng(n)
    for dim in range(1, 8):
        pts = rng.uniform(0.0, 1.0, size=(n, dim))
        assert np.array_equal(_pairwise_distances(pts), legacy_pairwise_distances(pts))
    for dim, grid in ((1, 0), (2, 0), (2, 4), (3, 2), (7, 10)):
        pts = rng.uniform(0.0, 1.0, size=(n, dim))
        if grid:   # a coarse lattice makes many distances tie exactly
            pts = np.round(pts * grid) / grid
        weights = rng.integers(1, 5, size=n).astype(float)
        assert_same_merges(clustering._upgma(pts, weights), cached_upgma(pts, weights))


def test_upgma_matches_the_cached_oracle_on_continuous_loads():
    # no tier clusters the load, so the continuous RTT gives the points
    entries = jittered_corpus(seed=1, size=1296)
    config = StratifyConfig()
    vectors = clustering._tier_vectors(LogTable.from_entries(entries),
                                       config.tier3_features)
    uniq, _, counts = unique_rows(vectors)
    assert len(uniq) == 1296   # every entry is its own tier-3 point
    assert_cells_hold_several_vectors(vectors, config.tier3_cut)
    pts, weights = np.ascontiguousarray(uniq), counts.astype(float)
    assert_same_merges(clustering._upgma(pts, weights), cached_upgma(pts, weights))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("points", [[[1e308], [-1e308]], [[1e308], [-1e308], [0.0]],
                                    [[1e200, 1e200], [0.0, 0.0], [1.0, 1.0]]])
def test_upgma_cluster_rejects_distances_that_overflow(points):
    with pytest.raises(ClusterError, match="linkage distances overflow"):
        upgma_cluster(points)


@pytest.mark.parametrize("tier3_cut", [0.25, 0.01])   # 1 and 3-4 link clusters a band
def test_stratify_matches_legacy_oracle_on_jittered_loads(monkeypatch, tier3_cut):
    entries = jittered_corpus(seed=3, size=300)
    config = StratifyConfig(tier3_cut=tier3_cut)
    assert_cells_hold_several_vectors(
        clustering._tier_vectors(LogTable.from_entries(entries), config.tier3_features),
        tier3_cut)
    got = [s.as_dict() for s in stratify(entries, config)]
    monkeypatch.setattr(clustering, "_upgma", legacy_upgma)
    want = [s.as_dict() for s in stratify(entries, config)]
    assert got == want


@pytest.mark.parametrize("vectors, want", [
    ([[0.10001, 0.9], [0.10002, 0.1]], [[0], [1]]),
    # the last two rows share a cell, which becomes one point
    ([[0.10001, 0.9], [0.10002, 0.1], [0.10003, 0.1]], [[0], [1, 2]])])
def test_groups_follow_the_smallest_raw_member_vector(vectors, want):
    # one axis-0 cell, so the cells alone would order the first row last
    cells = clustering._grid_cells(np.array(vectors), 0.25)
    assert np.all(cells[:, 0] == cells[0, 0]) and np.all(cells[1:, 1] < cells[0, 1])
    got = _cluster_by_vectors(vectors, range(len(vectors)), 0.25)
    assert [g.tolist() for g in got] == want


def test_a_cell_weighs_its_entries():
    # 0.2 and 0.20001 share a cell; weighted by its 20 entries, the cell pulls
    # the pair {0.0, cell} within the cut of 0.43, as the multiset does
    vectors = [[0.0]] + [[0.2]] * 10 + [[0.20001]] * 10 + [[0.43]]
    cells = clustering._grid_cells(np.array(vectors), 0.25)
    assert len(np.unique(cells)) == 3
    exact = cut_dendrogram(upgma_cluster(vectors), 0.25)
    got = _cluster_by_vectors(vectors, range(len(vectors)), 0.25)
    assert [g.tolist() for g in got] == [sorted(c) for c in exact] == [list(range(22))]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cut, want", [(0.0, [[0, 1], [2], [3]]),
                                       (5e-324, [[0, 1], [2], [3]]),
                                       (1e-310, [[0, 1], [2], [3]]),
                                       (1e300, [[0, 1, 2, 3]])])
def test_extreme_cuts_cluster_without_warnings(cut, want):
    # a cut of 0, or one whose grid scale overflows, clusters the exact
    # vectors: distinct vectors stay apart however close they are
    vectors = [[0.1, 0.2], [0.1, 0.2], [0.1, 0.2000001], [0.9, 0.5]]
    assert [g.tolist() for g in _cluster_by_vectors(vectors, range(4), cut)] == want


@st.composite
def separated_blobs(draw):
    """Blobs of points, each of diameter below cut / 2 - margin, their
    centres on a lattice more than cut + diameter + 2 margin apart, where
    margin bounds how far the grid moves a distance: every partition of the
    grid and of the exact vectors is then the blobs."""
    dim = draw(st.integers(1, 4))
    cut = draw(st.sampled_from([0.002, 0.01, 0.05, 0.1, 0.2]))
    margin = 2 * np.sqrt(dim) * cut / clustering.SNAP_STEPS
    diameter = (cut / 2 - margin) * draw(st.floats(0.0, 0.99))
    spacing = (cut + diameter + 2 * margin) * draw(st.floats(1.001, 1.4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_blobs = min(draw(st.integers(1, 6)), 3 ** dim)
    lattice = rng.choice(3 ** dim, size=n_blobs, replace=False)
    centres = np.array(np.unravel_index(lattice, (3,) * dim)).T * spacing + diameter / 2
    pts = []
    for c in centres:
        size = int(rng.integers(1, 40))
        off = rng.normal(size=(size, dim))
        off *= rng.uniform(0.0, diameter / 2, (size, 1)) / np.linalg.norm(off, axis=1,
                                                                           keepdims=True)
        pts.append(c + off)
    pts = np.concatenate(pts)
    dups = rng.integers(0, len(pts), len(pts) // 4)
    pts[dups] = pts[rng.integers(0, len(pts), len(dups))]
    return pts[rng.permutation(len(pts))], cut


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=separated_blobs())
def test_grid_partition_equals_the_exact_partition_on_separated_blobs(case):
    pts, cut = case
    exact = cut_dendrogram(upgma_cluster(pts), cut)
    want = sorted((sorted(c) for c in exact), key=lambda c: min(map(tuple, pts[c])))
    got = _cluster_by_vectors(pts, np.arange(len(pts)), cut)
    assert [g.tolist() for g in got] == want


def test_stratify_scales_to_a_long_jittered_log(monkeypatch, multiroute_noisy):
    # the multiroute corpus (3 routes x 2 sweeps) with every load jittered
    # by +-0.02 and every file-size spread by +-2%: 23,328 distinct tier-2
    # vectors, which exact UPGMA would hold in a 4.3 GB distance matrix
    table = multiroute_noisy
    rng = np.random.default_rng(1)
    table = dataclasses.replace(
        table, ext_load=table.ext_load + rng.uniform(-0.02, 0.02, len(table)),
        file_size_stddev_bytes=table.file_size_stddev_bytes
        * rng.uniform(0.98, 1.02, len(table)))
    assert len(table) == 23328 and len(np.unique(table.ext_load)) == len(table)
    assert len(np.unique(table.file_size_stddev_bytes)) == len(table)
    seen = []
    upgma = clustering._upgma

    def spy(points, weights):
        seen.append(len(points))
        assert len(points) <= 1000, f"UPGMA over {len(points)} points"
        return upgma(points, weights)

    monkeypatch.setattr(clustering, "_upgma", spy)
    tracemalloc.start()
    try:
        strata = stratify(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seen and peak < 100e6
    assert_is_partition(len(table), strata)


def test_upgma_holds_one_distance_matrix():
    # the n x n distance matrix is the only n x n array: the fill, the
    # neighbour seed and the merges add O(n) buffers at a time beside it
    n = 1500
    pts = np.random.default_rng(7).uniform(0.0, 1.0, (n, 2))
    tracemalloc.start()
    try:
        clustering._upgma(pts, np.ones(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * n * n


def test_cut_partitions_match_scipy():
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    rng = np.random.default_rng(16)
    for _ in range(40):
        # continuous coordinates: no exact ties, so merge order is unambiguous
        pts = rng.uniform(0.0, 1.0, size=(int(rng.integers(2, 80)), int(rng.integers(1, 5))))
        dend = upgma_cluster(pts)
        z = hierarchy.linkage(pts, method="average")
        dists = [m.distance for m in dend.merges]
        np.testing.assert_allclose(z[:, 2], dists, rtol=1e-9, atol=1e-12)
        for k in range(0, len(dists) - 1, max(1, len(dists) // 5)):
            if dists[k + 1] - dists[k] < 1e-9:
                continue
            cut = (dists[k] + dists[k + 1]) / 2
            labels = hierarchy.fcluster(z, t=cut, criterion="distance")
            want = {}
            for leaf, label in enumerate(labels):
                want.setdefault(label, set()).add(leaf)
            assert cut_dendrogram(dend, cut) == sorted(want.values(), key=min)


def test_upgma_cluster_rejects_3d_input():
    with pytest.raises(ClusterError, match="1-D or 2-D"):
        upgma_cluster(np.zeros((2, 2, 2)))


def test_upgma_cluster_rejects_ragged_input():
    with pytest.raises(ClusterError, match="rectangular"):
        upgma_cluster([[1.0, 2.0], [3.0]])


def test_cut_rejects_non_finite_threshold():
    dend = upgma_cluster([0.0, 0.1, 1.0])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ClusterError, match="finite"):
            cut_dendrogram(dend, bad)


def test_feature_normalization():
    lin = FeatureSpec("x", 0.0, 10.0)
    assert lin.normalize(2.5) == pytest.approx(0.25)
    assert lin.normalize(-1.0) == 0.0
    assert lin.normalize(11.0) == 1.0
    log = FeatureSpec("y", 1.0, 1e4, log_scale=True)
    assert log.normalize(100.0) == pytest.approx(0.5)
    assert log.normalize(0.5) == 0.0   # clamped at the low edge before log


# -- stratification -----------------------------------------------------------


def random_corpus(rng, n_routes: int = 2):
    routes = [(f"src{r}", f"dst{r}") for r in range(n_routes)]
    bw = [1000.0, 10000.0, 500.0]
    rtt = [10.0, 40.0, 120.0]
    entries = []
    for i in range(int(rng.integers(20, 60))):
        r = int(rng.integers(0, n_routes))
        nf = int(rng.integers(1, 5000))
        avg = float(rng.uniform(1e4, 1e8))
        power = float(rng.uniform(1.0, 100.0))
        duration = float(rng.uniform(1.0, 100.0))
        entries.append(TransferLogEntry(
            params=ParamConfig(1, 1200, 1, 1, 0),
            dataset=DatasetMeta(num_files=nf, total_size_bytes=avg * nf,
                                avg_file_size_bytes=avg,
                                file_size_stddev_bytes=float(rng.uniform(0, avg / 3))),
            network=NetworkMeta(routes[r][0], routes[r][1], bw[r], rtt[r],
                                float(rng.uniform(0.0, 1.0))),
            throughput_mbps=float(rng.uniform(1.0, bw[r])),
            energy_joules=power * duration, avg_power_watts=power,
            duration_s=duration, timestamp_s=float(i)))
    return entries


def canonical_partition(entries, strata):
    out = []
    for s in strata:
        fingerprints = tuple(sorted(repr(entries[i].as_dict()) for i in s.members))
        out.append((fingerprints, s.route, s.ext_load_interval))
    return sorted(out)


def assert_is_partition(n_entries, strata):
    seen = []
    for s in strata:
        seen.extend(s.members)
    assert sorted(seen) == list(range(n_entries))


def test_partition_and_permutation_invariance():
    rng = np.random.default_rng(15)
    for _ in range(25):
        entries = random_corpus(rng)
        strata = stratify(entries)
        assert_is_partition(len(entries), strata)
        perm = rng.permutation(len(entries))
        shuffled = [entries[i] for i in perm]
        again = stratify(shuffled)
        assert_is_partition(len(shuffled), again)
        assert canonical_partition(entries, strata) == canonical_partition(shuffled, again)


def test_default_corpus_has_nine_strata(corpus, strata):
    assert len(strata) == 9
    assert [s.id for s in strata] == [f"s{i:03d}" for i in range(9)]
    assert_is_partition(len(corpus), strata)


def test_dataset_classes_separate_into_three_tier2_strata(corpus, strata):
    by_tier2 = {}
    for s in strata:
        classes = {corpus[i].dataset.num_files for i in s.members}
        assert len(classes) == 1   # no stratum mixes file classes
        by_tier2.setdefault(s.tier2_key, set()).update(classes)
    assert len(by_tier2) == 3
    num_files = {cls.num_files for cls in DATASET_CLASSES.values()}
    assert set().union(*by_tier2.values()) == num_files
    for members in by_tier2.values():
        assert len(members) == 1


def test_load_band_boundaries_on_default_corpus(strata):
    # training loads {0.2, 0.35, 0.5}: mean 0.35, population sigma of the
    # per-entry loads gives the band edges
    intervals = sorted({s.ext_load_interval for s in strata})
    assert len(intervals) == 3
    assert intervals[0][0] == 0.0
    assert intervals[0][1] == pytest.approx(0.22752551286084113, abs=1e-12)
    assert intervals[1][1] == pytest.approx(0.47247448713915896, abs=1e-12)
    assert intervals[2][1] == 1.0


def assert_every_entry_assigns_back(table, strata, config):
    owner = {i: s.id for s in strata for i in s.members}
    wrong = [i for i in range(len(table))
             if assign_stratum(table[i].dataset, table[i].network, strata,
                               config).id != owner[i]]
    assert not wrong, f"{len(wrong)} of {len(table)} entries misassigned, first {wrong[:5]}"


def test_every_entry_assigns_back_to_its_stratum(corpus, strata, stratify_config):
    assert_every_entry_assigns_back(corpus, strata, stratify_config)


def test_every_multiroute_noisy_entry_assigns_back_to_its_stratum(multiroute_noisy):
    # loads 0.2 and 0.35 lie closer to each other than to 0.5, so a tier
    # that clustered the load would cut the corpus apart from the bands
    config = StratifyConfig()
    strata = stratify(multiroute_noisy, config)
    assert len(strata) == 27
    assert_every_entry_assigns_back(multiroute_noisy, strata, config)
    # every (route, dataset) gets the same three disjoint bands
    intervals = sorted({s.ext_load_interval for s in strata})
    assert [lo for lo, _ in intervals[1:]] == [hi for _, hi in intervals[:-1]]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(endpoints=st.lists(st.sampled_from(sorted(simulator.ENDPOINTS)), min_size=1,
                          max_size=3, unique=True),
       classes=st.sets(st.sampled_from(sorted(DATASET_CLASSES)), min_size=1),
       seed=st.integers(0, 2**32 - 1))
def test_every_entry_of_a_continuous_load_corpus_assigns_back(endpoints, classes, seed):
    lattice = ParamLattice(cpu_num=(1, 2), cpu_freq_mhz=(1200, 1800), cc=(1, 8),
                           p=(1, 4), pp=(0, 8))
    table = simulator.generate_training_logs(
        specs=[simulator.ENDPOINTS[n] for n in endpoints], lattice=lattice,
        classes={c: DATASET_CLASSES[c] for c in sorted(classes)}, seed=seed)
    rng = np.random.default_rng(seed)
    table = dataclasses.replace(table, ext_load=rng.uniform(0.0, 1.0, len(table)))
    config = StratifyConfig()
    assert_every_entry_assigns_back(table, stratify(table, config), config)


@pytest.mark.parametrize("cut", [0.01, 0.005])
def test_an_entry_assigns_to_its_own_load_band_when_tier3_splits_rtt(cut):
    # stratify clusters tier 3 inside each load band and numbers the links
    # from 0 in each; walking tier 3 before the band sent 102 entries
    # (cut 0.01, 10 strata) and 58 (cut 0.005) to a stratum of another band
    entries = jittered_corpus(1, 1296)
    config = StratifyConfig(tier3_cut=cut)
    strata = stratify(entries, config)

    def place(s):
        return s.route, s.tier1_key, s.tier2_key, s.ext_load_interval
    wrong = [i for s in strata for i in s.members
             if place(assign_stratum(entries[i].dataset, entries[i].network, strata,
                                     config)) != place(s)]
    assert not wrong, f"{len(wrong)} of {len(entries)} entries misplaced, first {wrong[:5]}"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="UPGMA clusters are not nearest-centroid cells: "
                   "50 of the 1,296 entries go to another tier-3 link of their own band")
def test_every_entry_assigns_back_when_tier3_splits_rtt():
    entries = jittered_corpus(1, 1296)
    config = StratifyConfig(tier3_cut=0.01)
    assert_every_entry_assigns_back(entries, stratify(entries, config), config)


def test_assign_unknown_route_raises(strata, stratify_config):
    ds = DATASET_CLASSES["small"]
    net = NetworkMeta("nowhere", "elsewhere", 1e4, 32.0, 0.2)
    with pytest.raises(UnknownRouteError, match="nowhere->elsewhere"):
        assign_stratum(ds, net, strata, stratify_config)


def make_stratum(sid, interval):
    return Stratum(
        id=sid, tier1_key="net0", tier2_key="data0", tier3_key="a->b/link0",
        route=("a", "b"), ext_load_interval=interval, members=(0,),
        centroids={"tier1": (0.5,), "tier2": (0.5, 0.5, 0.5, 0.5),
                   "tier3": (0.5, 0.5)})


def probe_net(load):
    return NetworkMeta("a", "b", 1e4, 30.0, load)


def probe_ds():
    return DatasetMeta(num_files=10, total_size_bytes=1e6,
                       avg_file_size_bytes=1e5, file_size_stddev_bytes=0.0)


def test_gap_probe_picks_nearest_interval_midpoint():
    strata = [make_stratum("a", (0.0, 0.3)), make_stratum("b", (0.5, 0.8))]
    got = assign_stratum(probe_ds(), probe_net(0.45), strata)
    assert got.id == "b"   # |0.45-0.65| = 0.20 beats |0.45-0.15| = 0.30


def test_gap_probe_tie_prefers_lower_interval():
    # dyadic bounds make both midpoint distances exactly 0.375
    strata = [make_stratum("a", (0.0, 0.25)), make_stratum("b", (0.75, 1.0))]
    got = assign_stratum(probe_ds(), probe_net(0.5), strata)
    assert got.id == "a"


def test_load_band_stratum_ignores_pool_order():
    a = make_stratum("a", (0.0, 0.25))
    b = make_stratum("b", (0.25, 0.5))
    c = make_stratum("c", (0.75, 1.0))
    for pool in ([a, b, c], [c, b, a]):
        assert load_band_stratum(pool, 0.25).id == "b"
        assert load_band_stratum(pool, 1.0).id == "c"
        # gap between b and c: both midpoints exactly 0.25 away, lower wins
        assert load_band_stratum(pool, 0.625).id == "b"
        assert load_band_stratum(pool, 0.7).id == "c"


def test_top_interval_contains_full_load():
    s = make_stratum("top", (0.6, 1.0))
    assert s.contains_load(1.0)
    assert s.contains_load(0.6)
    assert not s.contains_load(0.5)
    mid = make_stratum("mid", (0.2, 0.6))
    assert not mid.contains_load(0.6)   # half-open below the top band


def test_stratum_roundtrip_and_sibling_key():
    # through JSON text, as the strata artifact holds them
    s = make_stratum("x", (0.0, 0.5))
    back = Stratum.from_dict(json.loads(json.dumps(s.as_dict())))
    assert back == s
    assert back.centroids == s.centroids   # Stratum.__eq__ ignores centroids
    s.as_dict()["centroids"]["tier1"] = (0.9,)
    assert s.centroids["tier1"] == (0.5,)
    assert s.sibling_key == ("net0", "data0", "a->b/link0")
    config = StratifyConfig(tier2_cut=0.1, load_band_k=0.5)
    assert StratifyConfig.from_dict(json.loads(json.dumps(config.as_dict()))) == config


def test_stratify_rejects_empty_input():
    with pytest.raises(ClusterError):
        stratify([])


def test_tier2_vector_uses_configured_features(stratify_config):
    ds = DATASET_CLASSES["small"]
    vec = tier2_vector(ds, stratify_config)
    assert len(vec) == 4
    assert all(0.0 <= v <= 1.0 for v in vec)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(loads=st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
                      min_size=1, max_size=12))
@example(loads=[0.2, 0.9, 0.95, 1.0, 1.0])   # b2 clamps to full load
def test_each_member_load_picks_its_own_stratum_among_siblings(loads):
    # one configuration on one route, so strata differ in load only
    entries = [TransferLogEntry(
        params=ParamConfig(8, 2300, 16, 8, 8), dataset=DATASET_CLASSES["small"],
        network=NetworkMeta("uc", "tacc", 1e4, 32.0, load),
        throughput_mbps=1000.0, energy_joules=100.0, avg_power_watts=10.0,
        duration_s=10.0, timestamp_s=float(i)) for i, load in enumerate(loads)]
    strata = stratify(entries)
    assert_is_partition(len(entries), strata)
    for s in strata:
        siblings = [t for t in strata if t.sibling_key == s.sibling_key]
        for i in s.members:
            assert load_band_stratum(siblings, loads[i]).id == s.id, (i, loads[i])


def test_stratify_rejects_loads_outside_the_unit_interval():
    entries = random_corpus(np.random.default_rng(3))
    bad = dataclasses.replace(entries[0].network, ext_load=1.5)
    entries[0] = dataclasses.replace(entries[0], network=bad)
    with pytest.raises(ClusterError, match=r"ext_load must be in \[0, 1\]"):
        stratify(entries)


def test_contains_load_on_an_array_matches_each_scalar():
    loads = np.array([0.0, 0.2, 0.59, 0.6, 0.99, 1.0])
    for interval in ((0.0, 0.2), (0.2, 0.6), (0.6, 1.0), (0.3, 0.3)):
        s = make_stratum("x", interval)
        assert s.contains_load(loads).tolist() == [bool(s.contains_load(float(x)))
                                                   for x in loads]


# -- the per-entry stratify that the column stratify replaced ------------------------
#
# Test-only oracle: stratify as it was before it ran on LogTable columns,
# tier vectors as tuples of FeatureSpec.normalize values per entry, grouping
# through dicts keyed by vector and route, centroids as the mean of the
# sorted tuples.


def legacy_cluster_by_vectors(vectors, indices, cut):
    by_vec = {}
    for vec, idx in zip(vectors, indices):
        by_vec.setdefault(vec, []).append(idx)
    uniq = sorted(by_vec)
    if len(uniq) == 1:
        return [sorted(by_vec[uniq[0]])]
    pts = np.array(uniq, dtype=float)
    weights = np.array([len(by_vec[u]) for u in uniq], dtype=float)
    dend = clustering._upgma(pts, weights)
    out = []
    for cl in cut_dendrogram(dend, cut):
        members = []
        for u in sorted(cl):
            members.extend(by_vec[uniq[u]])
        out.append(sorted(members))
    return out


def legacy_stratify(entries, config):
    t1 = [clustering.tier1_vector(e.network, config) for e in entries]
    t2 = [tier2_vector(e.dataset, config) for e in entries]
    t3 = [clustering.tier3_vector(e.network, config) for e in entries]
    pending = []
    groups1 = legacy_cluster_by_vectors(t1, list(range(len(entries))), config.tier1_cut)
    for i1, g1 in enumerate(groups1):
        groups2 = legacy_cluster_by_vectors([t2[i] for i in g1], g1, config.tier2_cut)
        for i2, g2 in enumerate(groups2):
            loads = np.sort([entries[i].network.ext_load for i in g2])
            mean, std = float(loads.mean()), float(loads.std())
            b1 = min(max(mean - config.load_band_k * std, 0.0), 1.0)
            b2 = min(max(mean + config.load_band_k * std, 0.0), 1.0)
            bounds = [(0.0, b1), (b1, b2), (b2, 1.0)]
            buckets = [[], [], []]
            for i in g2:
                # the first band holding x, the top band closed at full load
                x = entries[i].network.ext_load
                buckets[next(b for b, (lo, hi) in enumerate(bounds)
                             if lo <= x < hi or x == hi == 1.0)].append(i)
            for b, members in enumerate(buckets):
                by_route = {}
                for i in members:
                    by_route.setdefault(entries[i].network.route, []).append(i)
                for route in sorted(by_route):
                    g3 = by_route[route]
                    groups3 = legacy_cluster_by_vectors([t3[i] for i in g3], g3,
                                                        config.tier3_cut)
                    for i3, members3 in enumerate(groups3):
                        pending.append((f"net{i1}", f"data{i2}",
                                        f"{route[0]}->{route[1]}/link{i3}", route,
                                        bounds[b], members3))
    strata = []
    for n, (key1, key2, key3, route, interval, members) in enumerate(pending):
        strata.append(Stratum(
            id=f"s{n:03d}", tier1_key=key1, tier2_key=key2, tier3_key=key3,
            route=route, ext_load_interval=interval, members=tuple(members),
            centroids={"tier1": tuple(np.mean(sorted(t1[i] for i in members), axis=0)),
                       "tier2": tuple(np.mean(sorted(t2[i] for i in members), axis=0)),
                       "tier3": tuple(np.mean(sorted(t3[i] for i in members), axis=0))}))
    return strata


def multiroute_corpus(seed):
    specs = [simulator.ENDPOINTS[n] for n in ("chameleon", "cloudlab", "intercloud")]
    return simulator.generate_training_logs(
        specs=specs, classes={"small": DATASET_CLASSES["small"]}, noise=0.02, seed=seed)


def ragged_corpus(seed):
    specs = [simulator.ENDPOINTS[n] for n in ("chameleon", "cloudlab")]
    return simulator.generate_training_logs(specs=specs, sweeps=2, noise=0.02, seed=seed)


CORPORA = {"jittered": lambda seed: jittered_corpus(seed, 400),
           "multiroute": multiroute_corpus,
           "ragged": ragged_corpus,
           "random": lambda seed: random_corpus(np.random.default_rng(seed), n_routes=3)}


@pytest.mark.parametrize("drop", [0.0, 0.1, 0.25])
@pytest.mark.parametrize("kind", sorted(CORPORA))
def test_stratify_matches_legacy_stratify(kind, drop):
    entries = CORPORA[kind](seed=7)
    rng = np.random.default_rng(int(drop * 100))
    entries = [e for e in entries if rng.random() >= drop]
    for config in (StratifyConfig(), StratifyConfig(tier1_cut=0.01, tier3_cut=0.0),
                   StratifyConfig(tier2_features=())):
        want = [s.as_dict() for s in legacy_stratify(entries, config)]
        assert [s.as_dict() for s in stratify(entries, config)] == want
        table = LogTable.from_entries(entries)
        assert [s.as_dict() for s in stratify(table, config)] == want
