"""Hierarchical clustering and three-tier stratification of transfer logs.

Strata group historical transfers that behaved alike: tier 1 clusters on
external network conditions (load, bandwidth), tier 2 on dataset shape, then
each tier-2 group is split into external-load intervals around the mean, and
tier 3 pins the exact route and clusters residual link characteristics.
Clustering is agglomerative with unweighted average linkage (UPGMA) and
deterministic lexicographic tie-breaking. It runs Müllner's "generic"
algorithm (arXiv:1109.2378) on one in-place distance matrix with a cached
nearest neighbour per cluster: O(n^2) time when a merge invalidates few
cached neighbours, as on transfer-log features (O(n^3) in the worst case),
with the same merges and bit-identical linkage distances as the textbook
loop that rescans the whole matrix after every merge. Memory is that one
n x n matrix plus BLOCK_ROWS x n scratch: the distances are filled, and the
neighbour cache seeded, one block of rows at a time.

In stratify, n is the number of occupied cells of a grid whose pitch is the
tier's cut / SNAP_STEPS, not the number of entries: a log with a continuous
ext_load has as many distinct tier vectors as entries, but however long it
grows its vectors occupy at most (SNAP_STEPS / cut + 1)^d cells of the unit
cube, and a few hundred on a load jittered by +-0.02 at the default cut.

stratify runs on the numpy columns of a LogTable: each tier's normalised
feature values are computed once per distinct raw value of each column with
the scalar FeatureSpec.normalize, entries are grouped by vector, load band
and route code with array masks, and centroids are means of the
lexicographically sorted raw rows, so the strata equal those of the
per-entry loop bit for bit wherever no grid cell holds two distinct vectors
of a tier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .logs import (DatasetMeta, LogTable, NetworkMeta, _is_num, as_log_table,
                   lex_order, unique_rows)


class ClusterError(ValueError):
    pass


class UnknownRouteError(ClusterError):
    """Probe route has no stratum with a matching (source_id, dest_id)."""


@dataclass(frozen=True)
class FeatureSpec:
    """One feature axis with its normalization range and scale."""

    name: str
    lo: float
    hi: float
    log_scale: bool = False

    def __post_init__(self):
        if not (_is_num(self.lo) and _is_num(self.hi) and self.lo < self.hi):
            raise ClusterError(f"feature {self.name}: lo and hi must be finite, lo < hi")
        if not isinstance(self.log_scale, bool):
            raise ClusterError(f"feature {self.name}: log_scale must be true or false")
        if self.log_scale and self.lo <= 0:
            raise ClusterError(f"feature {self.name}: log-scale lo must be > 0")

    def normalize(self, value: float) -> float:
        if self.log_scale:
            v = math.log10(max(value, self.lo))
            lo, hi = math.log10(self.lo), math.log10(self.hi)
        else:
            v, lo, hi = value, self.lo, self.hi
        x = (v - lo) / (hi - lo)
        return min(max(x, 0.0), 1.0)

    def as_dict(self) -> dict:
        return {"name": self.name, "lo": self.lo, "hi": self.hi, "log_scale": self.log_scale}


@dataclass(frozen=True)
class Merge:
    a: int          # smaller cluster id
    b: int          # larger cluster id
    distance: float
    new_id: int


@dataclass(frozen=True)
class Dendrogram:
    """Merge history of an agglomerative clustering run.

    Leaves are numbered 0..leaf_count-1 in input order; each merge creates the
    next integer id. Linkage distances are non-decreasing.
    """

    leaf_count: int
    merges: tuple[Merge, ...]

    def __post_init__(self):
        if len(self.merges) != max(self.leaf_count - 1, 0):
            raise ClusterError("dendrogram must contain leaf_count - 1 merges")
        last = -math.inf
        for m in self.merges:
            if m.distance < last - 1e-12:
                raise ClusterError("linkage distances must be non-decreasing")
            last = max(last, m.distance)


# rows per block of the distance fill and the neighbour seed: their scratch
# buffers are BLOCK_ROWS x n, small beside the one n x n matrix
BLOCK_ROWS = 64


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of the rows of points.

    The one n x n result is filled in blocks of BLOCK_ROWS rows. Squared
    differences are summed one axis at a time in two block-sized buffers
    instead of an n x n x d temporary. Summing in axis order is what numpy's
    reduction of an axis shorter than eight does, so for d < 8 the values
    equal the broadcast form's bit for bit (stratum bytes depend on them).
    """
    n, dim = points.shape
    out = np.empty((n, n))
    acc = np.empty((min(n, BLOCK_ROWS), n))
    buf = np.empty_like(acc)
    cols = points.T
    for r0 in range(0, n, BLOCK_ROWS):
        r1 = min(r0 + BLOCK_ROWS, n)
        a, b = acc[:r1 - r0], buf[:r1 - r0]
        a.fill(0.0)
        for col in cols:
            np.subtract.outer(col[r0:r1], col, out=b)
            np.multiply(b, b, out=b)
            a += b
        np.sqrt(a, out=out[r0:r1])
    return out


def _argmin_by_id(values: np.ndarray, ids: np.ndarray) -> tuple[int, float]:
    """Slot of the smallest value, ties broken toward the smallest cluster id."""
    x = int(values.argmin())
    best = values[x]
    if np.count_nonzero(values == best) > 1:
        tied = np.flatnonzero(values == best)
        x = int(tied[ids[tied].argmin()])
    return x, float(best)


def _upgma(points: np.ndarray, weights: np.ndarray) -> Dendrogram:
    # Each merge joins the pair with the lexicographically smallest
    # (distance, id_a, id_b), id_a < id_b. Clusters live in slots of one
    # n x n matrix: the merged cluster takes over slot i of its smaller id and
    # slot j dies. Every live slot caches its nearest live partner among
    # clusters with a larger id (ties toward the smaller id), so the next
    # merge is the cached minimum with the smallest id_a, an O(n) scan. At
    # the start ids equal slots, so the cache is seeded a block of rows at a
    # time from the strict upper triangle, where argmin's first minimum is
    # the smallest tied id. A merge changes only the distances to the new
    # cluster, whose id is the largest yet: rows whose partner was i or j
    # rescan, every other row just adopts the new cluster if it is strictly
    # closer. The row update is the size-weighted mean of the two parts'
    # rows, in the same float order as the full-rescan loop, so the
    # distances match it bit for bit. A distance that overflowed to inf
    # makes the merge that first joins its two points inf, and that raises:
    # with every cached distance inf, a tie could name a dead slot.
    n = len(points)
    if n == 1:
        return Dendrogram(1, ())
    dist = _pairwise_distances(points)
    sizes = np.array(weights, dtype=float)
    ids = np.arange(n)
    alive = np.ones(n, dtype=bool)
    nn = np.full(n, -1)
    nn_dist = np.full(n, np.inf)
    for r0 in range(0, n - 1, BLOCK_ROWS):
        r1 = min(r0 + BLOCK_ROWS, n - 1)
        block = np.where(ids > ids[r0:r1, None], dist[r0:r1], np.inf)
        nn[r0:r1] = block.argmin(axis=1)
        nn_dist[r0:r1] = block.min(axis=1)

    def rescan(x):
        row = np.where(ids > ids[x], dist[x], np.inf)
        nn[x], nn_dist[x] = _argmin_by_id(row, ids)

    merges = []
    for new_id in range(n, 2 * n - 1):
        i, d = _argmin_by_id(nn_dist, ids)
        if not d < math.inf:
            raise ClusterError("linkage distances overflow: points are too far apart")
        j = int(nn[i])
        merges.append(Merge(int(ids[i]), int(ids[j]), d, new_id))
        si, sj = sizes[i], sizes[j]
        # average linkage: size-weighted mean of distances to the two parts
        row = (si * dist[i] + sj * dist[j]) / (si + sj)
        dist[i] = row
        dist[:, i] = row
        sizes[i] = si + sj
        ids[i], ids[j] = new_id, -1
        alive[j] = False
        # slot i has the largest id, so no partner; dead slots point nowhere
        nn[i] = nn[j] = -1
        nn_dist[i] = nn_dist[j] = np.inf
        stale = nn == i
        stale |= nn == j
        closer = row < nn_dist
        closer &= alive
        closer[i] = False
        np.copyto(nn, i, where=closer)
        np.copyto(nn_dist, row, where=closer)
        # a stale row that was also closer is overwritten by its rescan
        for x in np.flatnonzero(stale):
            rescan(x)
    return Dendrogram(n, tuple(merges))


def upgma_cluster(points) -> Dendrogram:
    """Cluster points (sequence of equal-length feature rows) by UPGMA.

    Ties in the minimum linkage distance break toward the smallest
    (id_a, id_b) pair.
    """
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ClusterError(f"points must be a rectangular array of numbers: {exc}") from exc
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ClusterError(f"points must be 1-D or 2-D, got {arr.ndim}-D")
    if arr.size == 0:
        raise ClusterError("need at least one point")
    if not np.all(np.isfinite(arr)):
        raise ClusterError("points must be finite")
    # a distance that overflows raises ClusterError from _upgma instead
    with np.errstate(over="ignore"):
        return _upgma(arr, np.ones(len(arr)))


def cut_dendrogram(dend: Dendrogram, threshold: float) -> list[set[int]]:
    """Flat clusters after removing merges above threshold.

    Returns leaf-index sets ordered by smallest member.
    """
    if not math.isfinite(threshold) or threshold < 0:
        raise ClusterError("threshold must be finite and >= 0")
    total = dend.leaf_count + len(dend.merges)
    parent = list(range(total))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in dend.merges:
        if m.distance <= threshold:
            ra, rb, rn = find(m.a), find(m.b), find(m.new_id)
            parent[ra] = rn
            parent[rb] = rn
    groups: dict[int, set[int]] = {}
    for leaf in range(dend.leaf_count):
        groups.setdefault(find(leaf), set()).add(leaf)
    return sorted(groups.values(), key=min)


TIER1_DEFAULT = (
    FeatureSpec("ext_load", 0.0, 1.0),
    FeatureSpec("bandwidth_mbps", 1.0, 1e5, log_scale=True),
)
TIER2_DEFAULT = (
    FeatureSpec("num_files", 1.0, 1e5, log_scale=True),
    FeatureSpec("total_size_bytes", 1e4, 1e12, log_scale=True),
    FeatureSpec("avg_file_size_bytes", 1e3, 1e9, log_scale=True),
    FeatureSpec("file_size_stddev_bytes", 1e3, 1e9, log_scale=True),
)
TIER3_DEFAULT = (
    FeatureSpec("bandwidth_mbps", 1.0, 1e5, log_scale=True),
    FeatureSpec("rtt_ms", 0.1, 1e3, log_scale=True),
)
# the fields each tier may cluster on; tiers 1 and 3 read NetworkMeta
TIER_FEATURE_NAMES = {"tier1": ("ext_load", "bandwidth_mbps"),
                      "tier2": tuple(f.name for f in fields(DatasetMeta)),
                      "tier3": ("bandwidth_mbps", "rtt_ms")}


@dataclass(frozen=True)
class StratifyConfig:
    tier1_features: tuple[FeatureSpec, ...] = TIER1_DEFAULT
    tier2_features: tuple[FeatureSpec, ...] = TIER2_DEFAULT
    tier3_features: tuple[FeatureSpec, ...] = TIER3_DEFAULT
    tier1_cut: float = 0.25
    tier2_cut: float = 0.25
    tier3_cut: float = 0.25
    load_band_k: float = 1.0   # interval boundaries at mean +- k * stddev

    def __post_init__(self):
        for tier, known in TIER_FEATURE_NAMES.items():
            for f in getattr(self, f"{tier}_features"):
                if f.name not in known:
                    raise ClusterError(
                        f"{tier}_features: unknown feature {f.name!r}; "
                        f"have {', '.join(known)}")
            cut = getattr(self, f"{tier}_cut")
            if not (_is_num(cut) and cut >= 0):
                raise ClusterError(f"{tier}_cut must be a finite number >= 0")
        if not (_is_num(self.load_band_k) and self.load_band_k >= 0):
            raise ClusterError("load_band_k must be a finite number >= 0")

    def as_dict(self) -> dict:
        return {
            "tier1_features": [f.as_dict() for f in self.tier1_features],
            "tier2_features": [f.as_dict() for f in self.tier2_features],
            "tier3_features": [f.as_dict() for f in self.tier3_features],
            "tier1_cut": self.tier1_cut,
            "tier2_cut": self.tier2_cut,
            "tier3_cut": self.tier3_cut,
            "load_band_k": self.load_band_k,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "StratifyConfig":
        if not isinstance(obj, dict):
            raise ClusterError("stratify config must be a JSON object")
        for f in fields(cls):
            if f.name not in obj:
                raise ClusterError(f"stratify config is missing key {f.name!r}")

        def specs(key):
            try:
                return tuple(FeatureSpec(**d) for d in obj[key])
            except TypeError as exc:
                raise ClusterError(f"{key}: malformed feature: {exc}") from exc
            except ClusterError as exc:
                raise ClusterError(f"{key}: {exc}") from exc
        return cls(
            tier1_features=specs("tier1_features"),
            tier2_features=specs("tier2_features"),
            tier3_features=specs("tier3_features"),
            tier1_cut=obj["tier1_cut"],
            tier2_cut=obj["tier2_cut"],
            tier3_cut=obj["tier3_cut"],
            load_band_k=obj["load_band_k"],
        )


def tier1_vector(net: NetworkMeta, config: StratifyConfig) -> tuple[float, ...]:
    return tuple(f.normalize(getattr(net, f.name)) for f in config.tier1_features)


def tier2_vector(ds: DatasetMeta, config: StratifyConfig) -> tuple[float, ...]:
    return tuple(f.normalize(getattr(ds, f.name)) for f in config.tier2_features)


def tier3_vector(net: NetworkMeta, config: StratifyConfig) -> tuple[float, ...]:
    return tuple(f.normalize(getattr(net, f.name)) for f in config.tier3_features)


def _in_load_band(interval: tuple[float, float], x):
    """Whether load x (a float, or elementwise an array) is in the
    half-open interval, the top band closed at full load."""
    lo, hi = interval
    return ((lo <= x) & (x < hi)) | ((x == hi) & (hi == 1.0))


@dataclass(frozen=True)
class Stratum:
    """One leaf of the stratification: a homogeneous group of log entries."""

    # the shape of as_dict() that the artifact reader checks (see
    # xfertune.pipeline)
    SHAPE = {"id": str, "tier1_key": str, "tier2_key": str, "tier3_key": str,
             "route": [str], "ext_load_interval": [(int, float)], "members": list,
             "centroids": dict.fromkeys(TIER_FEATURE_NAMES, [(int, float)])}

    id: str
    tier1_key: str
    tier2_key: str
    tier3_key: str
    route: tuple[str, str]
    ext_load_interval: tuple[float, float]
    members: tuple[int, ...]
    centroids: dict = field(hash=False, compare=False, default_factory=dict)

    def contains_load(self, x):
        return _in_load_band(self.ext_load_interval, x)

    @property
    def sibling_key(self) -> tuple[str, str, str]:
        return (self.tier1_key, self.tier2_key, self.tier3_key)

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "tier1_key": self.tier1_key,
            "tier2_key": self.tier2_key,
            "tier3_key": self.tier3_key,
            "route": list(self.route),
            "ext_load_interval": list(self.ext_load_interval),
            "members": list(self.members),
            "centroids": {k: list(v) for k, v in self.centroids.items()},
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Stratum":
        return cls(
            id=obj["id"],
            tier1_key=obj["tier1_key"],
            tier2_key=obj["tier2_key"],
            tier3_key=obj["tier3_key"],
            route=tuple(obj["route"]),
            ext_load_interval=tuple(obj["ext_load_interval"]),
            members=tuple(obj["members"]),
            centroids={k: tuple(v) for k, v in obj["centroids"].items()},
        )


# grid steps per cut: stratify clusters a tier's vectors on the cells of a
# grid of pitch cut / SNAP_STEPS, which moves every linkage distance by less
# than 2% of the cut in up to four dimensions
SNAP_STEPS = 256


def _grid_cells(rows: np.ndarray, cut: float) -> np.ndarray:
    """The grid cell of each row (coordinates in [0, 1], so no cell number
    overflows), as the row's coordinates in units of the pitch cut /
    SNAP_STEPS rounded to integers; the rows themselves when the cut is 0
    or so small that the grid's scale overflows."""
    with np.errstate(divide="ignore", over="ignore"):
        scale = SNAP_STEPS / np.float64(cut)
    if not (cut > 0 and np.isfinite(scale)):
        return rows
    return np.round(rows * scale)


def _cluster_by_vectors(vectors, indices, cut: float) -> list[np.ndarray]:
    """Cluster entries by their feature vectors (coordinates in [0, 1]) over
    the occupied cells of a grid of pitch cut / SNAP_STEPS.

    vectors holds one row per entry of indices (ascending entry indices).
    UPGMA runs over the occupied cells, each weighted by its entries and
    placed at the mean of its distinct vectors: identical points would merge
    pairwise at distance zero first, after which average linkage over the
    multiset equals that weighted linkage. A cell holding one distinct
    vector is exact. Otherwise a vector and its cell's point differ by at
    most the pitch in each coordinate, so a pairwise distance, and with it
    every average-linkage distance, moves by at most 2 sqrt(d) cut /
    SNAP_STEPS in d dimensions. A cut of 0 is exact: no cell holds two
    distinct vectors, so they never merge. Returns arrays of entry indices,
    ascending, ordered by smallest member vector as sorted() orders tuples.
    """
    indices = np.asarray(indices)
    points, inverse, counts = unique_rows(np.asarray(vectors, dtype=float))
    cells, cell_of, _ = unique_rows(_grid_cells(points, cut))
    if len(cells) < len(points):
        # number the cells in the order of their first distinct vector, which
        # is lexicographic, and place each at the mean of its distinct vectors
        first = np.unique(cell_of, return_index=True)[1]
        cell_of = np.argsort(np.argsort(first))[cell_of]
        points = np.array([np.bincount(cell_of, weights=col) for col in points.T]).T
        points /= np.bincount(cell_of)[:, None]
        inverse, counts = cell_of[inverse], np.bincount(cell_of, weights=counts)
    if len(points) == 1:
        return [indices]
    dend = _upgma(np.ascontiguousarray(points), counts.astype(float))
    # ordered by smallest point index, so by smallest member vector
    clusters = cut_dendrogram(dend, cut)
    label = np.empty(len(points), dtype=np.int64)
    for k, cl in enumerate(clusters):
        label[sorted(cl)] = k
    of_entry = label[inverse]
    order = np.argsort(of_entry, kind="stable")
    return np.split(indices[order], np.cumsum(np.bincount(of_entry))[:-1])


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _tier_vectors(table: LogTable, features) -> np.ndarray:
    """Every entry's normalised feature row, one FeatureSpec.normalize call
    per distinct value of each column (math.log10, not np.log10, so the bits
    match)."""
    out = np.empty((len(table), len(features)))
    for k, f in enumerate(features):
        values, inverse = np.unique(np.asarray(getattr(table, f.name), dtype=float),
                                    return_inverse=True)
        out[:, k] = np.array([f.normalize(v) for v in values.tolist()])[inverse]
    return out


def _centroid(rows: np.ndarray) -> tuple:
    """Mean of the rows taken in lexicographic order, as the mean of the
    sorted tuples was, so the float sum runs in the same order."""
    return tuple(np.mean(rows[lex_order(rows)], axis=0))


def stratify(entries, config: StratifyConfig | None = None) -> list[Stratum]:
    """Partition log entries (a LogTable or a list of TransferLogEntry)
    into strata.

    Every entry lands in exactly one stratum; the result is independent of
    input order up to renumbering of entry indices.
    """
    if not len(entries):
        raise ClusterError("no entries to stratify")
    table = as_log_table(entries)
    if not np.all((table.ext_load >= 0.0) & (table.ext_load <= 1.0)):
        raise ClusterError("ext_load must be in [0, 1]")
    config = config or StratifyConfig()
    # each entry's tier vectors, computed once for clustering and centroids
    t1 = _tier_vectors(table, config.tier1_features)
    t2 = _tier_vectors(table, config.tier2_features)
    t3 = _tier_vectors(table, config.tier3_features)
    pending: list[tuple] = []

    groups1 = _cluster_by_vectors(t1, np.arange(len(table)), config.tier1_cut)
    for i1, g1 in enumerate(groups1):
        key1 = f"net{i1}"
        groups2 = _cluster_by_vectors(t2[g1], g1, config.tier2_cut)
        for i2, g2 in enumerate(groups2):
            key2 = f"data{i2}"
            # sorted so the band edges do not depend on entry order
            x = table.ext_load[g2]
            loads = np.sort(x)
            mean, std = float(loads.mean()), float(loads.std())
            b1 = _clamp01(mean - config.load_band_k * std)
            b2 = _clamp01(mean + config.load_band_k * std)
            # each entry goes to the first band that contains its load, so
            # when b2 clamps to full load, loads of 1.0 stay in (b1, 1.0)
            unplaced = np.ones(len(x), dtype=bool)
            for interval in [(0.0, b1), (b1, b2), (b2, 1.0)]:
                inside = unplaced & _in_load_band(interval, x)
                unplaced &= ~inside
                members = g2[inside]
                routes = table.route[members]
                for code in np.unique(routes):
                    route = table.routes[code]
                    g3 = members[routes == code]
                    groups3 = _cluster_by_vectors(t3[g3], g3, config.tier3_cut)
                    for i3, members3 in enumerate(groups3):
                        key3 = f"{route[0]}->{route[1]}/link{i3}"
                        pending.append((key1, key2, key3, route, interval, members3))
    strata = []
    for n, (key1, key2, key3, route, interval, members) in enumerate(pending):
        strata.append(Stratum(
            id=f"s{n:03d}", tier1_key=key1, tier2_key=key2, tier3_key=key3,
            route=route, ext_load_interval=interval, members=tuple(members.tolist()),
            centroids={"tier1": _centroid(t1[members]), "tier2": _centroid(t2[members]),
                       "tier3": _centroid(t3[members])},
        ))
    return strata


def _nearest_key(probe: tuple[float, ...], options: dict[str, tuple[float, ...]]) -> str:
    best_key, best_d = None, math.inf
    for key in sorted(options):
        c = options[key]
        d = math.dist(probe, c)
        if d < best_d:
            best_key, best_d = key, d
    return best_key


def assign_stratum(dataset: DatasetMeta, network: NetworkMeta,
                   strata: list[Stratum], config: StratifyConfig | None = None) -> Stratum:
    """Classify a probe transfer into the best-matching stratum.

    Filters to the probe's exact route, walks tiers by nearest centroid, then
    picks the load interval containing network.ext_load (nearest interval
    midpoint when none contains it, ties toward the lower interval).
    """
    if not strata:
        raise ClusterError("no strata")
    config = config or StratifyConfig()
    pool = [s for s in strata if s.route == network.route]
    if not pool:
        raise UnknownRouteError(
            f"no stratum for route {network.route[0]}->{network.route[1]}")

    for tier, vec in (("tier1", tier1_vector(network, config)),
                      ("tier2", tier2_vector(dataset, config)),
                      ("tier3", tier3_vector(network, config))):
        key_attr = f"{tier}_key"
        options = {}
        for s in pool:
            options.setdefault(getattr(s, key_attr), s.centroids[tier])
        key = _nearest_key(vec, options)
        pool = [s for s in pool if getattr(s, key_attr) == key]

    return load_band_stratum(pool, network.ext_load)


def load_band_stratum(pool: list[Stratum], load: float) -> Stratum:
    """The stratum of the pool whose load interval contains load, else the
    one with the nearest interval midpoint; in interval order, so ties go
    toward the lower interval."""
    pool = sorted(pool, key=lambda s: s.ext_load_interval)
    for s in pool:
        if s.contains_load(load):
            return s

    def midpoint_gap(s):
        lo, hi = s.ext_load_interval
        return abs(load - (lo + hi) / 2), lo

    return min(pool, key=midpoint_gap)
