"""Per-stratum performance models fitted from transfer logs.

Each stratum's energy and throughput are decomposed into three parameter
groups, (cpu_num, cpu_freq_mhz) and (cc, p) as bicubic splines and pp as a
1-D spline. A group is one model (GroupModel): one xfertune.spline.Spline
over the group's parameters, whatever their number, whose stack holds both
metrics, fitted on the slice of entries whose remaining parameters sit
at their modal values, so the three groups describe orthogonal cuts through
the same operating point. Fitting reads a LogTable: the modal value of each
parameter column is counted once per table, a slice is the rows a mask over
the parameter array selects, and a group's cell means of both metrics are
summed in slice order by np.bincount; the two metric grids share their
knots, so one stacked spline fit (one batched solve per axis) fits both.

The three slices cross at one anchor configuration, whose pp is the one the
(cpu_num, cpu_freq_mhz) group's conditioning fixes. The combined prediction
is the product of the three group values over the anchor value squared,
core * (app / anchor) * (pipe / anchor), where the anchor value is the pp
group's at that pp: it comes from the models, so nothing is stored for it.
A spline returns its grid value bit for bit on its knots, so on the knot
lattice a prediction is exactly this product of the group grids, and up
to rounding it reproduces a metric that is a product of one factor per
group. An anchor value that is not a positive finite number is refused
when fitting and when loading. Every prediction goes through
StratumModels.predict, which evaluates each group at the rows of a parameter
array and combines the groups, so a configuration gets the same bits alone
(predict_energy, predict_throughput), in the knot lattice
(lattice_predictions) and among the held-out rows. The holdout split draws
one permutation of the rows and trains on the first max(1, floor(0.7 *
count)) rows of each parameter tuple in that order; its RMSE scores that
prediction on every held-out row.

The artifact form of a stratum's models (as_dict) holds, per group, only
what the fit read: the conditioning, the knot axes and the two metric grids
on them. The coefficients are derived, so they are not stored: from_dict
refits each group through the same stacked fit as fitting does, which gives
the fitted coefficients bit for bit, and refuses knots or grids that the fit
cannot take or that no fit writes (knots not strictly increasing, or not
integers in [PARAM_MIN, 2**63), a grid that is not finite or does not match
the knots, a JSON true or false where a number belongs).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .logs import PARAM_MIN, PARAM_NAMES, LogTable, ParamConfig, as_log_table, unique_rows
from .spline import Spline, SplineError, fit_bicubic_surface, fit_natural_spline

PARAM_GROUPS: tuple[tuple[str, ...], ...] = (
    ("cpu_num", "cpu_freq_mhz"),
    ("cc", "p"),
    ("pp",),
)
METRICS = ("energy_joules", "throughput_mbps")
HOLDOUT_TRAIN_FRAC = 0.7


class SurfaceFitError(ValueError):
    pass


def _group_label(params: tuple[str, ...]) -> str:
    return "+".join(params)


def _modal_value(values):
    """Most frequent of the values (numbers, or rows of a 2-D array as
    tuples), ties toward the largest."""
    values = np.asarray(values)
    if values.ndim == 1:
        uniq, counts = np.unique(values, return_counts=True)
    else:
        uniq, _, counts = unique_rows(values)
    best = uniq[np.flatnonzero(counts == counts.max())[-1]]
    return tuple(best.tolist()) if values.ndim > 1 else best.item()


def _column_modes(params: np.ndarray) -> dict[str, int]:
    """Modal value of each parameter column of an n x 5 parameter array."""
    return {p: _modal_value(params[:, j]) for j, p in enumerate(PARAM_NAMES)}


def _conditioning(params: np.ndarray, group: tuple[str, ...],
                  modes: dict[str, int]) -> dict[str, int]:
    """Modal values of the parameters outside the group, ties toward largest.

    params is the n x 5 parameter array of a stratum's members and modes its
    _column_modes. If the marginal modes combine to an empty joint slice
    (possible on ragged logs), fall back to the most frequent full
    conditioning tuple.
    """
    others = [j for j, p in enumerate(PARAM_NAMES) if p not in group]
    names = [PARAM_NAMES[j] for j in others]
    cond = [modes[p] for p in names]
    if not _slice_mask(params, dict(zip(names, cond))).any():
        cond = _modal_value(params[:, others])
    return dict(zip(names, cond))


def _slice_mask(params: np.ndarray, cond: dict[str, int]) -> np.ndarray:
    """Rows of the parameter array whose parameters match the conditioning."""
    cols = [PARAM_NAMES.index(p) for p in cond]
    return (params[:, cols] == list(cond.values())).all(axis=1)


def _fill_grid(grid: np.ndarray) -> np.ndarray:
    """Fill NaN cells by 1-D linear interpolation along rows, then columns,
    repeating until stable; any still-missing cells take the known mean."""
    g = grid.copy()
    while np.isnan(g).any():
        before = int(np.isnan(g).sum())
        for axis_rows in (g, g.T):
            for row in axis_rows:
                known = ~np.isnan(row)
                if known.sum() >= 2 and (~known).any():
                    idx = np.arange(len(row))
                    row[~known] = np.interp(idx[~known], idx[known], row[known])
        remaining = np.isnan(g)
        if int(remaining.sum()) == before:
            if before == g.size:
                raise SurfaceFitError("no observations to fill grid from")
            g[remaining] = g[~remaining].mean()
    return g


def _group_grids(table: LogTable, rows: np.ndarray, group: tuple[str, ...]):
    """Knot axes of a group's slice (the table's rows, ascending) and the
    mean grids of the METRICS on them, stacked in METRICS order.

    The knots of each group parameter are its distinct values in the slice.
    A cell's mean is its observations summed left to right in slice order
    (np.bincount adds in index order; np.sum would reorder) over their
    count; cells the slice never visits are filled by _fill_grid.
    """
    params = table.params[rows]
    knots, cell_index = [], []
    for name in group:
        values, index = np.unique(params[:, PARAM_NAMES.index(name)],
                                  return_inverse=True)
        if len(values) < 2:
            raise SurfaceFitError(f"insufficient distinct {name} values in conditioning slice")
        knots.append(values.astype(float))
        cell_index.append(index.reshape(-1))
    shape = tuple(len(k) for k in knots)
    cell = np.ravel_multi_index(cell_index, shape)
    count = np.bincount(cell, minlength=math.prod(shape))
    grids = np.full((len(METRICS), len(count)), np.nan)
    for grid, metric in zip(grids, METRICS):
        total = np.bincount(cell, weights=getattr(table, metric)[rows],
                            minlength=len(count))
        np.divide(total, count, out=grid, where=count > 0)
    return knots, np.stack([_fill_grid(grid.reshape(shape)) for grid in grids])


@dataclass(frozen=True)
class GroupModel:
    """One parameter group's fitted model plus the slice it was fitted on:
    one spline over the group's parameters whose stack holds both metrics
    in METRICS order on the same knots."""

    params: tuple[str, ...]
    conditioning: dict
    spline: Spline

    @property
    def label(self) -> str:
        return _group_label(self.params)

    def values_at(self, params: np.ndarray) -> np.ndarray:
        """The METRICS models at each row of an n x 5 parameter array,
        stacked in METRICS order: shape (len(METRICS), n)."""
        return self.spline(*(params[:, PARAM_NAMES.index(p)].astype(float)
                             for p in self.params))

    def axis_values(self, name: str) -> tuple[int, ...]:
        return tuple(int(v) for v in self.spline.knots[self.params.index(name)])


def _group_model(group: tuple[str, ...], conditioning: dict, knots,
                 grids: np.ndarray) -> GroupModel:
    """A group's model from its knot axes and its METRICS grids stacked on
    them, in one stacked spline fit."""
    fit = fit_bicubic_surface if len(group) == 2 else fit_natural_spline
    return GroupModel(params=group, conditioning=conditioning, spline=fit(*knots, grids))


def _holds_bool(value) -> bool:
    """Whether a JSON value (nested lists) holds a true or false, which numpy
    would read as 1.0 or 0.0."""
    return isinstance(value, bool) or (isinstance(value, list)
                                       and any(map(_holds_bool, value)))


def _combine(parts, anchor):
    """The group values (in PARAM_GROUPS order) times each other over the
    anchor value squared, as core * (app / anchor) * (pipe / anchor); anchor
    holds one value per metric, shaped to broadcast with the parts.

    Dividing before multiplying keeps values of the anchor's magnitude from
    overflowing, and every element goes through the same float operations
    whatever the number of rows, so a configuration gets the same bits
    alone and in the lattice.
    """
    core, app, pipe = parts
    return core * (app / anchor) * (pipe / anchor)


@dataclass(frozen=True)
class StratumModels:
    """All fitted models for one stratum plus combined predictors."""

    # the shape of as_dict() that the artifact reader checks (see
    # xfertune.pipeline); from_dict checks the arrays itself
    SHAPE = {"stratum_id": str,
             "groups": {_group_label(group): {
                 "conditioning": {p: int for p in PARAM_NAMES if p not in group},
                 "knots": list, **dict.fromkeys(METRICS, list)}
                 for group in PARAM_GROUPS},
             "entry_count": int}

    stratum_id: str
    groups: tuple[GroupModel, ...]   # in PARAM_GROUPS order
    entry_count: int
    # the METRICS at the anchor configuration, derived from the groups
    anchor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        core, _, pipe = self.groups
        anchor = pipe.spline(float(core.conditioning["pp"]))
        for metric, value in zip(METRICS, anchor.tolist()):
            if not (math.isfinite(value) and value > 0.0):
                raise SurfaceFitError(f"stratum {self.stratum_id}: the anchor's {metric} "
                                      f"is {value!r}, not a positive finite number")
        object.__setattr__(self, "anchor", anchor)

    def predict(self, params: np.ndarray) -> np.ndarray:
        """Predicted METRICS at each row of an n x 5 parameter array (columns
        in PARAM_NAMES order), stacked in METRICS order: shape
        (len(METRICS), n). Every prediction the models make comes from here."""
        return _combine([g.values_at(params) for g in self.groups], self.anchor[:, None])

    def predict_energy(self, cfg: ParamConfig) -> float:
        return self.predict(np.array([attrgetter(*PARAM_NAMES)(cfg)], dtype=float))[0].item()

    def predict_throughput(self, cfg: ParamConfig) -> float:
        return self.predict(np.array([attrgetter(*PARAM_NAMES)(cfg)], dtype=float))[1].item()

    def lattice_predictions(self) -> tuple[dict, np.ndarray, np.ndarray]:
        """Lattice axes plus predicted energy and throughput on every lattice
        configuration, as arrays with one axis per parameter in PARAM_NAMES
        order."""
        axes = self.lattice_axes()
        mesh = np.meshgrid(*axes.values(), indexing="ij")
        energy, throughput = self.predict(np.stack(mesh, axis=-1).reshape(-1, len(mesh)))
        return axes, energy.reshape(mesh[0].shape), throughput.reshape(mesh[0].shape)

    def axis_values(self, name: str) -> tuple[int, ...]:
        for g in self.groups:
            if name in g.params:
                return g.axis_values(name)
        raise SurfaceFitError(f"unknown parameter {name}")

    def lattice_axes(self) -> dict:
        return {p: self.axis_values(p) for p in PARAM_NAMES}

    def as_dict(self) -> dict:
        """The artifact form: what each group's fit read, no coefficients."""
        groups = {g.label: {"conditioning": dict(g.conditioning),
                            "knots": [k.tolist() for k in g.spline.knots],
                            **dict(zip(METRICS, g.spline.grid.tolist()))}
                  for g in self.groups}
        return {
            "stratum_id": self.stratum_id,
            "groups": groups,
            "entry_count": self.entry_count,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "StratumModels":
        """The models as_dict stored, refitted as fit_stratum_models fits."""
        sid = obj["stratum_id"]
        groups = []
        for group in PARAM_GROUPS:
            label = _group_label(group)
            g = obj["groups"][label]
            try:
                for key in ("knots", *METRICS):
                    if _holds_bool(g[key]):
                        raise SurfaceFitError(f"{key} holds true or false, not a number")
                knots = [np.asarray(k, dtype=float) for k in g["knots"]]
                grids = np.asarray([g[metric] for metric in METRICS], dtype=float)
                if len(knots) != len(group) or grids.ndim != len(group) + 1:
                    raise SurfaceFitError(f"want {len(group)} knot axes and "
                                          f"{len(group)}-D grids")
                for name, ax in zip(group, knots):
                    if not np.all((ax == np.floor(ax)) & (ax >= PARAM_MIN[name]) & (ax < 2.0**63)):
                        raise SurfaceFitError(f"{name} knots {ax.tolist()} are not all "
                                              f"integers in [{PARAM_MIN[name]}, 2**63)")
                groups.append(_group_model(group, dict(g["conditioning"]), knots, grids))
            except (TypeError, ValueError, OverflowError) as exc:
                raise SurfaceFitError(f"stratum {sid}: group {label}: {exc}") from None
        return cls(stratum_id=sid, groups=tuple(groups), entry_count=obj["entry_count"])


def fit_stratum_models(members, stratum_id: str) -> StratumModels:
    """Fit the three group models on a stratum's member entries (a
    LogTable or a list of TransferLogEntry). A fit that fails raises
    SurfaceFitError naming the stratum, and the group whose slice failed."""
    if not len(members):
        raise SurfaceFitError(f"stratum {stratum_id}: no entries to fit")
    table = as_log_table(members)
    modes = _column_modes(table.params)
    groups = []
    for group in PARAM_GROUPS:
        cond = _conditioning(table.params, group, modes)
        rows = np.flatnonzero(_slice_mask(table.params, cond))
        try:
            groups.append(_group_model(group, cond, *_group_grids(table, rows, group)))
        except (SurfaceFitError, SplineError) as exc:
            raise SurfaceFitError(f"stratum {stratum_id}: group {_group_label(group)}: "
                                  f"{exc}") from None
    return StratumModels(stratum_id=stratum_id, groups=tuple(groups), entry_count=len(table))


def holdout_split(members, seed: int = 0) -> tuple[LogTable, LogTable]:
    """70/30 split stratified per observed parameter tuple, as two tables.

    One permutation of the rows orders each tuple's rows; the first
    max(1, floor(0.7 * count)) of them train, so the train rows hold every
    observed parameter tuple. The refit can still fail where the whole
    stratum fits: it takes the train rows' own modal conditioning, which
    can differ from the stratum's, so a group's conditioning slice can lack
    axis values (ROADMAP items 9 and 17).
    """
    if not len(members):
        raise SurfaceFitError("no entries to split")
    table = as_log_table(members)
    perm = np.random.default_rng(seed).permutation(len(table))
    _, inverse, counts = unique_rows(table.params)
    # rows grouped by tuple, in permutation order within a tuple
    order = perm[np.argsort(inverse[perm], kind="stable")]
    rank = np.empty(len(table), dtype=np.int64)
    rank[order] = np.arange(len(table)) - np.repeat(np.cumsum(counts) - counts, counts)
    n_train = np.maximum(1, np.floor(HOLDOUT_TRAIN_FRAC * counts).astype(np.int64))
    train = rank < n_train[inverse]
    return table.take(np.flatnonzero(train)), table.take(np.flatnonzero(~train))


def rmse_holdout(members, stratum_id: str, seed: int = 0) -> dict:
    """Fit on a stratified train split and score the combined predictor on
    every held-out row: energy_rmse and throughput_rmse (None when no row is
    held out) next to the split sizes. A refit the train rows cannot support
    raises SurfaceFitError saying so, with the stratum's fit error."""
    train, test = holdout_split(members, seed=seed)
    try:
        models = fit_stratum_models(train, stratum_id)
    except SurfaceFitError as exc:
        raise SurfaceFitError(f"holdout refit on {len(train)} of {len(train) + len(test)} "
                              f"rows of {exc}") from exc
    rmse = [None] * len(METRICS)
    if len(test):
        logged = np.stack([getattr(test, metric) for metric in METRICS])
        rmse = np.sqrt(np.mean(np.square(models.predict(test.params) - logged),
                               axis=1)).tolist()
    return {
        "energy_rmse": rmse[0],
        "throughput_rmse": rmse[1],
        "train_count": len(train),
        "test_count": len(test),
    }
