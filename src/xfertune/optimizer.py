"""SLA-constrained parameter selection on fitted stratum models.

An SLA either caps predicted energy (maximize throughput under the cap) or
guarantees predicted throughput (minimize energy above the floor). The
optimizer scores the full knot lattice at once: the stratum's models predict
energy and throughput for every lattice configuration in one call, as arrays
over the whole lattice, infeasible cells are masked out, and the first best
cell in lexicographic lattice order wins. A parameter table evaluates
each stratum's lattice once and selects every SLA's row from those arrays.

Critical points of a single fitted spline (Newton search in each cell's
local coordinates plus Hessian classification, with knot derivatives read
from the cell coefficients) are an analysis utility: a stationary point
between knots is not a deployable configuration, so it never takes part in
the selection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .logs import PARAM_NAMES, ParamConfig
from .spline import Spline
from .surfaces import StratumModels

NEWTON_MAX_ITER = 50
NEWTON_GRAD_TOL = 1e-10
EIGEN_TOL = 1e-9
DEDUPE_TOL = 1e-8

KIND_ENERGY_CAP = "energy-constrained"
KIND_THROUGHPUT_FLOOR = "throughput-guarantee"


class SLAError(ValueError):
    pass


class InfeasibleSLAError(Exception):
    """No lattice configuration satisfies the SLA under the fitted models."""

    def __init__(self, stratum_id: str, sla_id: str, reason: str):
        super().__init__(f"sla {sla_id} infeasible in stratum {stratum_id}: {reason}")
        self.stratum_id = stratum_id
        self.sla_id = sla_id
        self.reason = reason


@dataclass(frozen=True)
class SLA:
    """Service-level agreement: one bound, one objective.

    energy-constrained: predicted energy <= bound, maximize throughput.
    throughput-guarantee: predicted throughput >= bound, minimize energy.
    The extreme presets (bound=inf cap, bound=0 floor) express the pure
    max-throughput and min-energy objectives.
    """

    # the shape of as_dict() that the artifact reader checks (see
    # xfertune.pipeline)
    SHAPE = {"id": str, "kind": str, "bound": (int, float, str)}

    id: str
    kind: str
    bound: float

    def __post_init__(self):
        if self.kind not in (KIND_ENERGY_CAP, KIND_THROUGHPUT_FLOOR):
            raise SLAError(f"unknown sla kind: {self.kind}")
        if math.isnan(self.bound) or self.bound < 0:
            raise SLAError("sla bound must be a number >= 0")
        if self.kind == KIND_ENERGY_CAP and self.bound == 0:
            raise SLAError("energy cap must be > 0")
        if self.kind == KIND_THROUGHPUT_FLOOR and math.isinf(self.bound):
            raise SLAError("throughput floor must be finite")

    @classmethod
    def max_throughput(cls) -> "SLA":
        return cls(id="max-tput", kind=KIND_ENERGY_CAP, bound=math.inf)

    @classmethod
    def min_energy(cls) -> "SLA":
        return cls(id="min-energy", kind=KIND_THROUGHPUT_FLOOR, bound=0.0)

    def as_dict(self) -> dict:
        return {"id": self.id, "kind": self.kind,
                "bound": "inf" if math.isinf(self.bound) else self.bound}

    @classmethod
    def from_dict(cls, obj: dict) -> "SLA":
        bound = obj["bound"]
        return cls(id=obj["id"], kind=obj["kind"],
                   bound=math.inf if bound == "inf" else float(bound))


@dataclass(frozen=True)
class CriticalPoint:
    coords: tuple[float, ...]
    value: float
    kind: str                    # min | max | saddle | flat | boundary
    stationary: bool


def _classify_1d(s2: float) -> str:
    tol = EIGEN_TOL * max(1.0, abs(s2))
    if s2 > tol:
        return "min"
    if s2 < -tol:
        return "max"
    return "flat"


def _classify_2d(fxx: float, fxy: float, fyy: float) -> str:
    # closed-form eigenvalues of the symmetric 2x2 Hessian
    mean = 0.5 * (fxx + fyy)
    r = math.hypot(0.5 * (fxx - fyy), fxy)
    lo, hi = mean - r, mean + r
    tol = EIGEN_TOL * max(1.0, math.hypot(math.hypot(fxx, fyy), math.sqrt(2.0) * abs(fxy)))
    if lo > tol:
        return "min"
    if hi < -tol:
        return "max"
    if lo < -tol and hi > tol:
        return "saddle"
    return "flat"


def _pow_vec(u: float, order: int) -> np.ndarray:
    """The order-th derivative of the local basis row [1, u, u^2, u^3]."""
    if order == 0:
        return np.array([1.0, u, u * u, u ** 3])
    if order == 1:
        return np.array([0.0, 1.0, 2.0 * u, 3.0 * u * u])
    return np.array([0.0, 0.0, 2.0, 6.0 * u])


def _cell_eval(coeffs: np.ndarray, u: float, order: int) -> float:
    return float(_pow_vec(u, order) @ coeffs)


def _block_eval(block: np.ndarray, u: float, v: float, dx: int, dy: int) -> float:
    return float(_pow_vec(u, dx) @ block @ _pow_vec(v, dy))


def _newton_1d(coeffs: np.ndarray, h: float):
    """A stationary point u in [0, h] of one cell, from its midpoint."""
    u = 0.5 * h
    for _ in range(NEWTON_MAX_ITER):
        g = _cell_eval(coeffs, u, 1)
        if abs(g) < NEWTON_GRAD_TOL:
            pad = 1e-9 * h
            if -pad <= u <= h + pad:
                return min(max(u, 0.0), h)
            return None
        curv = _cell_eval(coeffs, u, 2)
        if abs(curv) < 1e-14 * max(1.0, abs(g)):
            return None
        u -= g / curv
    return None


def _newton_2d(block: np.ndarray, hx: float, hy: float):
    """A stationary point (u, v) in [0, hx] x [0, hy] of one cell, from its
    centre."""
    u, v = 0.5 * hx, 0.5 * hy
    for _ in range(NEWTON_MAX_ITER):
        gx = _block_eval(block, u, v, 1, 0)
        gy = _block_eval(block, u, v, 0, 1)
        if math.hypot(gx, gy) < NEWTON_GRAD_TOL:
            padx, pady = 1e-9 * hx, 1e-9 * hy
            if -padx <= u <= hx + padx and -pady <= v <= hy + pady:
                return min(max(u, 0.0), hx), min(max(v, 0.0), hy)
            return None
        fxx = _block_eval(block, u, v, 2, 0)
        fxy = _block_eval(block, u, v, 1, 1)
        fyy = _block_eval(block, u, v, 0, 2)
        det = fxx * fyy - fxy * fxy
        if abs(det) < 1e-14 * max(1.0, (abs(fxx) + abs(fyy) + abs(fxy)) ** 2):
            return None
        u -= (fyy * gx - fxy * gy) / det
        v -= (fxx * gy - fxy * gx) / det
    return None


def _dedupe(points: list[CriticalPoint]) -> list[CriticalPoint]:
    kept: list[CriticalPoint] = []
    for p in sorted(points, key=lambda q: (not q.stationary, q.coords)):
        close = any(
            all(abs(a - b) <= DEDUPE_TOL * max(1.0, abs(a)) for a, b in zip(p.coords, k.coords))
            for k in kept)
        if not close:
            kept.append(p)
    return sorted(kept, key=lambda q: q.coords)


def find_critical_points(model: Spline) -> list[CriticalPoint]:
    """Stationary points of a fitted 1-D or 2-D spline plus all its knots.

    Newton iteration runs in each cell's local coordinates from the cell
    centre; converged interior points are classified by the sign pattern of
    the (closed-form) Hessian eigenvalues. A knot's derivatives are read
    from its cell's coefficients. Knots that are not stationary are kept as
    boundary candidates with kind "boundary".
    """
    dims = len(model.knots) if isinstance(model, Spline) else 0
    if dims not in (1, 2) or model.coeffs.ndim != 2 * dims:
        raise TypeError("model must be a 1-D or 2-D Spline, not a stack of them")
    points: list[CriticalPoint] = []
    if dims == 1:
        knots = model.knots[0].tolist()
        for t, t1, c in zip(knots, knots[1:], model.coeffs):
            u = _newton_1d(c, t1 - t)
            if u is not None:
                points.append(CriticalPoint(
                    coords=(t + u,), value=_cell_eval(c, u, 0),
                    kind=_classify_1d(_cell_eval(c, u, 2)), stationary=True))
        for t, c in zip(knots, model.coeffs):
            stationary = abs(c[1]) < NEWTON_GRAD_TOL * 10
            points.append(CriticalPoint(
                coords=(t,), value=float(c[0]),
                kind=_classify_1d(2.0 * c[2]) if stationary else "boundary",
                stationary=stationary))
        return _dedupe(points)
    xs, ys = (k.tolist() for k in model.knots)
    for x, x1, row in zip(xs, xs[1:], model.coeffs):
        for y, y1, block in zip(ys, ys[1:], row):
            got = _newton_2d(block, x1 - x, y1 - y)
            if got is None:
                continue
            u, v = got
            points.append(CriticalPoint(
                coords=(x + u, y + v), value=_block_eval(block, u, v, 0, 0),
                kind=_classify_2d(_block_eval(block, u, v, 2, 0),
                                  _block_eval(block, u, v, 1, 1),
                                  _block_eval(block, u, v, 0, 2)),
                stationary=True))
    for x, row in zip(xs, model.coeffs):
        for y, b in zip(ys, row):
            stationary = math.hypot(b[1, 0], b[0, 1]) < NEWTON_GRAD_TOL * 10
            points.append(CriticalPoint(
                coords=(x, y), value=float(b[0, 0]),
                kind=(_classify_2d(2.0 * b[2, 0], b[1, 1], 2.0 * b[0, 2])
                      if stationary else "boundary"),
                stationary=stationary))
    return _dedupe(points)


@dataclass(frozen=True)
class OptimizationResult:
    # the shape of as_dict() that the artifact reader checks (see
    # xfertune.pipeline); from_dict reads the values of its keys
    SHAPE = {"stratum_id": str, "sla_id": str, "params": dict.fromkeys(PARAM_NAMES, int),
             "predicted_energy": object, "predicted_throughput": object,
             "candidate_count": int, "feasible_count": int}
    _VALUES, _PARAM_VALUES = itemgetter(*SHAPE), itemgetter(*PARAM_NAMES)

    stratum_id: str
    sla_id: str
    params: ParamConfig
    predicted_energy: float
    predicted_throughput: float
    candidate_count: int
    feasible_count: int

    def as_dict(self) -> dict:
        """The fields by name in declaration order, as a new dict."""
        doc = self.__dict__.copy()
        doc["params"] = self.params.as_dict()
        return doc

    @classmethod
    def from_dict(cls, obj: dict) -> "OptimizationResult":
        doc = dict(zip(cls.SHAPE, cls._VALUES(obj)))
        doc["params"] = ParamConfig(*cls._PARAM_VALUES(doc["params"]))
        return cls(**doc)


def optimize_stratum(models: StratumModels, sla: SLA) -> OptimizationResult:
    """Best feasible lattice configuration for one stratum under one SLA.

    Ties on the objective go to the first configuration in lexicographic
    lattice order, which is the C order of the prediction arrays.
    """
    return _best_cell(models.stratum_id, models.lattice_predictions(), sla)


def _best_cell(stratum_id: str, predictions, sla: SLA) -> OptimizationResult:
    """optimize_stratum on a stratum's lattice_predictions()."""
    axes, energy, tput = predictions
    # the masks negate e > cap and t < floor: a bound met exactly is feasible
    if sla.kind == KIND_ENERGY_CAP:
        word, objective, best = "cap", tput, np.argmax
        feasible = np.flatnonzero(~(energy > sla.bound))
    else:
        word, objective, best = "floor", energy, np.argmin
        feasible = np.flatnonzero(~(tput < sla.bound))
    if not feasible.size:
        raise InfeasibleSLAError(
            stratum_id, sla.id,
            f"no candidate satisfies the {word} {sla.bound} "
            f"({energy.size} candidates checked)")
    cell = np.unravel_index(feasible[best(objective.ravel()[feasible])], energy.shape)
    cfg = ParamConfig(**{p: axes[p][i] for p, i in zip(PARAM_NAMES, cell)})
    return OptimizationResult(
        stratum_id=stratum_id, sla_id=sla.id, params=cfg,
        predicted_energy=float(energy[cell]), predicted_throughput=float(tput[cell]),
        candidate_count=energy.size, feasible_count=feasible.size)


@dataclass(frozen=True)
class ParamTable:
    """Tuned parameters for every (stratum, SLA) pair.

    Infeasible pairs are kept with their reason so lookups fail loudly.
    """

    slas: tuple[SLA, ...]
    rows: dict                   # stratum_id -> sla_id -> row dict

    def lookup(self, stratum_id: str, sla_id: str) -> OptimizationResult:
        try:
            row = self.rows[stratum_id][sla_id]
        except KeyError:
            raise KeyError(f"no table row for ({stratum_id}, {sla_id})") from None
        if row["status"] != "ok":
            raise InfeasibleSLAError(stratum_id, sla_id, row["reason"])
        return OptimizationResult.from_dict(row["result"])

    def as_dict(self) -> dict:
        return {"slas": [s.as_dict() for s in self.slas], "rows": self.rows}

    @classmethod
    def from_dict(cls, obj: dict) -> "ParamTable":
        return cls(slas=tuple(SLA.from_dict(d) for d in obj["slas"]),
                   rows=obj["rows"])


def build_param_table(models_by_stratum: dict, slas: list[SLA]) -> ParamTable:
    ids = [s.id for s in slas]
    if len(set(ids)) != len(ids):
        raise SLAError("duplicate sla ids")
    rows: dict = {}
    for sid in sorted(models_by_stratum):
        models = models_by_stratum[sid]
        predictions = models.lattice_predictions()
        rows[sid] = {}
        for sla in slas:
            try:
                res = _best_cell(models.stratum_id, predictions, sla)
                rows[sid][sla.id] = {"status": "ok", "result": res.as_dict()}
            except InfeasibleSLAError as exc:
                rows[sid][sla.id] = {"status": "infeasible", "reason": exc.reason}
    return ParamTable(slas=tuple(slas), rows=rows)
