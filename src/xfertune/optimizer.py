"""SLA-constrained parameter selection on fitted stratum models.

An SLA either caps predicted energy (maximize throughput under the cap) or
guarantees predicted throughput (minimize energy above the floor). The
optimizer scores the full knot lattice at once: each group model is evaluated
on its own knot mesh, the groups are broadcast into energy and throughput
arrays over the whole lattice, infeasible cells are masked out, and the first
best cell in lexicographic lattice order wins. A parameter table evaluates
each stratum's lattice once and selects every SLA's row from those arrays.

Critical points of the spline models (Newton search plus Hessian
classification) are an analysis utility: a stationary point between knots is
not a deployable configuration, so it never takes part in the selection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logs import PARAM_NAMES, ParamConfig
from .spline import Spline1D, Surface, cell_index
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


def _cell_poly_1d(coeffs: np.ndarray, t: float, order: int) -> float:
    a0, a1, a2, a3 = coeffs
    if order == 0:
        return a0 + t * (a1 + t * (a2 + t * a3))
    if order == 1:
        return a1 + t * (2.0 * a2 + 3.0 * t * a3)
    return 2.0 * a2 + 6.0 * t * a3


def _newton_1d(coeffs: np.ndarray, lo: float, hi: float):
    t = 0.5 * (lo + hi)
    for _ in range(NEWTON_MAX_ITER):
        g = _cell_poly_1d(coeffs, t, 1)
        if abs(g) < NEWTON_GRAD_TOL:
            pad = 1e-9 * (hi - lo)
            if lo - pad <= t <= hi + pad:
                return min(max(t, lo), hi)
            return None
        h = _cell_poly_1d(coeffs, t, 2)
        if abs(h) < 1e-14 * max(1.0, abs(g)):
            return None
        t -= g / h
    return None


def _block_eval(block: np.ndarray, x: float, y: float, dx: int, dy: int) -> float:
    px = _pow_vec(x, dx)
    py = _pow_vec(y, dy)
    return float(px @ block @ py)


def _pow_vec(t: float, order: int) -> np.ndarray:
    if order == 0:
        return np.array([1.0, t, t * t, t ** 3])
    if order == 1:
        return np.array([0.0, 1.0, 2.0 * t, 3.0 * t * t])
    return np.array([0.0, 0.0, 2.0, 6.0 * t])


def _newton_2d(block: np.ndarray, xlo, xhi, ylo, yhi):
    x, y = 0.5 * (xlo + xhi), 0.5 * (ylo + yhi)
    for _ in range(NEWTON_MAX_ITER):
        gx = _block_eval(block, x, y, 1, 0)
        gy = _block_eval(block, x, y, 0, 1)
        if math.hypot(gx, gy) < NEWTON_GRAD_TOL:
            padx, pady = 1e-9 * (xhi - xlo), 1e-9 * (yhi - ylo)
            if xlo - padx <= x <= xhi + padx and ylo - pady <= y <= yhi + pady:
                return min(max(x, xlo), xhi), min(max(y, ylo), yhi)
            return None
        fxx = _block_eval(block, x, y, 2, 0)
        fxy = _block_eval(block, x, y, 1, 1)
        fyy = _block_eval(block, x, y, 0, 2)
        det = fxx * fyy - fxy * fxy
        if abs(det) < 1e-14 * max(1.0, (abs(fxx) + abs(fyy) + abs(fxy)) ** 2):
            return None
        x -= (fyy * gx - fxy * gy) / det
        y -= (fxx * gy - fxy * gx) / det
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


def find_critical_points(model) -> list[CriticalPoint]:
    """Stationary points of a fitted spline or surface plus all grid knots.

    Newton iteration runs from every cell center; converged interior points
    are classified by the sign pattern of the (closed-form) Hessian
    eigenvalues. Knots that are not stationary are kept as boundary
    candidates with kind "boundary".
    """
    if np.ndim(getattr(model, "coeffs", None)) != {Spline1D: 2, Surface: 4}.get(type(model)):
        raise TypeError("model must be a Spline1D or Surface, not a stack of them")
    points: list[CriticalPoint] = []
    if isinstance(model, Spline1D):
        knots = model.knots
        for i in range(len(knots) - 1):
            t = _newton_1d(model.coeffs[i], knots[i], knots[i + 1])
            if t is not None:
                points.append(CriticalPoint(
                    coords=(t,), value=float(_cell_poly_1d(model.coeffs[i], t, 0)),
                    kind=_classify_1d(_cell_poly_1d(model.coeffs[i], t, 2)),
                    stationary=True))
        for t, i in zip(knots.tolist(), cell_index(knots, knots).tolist()):
            a = model.coeffs[i]
            stationary = abs(float(_cell_poly_1d(a, t, 1))) < NEWTON_GRAD_TOL * 10
            points.append(CriticalPoint(
                coords=(t,), value=float(_cell_poly_1d(a, t, 0)),
                kind=_classify_1d(_cell_poly_1d(a, t, 2)) if stationary else "boundary",
                stationary=stationary))
        return _dedupe(points)
    if isinstance(model, Surface):
        xs, ys = model.xs, model.ys
        for i in range(len(xs) - 1):
            for j in range(len(ys) - 1):
                got = _newton_2d(model.coeffs[i, j], xs[i], xs[i + 1], ys[j], ys[j + 1])
                if got is None:
                    continue
                x, y = got
                block = model.coeffs[i, j]
                points.append(CriticalPoint(
                    coords=(x, y), value=_block_eval(block, x, y, 0, 0),
                    kind=_classify_2d(_block_eval(block, x, y, 2, 0),
                                      _block_eval(block, x, y, 1, 1),
                                      _block_eval(block, x, y, 0, 2)),
                    stationary=True))
        for x, i in zip(xs.tolist(), cell_index(xs, xs).tolist()):
            for y, j in zip(ys.tolist(), cell_index(ys, ys).tolist()):
                block = model.coeffs[i, j]
                gx = _block_eval(block, x, y, 1, 0)
                gy = _block_eval(block, x, y, 0, 1)
                stationary = math.hypot(gx, gy) < NEWTON_GRAD_TOL * 10
                kind = "boundary"
                if stationary:
                    kind = _classify_2d(_block_eval(block, x, y, 2, 0),
                                        _block_eval(block, x, y, 1, 1),
                                        _block_eval(block, x, y, 0, 2))
                points.append(CriticalPoint(
                    coords=(x, y), value=model(x, y), kind=kind,
                    stationary=stationary))
    return _dedupe(points)


@dataclass(frozen=True)
class OptimizationResult:
    # the shape of as_dict() that the artifact reader checks (see
    # xfertune.pipeline)
    SHAPE = {"stratum_id": str, "sla_id": str, "params": dict.fromkeys(PARAM_NAMES, int),
             "predicted_energy": object, "predicted_throughput": object,
             "candidate_count": int, "feasible_count": int}

    stratum_id: str
    sla_id: str
    params: ParamConfig
    predicted_energy: float
    predicted_throughput: float
    candidate_count: int
    feasible_count: int

    def as_dict(self) -> dict:
        return {
            "stratum_id": self.stratum_id,
            "sla_id": self.sla_id,
            "params": self.params.as_dict(),
            "predicted_energy": self.predicted_energy,
            "predicted_throughput": self.predicted_throughput,
            "candidate_count": self.candidate_count,
            "feasible_count": self.feasible_count,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "OptimizationResult":
        return cls(
            stratum_id=obj["stratum_id"], sla_id=obj["sla_id"],
            params=ParamConfig(*(obj["params"][p] for p in PARAM_NAMES)),
            predicted_energy=obj["predicted_energy"],
            predicted_throughput=obj["predicted_throughput"],
            candidate_count=obj["candidate_count"],
            feasible_count=obj["feasible_count"],
        )


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
