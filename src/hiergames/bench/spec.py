"""Declarative experiment descriptions.

An experiment is a single JSON document: a game family with parameters, one
solver with its configuration, an optional one-dimensional sweep, a seed
list, a budget, and a residual-evaluation policy.  ``build_run`` turns one
sweep point into the game instance and the solver and residual configs: the
keys of ``solver`` (with its ``schedule`` or ``smoothing``), ``budget`` and
``residual`` go unchanged to the config dataclasses, whose defaults and
checks are the only ones.  ``validate_spec`` builds every sweep point, so a
spec it accepts is one the runner can execute.
"""

from __future__ import annotations

import copy
import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable

from ..games.base import GameOracle
from ..games.bilevel import BilevelGame, BilevelParams
from ..games.cournot import ConstrainedMlmfCournotGame, MlmfCournotGame, MlmfParams
from ..residuals import BrResidualConfig, ResidualConfig
from ..rng import RandomStream
from ..solvers.sg import SgConfig
from ..solvers.smoothing import ArspbrConfig, SmoothingParams
from ..solvers.vr_spp import SampleSchedule, VrSppConfig

SECTIONS = ("game", "solver", "residual", "budget")
TOP_LEVEL_KEYS = ("name", *SECTIONS, "seeds", "sweep")
DEFAULT_SEEDS = tuple(range(20))

# Solver kind -> (config class, the config fields the spec's budget holds).
SOLVERS = {
    "vr-spp": (VrSppConfig, ("outer_iters",)),
    "sg": (SgConfig, ("total_iters",)),
    "arspbr": (ArspbrConfig, ("outer_iters",)),
}
RESIDUALS = {"yosida": ResidualConfig, "br": BrResidualConfig}


class SpecValidationError(ValueError):
    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid experiment spec:\n  " + "\n  ".join(self.problems))


@dataclass
class ExperimentSpec:
    name: str
    game: dict[str, Any]
    solver: dict[str, Any]
    residual: dict[str, Any]
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    budget: dict[str, Any] = field(default_factory=dict)
    sweep: dict[str, Any] | None = None

    @property
    def sweep_values(self) -> list[Any]:
        if self.sweep is None:
            return [None]
        return list(self.sweep["values"])

    def sweep_key(self, idx: int) -> str:
        if self.sweep is None:
            return self.name
        return f"{self.sweep['path']}={self.sweep['values'][idx]}"

    def resolved(self, idx: int) -> "ExperimentSpec":
        """Copy with the idx-th sweep value applied to its target path."""
        out = ExperimentSpec(
            name=self.name,
            game=copy.deepcopy(self.game),
            solver=copy.deepcopy(self.solver),
            residual=copy.deepcopy(self.residual),
            seeds=self.seeds,
            budget=dict(self.budget),
            sweep=None,
        )
        if self.sweep is not None:
            _set_path(out, self.sweep["path"], self.sweep["values"][idx])
            # Optional parallel per-point budgets (smoothing sweeps need a
            # budget that grows as the radius shrinks).
            if "budgets" in self.sweep:
                out.budget = dict(self.sweep["budgets"][idx])
        return out


@dataclass(frozen=True)
class RunPlan:
    """One sweep point, built: what a run needs besides its random streams."""

    game: GameOracle
    solver: VrSppConfig | SgConfig | ArspbrConfig
    smoothing: SmoothingParams | None  # arspbr only
    residual: ResidualConfig | BrResidualConfig
    cadence: str | int  # "final" or a stride in solver iterations

    @property
    def iters(self) -> int:
        """Run length in the solver's own iterations."""
        if isinstance(self.solver, SgConfig):
            return self.solver.total_iters
        return self.solver.outer_iters


def _set_path(spec: ExperimentSpec, path: str, value: Any) -> None:
    head, *rest = path.split(".")
    node: Any = getattr(spec, head)
    for part in rest[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise SpecValidationError([f"sweep.path: {path} does not lead into an object"])
    node[rest[-1]] = value


def load_spec(path: str | Path) -> ExperimentSpec:
    """Read and check a spec file; an unreadable, non-UTF-8 or non-JSON
    file is a :class:`SpecValidationError` like any other problem."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as err:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise SpecValidationError([f"spec: {err}"]) from None
    return spec_from_dict(raw)


def spec_from_dict(raw: dict[str, Any]) -> ExperimentSpec:
    problems = validate_spec(raw)
    if problems:
        raise SpecValidationError(problems)
    return ExperimentSpec(
        name=raw["name"],
        game=dict(raw["game"]),
        solver=dict(raw["solver"]),
        residual=dict(raw["residual"]),
        seeds=tuple(int(s) for s in raw.get("seeds", DEFAULT_SEEDS)),
        budget=dict(raw.get("budget", {})),
        sweep=dict(raw["sweep"]) if raw.get("sweep") else None,
    )


def validate_spec(raw: dict[str, Any]) -> list[str]:
    """All problems with the document, as 'field: message' strings.

    Checks the document's shape, then builds every sweep point with
    ``build_run`` so that each config dataclass checks its own fields.
    """
    if not isinstance(raw, dict):
        return ["spec: must be a JSON object"]
    problems = [f"{key}: unknown field" for key in raw if key not in TOP_LEVEL_KEYS]
    if not isinstance(raw.get("name"), str) or not raw.get("name"):
        problems.append("name: required non-empty string")
    seeds = raw.get("seeds", list(DEFAULT_SEEDS))
    if not isinstance(seeds, list) or not seeds or not all(_is_int(s) and s >= 0 for s in seeds):
        problems.append("seeds: must be a nonempty list of nonnegative integers")
    elif len(set(seeds)) < len(seeds):
        problems.append("seeds: must not repeat a seed")
    shape_problems = [
        f"{section}: must be an object"
        for section in SECTIONS
        if not isinstance(raw.get(section, {} if section == "budget" else None), dict)
    ]
    sweep = raw.get("sweep")
    if sweep is None:
        pass
    elif not isinstance(sweep, dict) or not {"path", "values"} <= set(sweep) <= {"path", "values", "budgets"}:
        shape_problems.append("sweep: must be an object with path, values and optional budgets")
    elif (
        not isinstance(sweep["path"], str)
        or "." not in sweep["path"]
        or sweep["path"].split(".")[0] not in SECTIONS
    ):
        shape_problems.append("sweep.path: must be <game|solver|residual|budget>.<field>")
    elif not isinstance(sweep["values"], list) or not sweep["values"]:
        shape_problems.append("sweep.values: must be a nonempty list")
    elif len({str(v) for v in sweep["values"]}) < len(sweep["values"]):
        # Runs and rows are keyed by the sweep key, "<path>=<value>".
        shape_problems.append("sweep.values: must not repeat a value")
    elif "budgets" in sweep and (
        not isinstance(sweep["budgets"], list)
        or len(sweep["budgets"]) != len(sweep["values"])
        or not all(isinstance(b, dict) for b in sweep["budgets"])
    ):
        shape_problems.append("sweep.budgets: must be a list of objects parallel to sweep.values")
    problems += shape_problems

    if not shape_problems:
        spec = ExperimentSpec(
            name=raw.get("name"), game=raw["game"], solver=raw["solver"],
            residual=raw["residual"], budget=raw.get("budget", {}), sweep=sweep,
        )
        stream = RandomStream(0)
        for idx in range(len(spec.sweep_values)):
            try:
                build_run(spec.resolved(idx), stream)
            except SpecValidationError as err:
                problems += [p for p in err.problems if p not in problems]
    return problems


# --------------------------------------------------------------- game instance

def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_range(v: Any, lo_min: float = float("-inf"), strict: bool = False) -> bool:
    ok = isinstance(v, list) and len(v) == 2 and all(_is_number(x) for x in v)
    return ok and lo_min <= v[0] and (v[0] < v[1] if strict else v[0] <= v[1])


# (check, message) per kind of game parameter.
_COUNT = (lambda v: _is_int(v) and v >= 1, "must be a positive integer")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "must be a positive number")
_NONNEG = (lambda v: _is_number(v) and v >= 0, "must be a nonnegative number")
_RANGE = (lambda v: _is_range(v, strict=True), "must be [lo, hi] with lo < hi")
_CLOSED_RANGE = (_is_range, "must be [lo, hi] with lo <= hi")
_NONNEG_RANGE = (lambda v: _is_range(v, lo_min=0.0), "must be [lo, hi] with 0 <= lo <= hi")
_BOOL = (lambda v: isinstance(v, bool), "must be true or false")

_MLMF_KEYS = {"n_leaders": _COUNT, "n_followers": _COUNT, "demand_slope": _POSITIVE,
              "a_range": _RANGE, "leader_cost_range": _NONNEG_RANGE, "follower_cost": _NONNEG}
# Family -> its parameters; all are required except the bilevel game's
# optional ones, which default to the arguments of ``BilevelParams.sample``.
GAME_KEYS = {
    "mlmf": _MLMF_KEYS,
    "mlmf-constrained": {**_MLMF_KEYS, "cap": _POSITIVE, "constraint_noise_halfwidth": _POSITIVE},
    "bilevel": {"n_players": _COUNT, "a_range": _RANGE, "curvature_range": _NONNEG_RANGE,
                "lower_quad": _POSITIVE, "lower_slope_range": _CLOSED_RANGE,
                "bound_slope_range": _CLOSED_RANGE, "coincident": _BOOL},
}
_OPTIONAL_GAME_KEYS = ("curvature_range", "lower_quad", "lower_slope_range", "bound_slope_range", "coincident")


def build_game(game_cfg: dict[str, Any], stream: RandomStream) -> GameOracle:
    """Draw the game instance a checked ``game`` section describes; its keys
    are the keyword arguments of the family's ``sample`` function."""
    family = game_cfg["family"]
    kwargs = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in game_cfg.items()
        if key not in ("family", "cap")
    }
    if family == "bilevel":
        return BilevelGame(BilevelParams.sample(stream=stream, **kwargs))
    params = MlmfParams.sample(stream=stream, caps=game_cfg.get("cap"), **kwargs)
    if family == "mlmf-constrained":
        return ConstrainedMlmfCournotGame(params)
    return MlmfCournotGame(params)


def _game(problems: list[str], game_cfg: dict[str, Any], stream, make_game) -> GameOracle | None:
    family = game_cfg.get("family")
    keys = GAME_KEYS.get(family) if isinstance(family, str) else None
    if keys is None:
        problems.append(f"game.family: must be one of {tuple(GAME_KEYS)}")
        return None
    before = len(problems)
    for key, value in game_cfg.items():
        if key == "family":
            continue
        if key not in keys:
            problems.append(f"game.{key}: unknown field for family {family!r}")
        elif not keys[key][0](value):
            problems.append(f"game.{key}: {keys[key][1]}")
    problems += [
        f"game: missing required field {key!r}"
        for key in keys
        if key not in game_cfg and key not in _OPTIONAL_GAME_KEYS
    ]
    if len(problems) > before:
        return None
    try:
        return make_game(game_cfg, stream)
    except (ValueError, MemoryError) as err:
        problems.append(f"game: {err}")
        return None


# -------------------------------------------------------------------- configs

# Field annotation (as written in the config dataclasses) -> value check.
_TYPE_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "None": (lambda v: v is None, "null"),
}


def _field_names(cls, exclude=()) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name not in exclude)


def _make(problems: list[str], cls, sections: dict[str, tuple[dict, tuple[str, ...]]], **fixed):
    """``cls(**fixed, **values)`` with the values taken from spec sections.

    ``sections`` maps a spec path to (its values, the fields it may hold).
    Unknown keys, values of the wrong type, missing required fields and the
    ValueError of the dataclass's own checks each become a problem, named by
    the field: the checks' messages start with the field's name.  Returns
    None when there was any problem.
    """
    types = {f.name: f for f in fields(cls)}
    before = len(problems)
    kwargs = dict(fixed)
    for path, (values, names) in sections.items():
        for key, value in values.items():
            if key not in names:
                problems.append(f"{path}.{key}: unknown field; expected one of {', '.join(names)}")
                continue
            checks = [_TYPE_CHECKS[t] for t in types[key].type.split(" | ")]
            if any(check(value) for check, _ in checks):
                kwargs[key] = value
            else:
                problems.append(f"{path}.{key}: must be " + " or ".join(w for _, w in checks))
        problems += [
            f"{path}: missing required field {name!r}"
            for name in names
            if name not in values and types[name].default is MISSING
        ]
    if len(problems) > before:
        return None
    try:
        return cls(**kwargs)
    except ValueError as err:
        name, _, reason = str(err).partition(" ")
        path = next((p for p, (_, names) in sections.items() if name in names), None)
        problems.append(f"{path}.{name}: {reason}" if path else f"{next(iter(sections))}: {err}")
        return None


def _make_object(problems: list[str], cls, path: str, value: Any):
    """``_make`` for a spec object that holds exactly the fields of ``cls``."""
    if not isinstance(value, dict):
        problems.append(f"{path}: must be an object")
        return None
    return _make(problems, cls, {path: (value, _field_names(cls))})


def build_run(
    spec: ExperimentSpec,
    stream: RandomStream,
    make_game: Callable[[dict[str, Any], RandomStream], GameOracle] = build_game,
) -> RunPlan:
    """Build one resolved sweep point; raise SpecValidationError listing
    every problem.  ``stream`` draws the instance parameters through
    ``make_game``."""
    problems: list[str] = []
    game = _game(problems, spec.game, stream, make_game)

    solver_cfg = spec.solver
    kind = solver_cfg.get("kind")
    config = smoothing = None
    if not isinstance(kind, str) or kind not in SOLVERS:
        problems.append(f"solver.kind: must be one of {tuple(SOLVERS)}")
    else:
        cls, budget_names = SOLVERS[kind]
        nested = {"vr-spp": "schedule", "arspbr": "smoothing"}.get(kind)
        values = {k: v for k, v in solver_cfg.items() if k not in ("kind", nested)}
        fixed = {}
        if kind == "vr-spp":
            fixed["schedule"] = _make_object(
                problems, SampleSchedule, "solver.schedule", solver_cfg.get("schedule", {}))
        elif kind == "arspbr":
            smoothing = _make_object(
                problems, SmoothingParams, "solver.smoothing", solver_cfg.get("smoothing", {}))
            if spec.game.get("family") == "mlmf-constrained":
                problems.append("solver.kind: arspbr needs player objectives, which the "
                                "multiplier blocks of mlmf-constrained do not have")
        sections = {
            "solver": (values, _field_names(cls, exclude=(*budget_names, *fixed))),
            "budget": (spec.budget, budget_names),
        }
        config = _make(problems, cls, sections, **fixed)

    residual_cfg = spec.residual
    residual_kind = residual_cfg.get("kind", "yosida")
    cadence = residual_cfg.get("cadence", "final")
    if cadence != "final" and (not _is_int(cadence) or cadence < 1):
        problems.append("residual.cadence: must be 'final' or a positive integer")
    residual = None
    if not isinstance(residual_kind, str) or residual_kind not in RESIDUALS:
        problems.append(f"residual.kind: must be one of {tuple(RESIDUALS)}")
    else:
        if residual_kind == "br" and kind != "arspbr":
            problems.append("residual.kind: 'br' measures the smoothed game and needs the arspbr solver")
        values = {k: v for k, v in residual_cfg.items() if k not in ("kind", "cadence")}
        residual = _make_object(problems, RESIDUALS[residual_kind], "residual", values)

    if problems:
        raise SpecValidationError(problems)
    return RunPlan(game, config, smoothing, residual, cadence)
