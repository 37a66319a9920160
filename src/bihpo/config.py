"""Experiment configuration: YAML sections mapped onto typed dataclasses.

The file format is YAML restricted to scalars, flat arrays, and one level of
nested sections per the grammar documented in the README. Unknown keys are
rejected so typos fail loudly; every validation error carries the dotted path
of the offending field. Each section's int, float and bool fields are checked
against their annotations when it is built (errors.require_fields); the `split`,
`method` and `strategy.outer` sections are the library's SplitPlan,
HypergradMethod and OuterOptimizer, which also check their own rules.
validate_config adds range and cross-section rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .data import TASKS, SplitPlan, _plan_val_size
from .errors import ConfigError, ContractViolationError, ParseError, require_fields, require_real
from .hypergrad import AID_KINDS, HypergradMethod
from .problems import MODEL_KINDS, NONSMOOTH_KINDS, TASK_OF_KIND
from .strategies import STRATEGY_KINDS, OuterOptimizer


@dataclass(frozen=True)
class SyntheticSection:
    n: int = 100
    d: int = 5
    noise_sigma: float = 0.1
    beta_seed: int = 0
    seed: int = 0
    classes: int = 0


@dataclass(frozen=True)
class CorruptSection:
    p: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class DataSection:
    source: str = "synthetic"  # "synthetic" or a libsvm file path
    synthetic: SyntheticSection = field(default_factory=SyntheticSection)
    task: str | None = None  # optional libsvm task override
    corrupt: CorruptSection | None = None
    test_fraction: float = 0.0
    test_seed: int = 0


@dataclass(frozen=True)
class ProblemSection:
    kind: str = "ridge"
    smoothing_delta: float = 1e-6
    num_classes: int = 0


@dataclass(frozen=True)
class StrategySection:
    kind: str = "single"
    T: int = 50
    outer: OuterOptimizer = field(default_factory=OuterOptimizer)
    alpha_deploy: float = 0.0
    lambda0: Any = None  # scalar broadcast or list of raw coordinates
    theta0: Any = 0.0
    warm_start: bool = False


@dataclass(frozen=True)
class OutputSection:
    dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")


@dataclass(frozen=True)
class BiasvarSection:
    grid: Any = "0.3:3:50"  # "lo:hi:count" or explicit list (effective scale)
    R: int = 100
    U: int = 1
    ref_K: int = 2000
    estimator: str = "method"  # "method" or "oracle"


@dataclass(frozen=True)
class CleanSection:
    threshold: float = 0.5
    retrain_K: int = 500
    retrain_alpha: float = 0.5
    baseline_raw_lambda: float = -12.0


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataSection = field(default_factory=DataSection)
    split: SplitPlan = field(default_factory=SplitPlan)
    problem: ProblemSection = field(default_factory=ProblemSection)
    method: HypergradMethod = field(default_factory=HypergradMethod)
    strategy: StrategySection = field(default_factory=StrategySection)
    output: OutputSection = field(default_factory=OutputSection)
    biasvar: BiasvarSection = field(default_factory=BiasvarSection)
    clean: CleanSection = field(default_factory=CleanSection)


_SECTION_TYPES = {
    "synthetic": SyntheticSection,
    "corrupt": CorruptSection,
    "data": DataSection,
    "split": SplitPlan,
    "problem": ProblemSection,
    "method": HypergradMethod,
    "outer": OuterOptimizer,
    "strategy": StrategySection,
    "output": OutputSection,
    "biasvar": BiasvarSection,
    "clean": CleanSection,
}


def _coerce(cls, raw: dict, path: str):
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section must be a mapping, got {type(raw).__name__}", field_path=path)
    known = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"unknown key {key!r}", field_path=f"{path}.{key}" if path else key)
        sub = f"{path}.{key}" if path else key
        if key in _SECTION_TYPES:
            if value is not None:  # a null section keeps its default
                kwargs[key] = _coerce(_SECTION_TYPES[key], value, sub)
        elif isinstance(value, list):
            kwargs[key] = tuple(value) if key == "formats" else list(value)
        else:
            kwargs[key] = value
    try:
        section = cls(**kwargs)
        require_fields(section)
        return section
    except TypeError as exc:
        raise ConfigError(str(exc), field_path=path) from exc
    except ContractViolationError as exc:  # a type or library rule, at its field
        field_path = f"{path}.{exc.field}" if exc.field else path
        raise ConfigError(str(exc), field_path=field_path) from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping", field_path="")
    return _coerce(ExperimentConfig, raw, "")


# libyaml's parser where PyYAML was built with it: the same safe constructor
# and resolver, so the same config, in about a fifth of the time
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}", field_path="") from exc
    try:
        raw = yaml.load(text, Loader=_LOADER)
    except yaml.MarkedYAMLError as exc:
        line = exc.problem_mark.line + 1 if exc.problem_mark else None
        raise ParseError(f"invalid YAML: {exc}", line=line) from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid YAML: {exc}") from exc
    return config_from_dict(raw)


def config_to_dict(cfg) -> dict:
    """Plain-scalar dict echo of a config (tuples as lists), reparseable."""
    out = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if is_dataclass(v):
            out[f.name] = config_to_dict(v)
        elif isinstance(v, tuple):
            out[f.name] = list(v)
        elif isinstance(v, np.generic):
            out[f.name] = v.item()
        else:
            out[f.name] = v
    return out


def parse_grid(spec: Any) -> list[float]:
    """Either an explicit list or 'lo:hi:count' (inclusive linear spacing) of
    positive values: the grid is on the effective scale, exp(u)."""
    if isinstance(spec, (list, tuple)):
        _require_reals(spec, "biasvar.grid")
        grid = np.asarray(spec, dtype=np.float64).tolist()
    elif isinstance(spec, str):
        try:
            lo, hi, count = spec.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError as exc:
            raise ConfigError(f"grid must be 'lo:hi:count' or a list, got {spec!r}",
                              field_path="biasvar.grid") from exc
        _require_reals([lo, hi], "biasvar.grid")
        if count < 1 or hi < lo:
            raise ConfigError(f"bad grid range {spec!r}", field_path="biasvar.grid")
        grid = np.linspace(lo, hi, count).tolist()
    else:
        raise ConfigError("grid must be a string or list", field_path="biasvar.grid")
    if not grid:
        raise ConfigError("grid is empty", field_path="biasvar.grid")
    if not all(x > 0 for x in grid):
        raise ConfigError(f"grid values must be > 0 (effective scale), got {spec!r}",
                          field_path="biasvar.grid")
    return grid


def _require(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise ConfigError(message, field_path=path)


def _require_reals(value, path: str) -> None:
    """Refuse a value that is not a finite real number or a list of them."""
    try:
        for x in value if isinstance(value, (list, tuple)) else [value]:
            require_real(x, path.rsplit(".", 1)[-1])
    except ContractViolationError as exc:
        raise ConfigError(str(exc), field_path=path) from exc


def validate_config(cfg: ExperimentConfig, command: str = "tune") -> None:
    """Range/consistency validation; raises ConfigError naming the field path."""
    d = cfg.data
    _require(isinstance(d.source, str) and d.source != "", "source must be a non-empty string", "data.source")
    if d.source == "synthetic":
        s = d.synthetic
        _require(s.n >= 2, "synthetic.n must be >= 2", "data.synthetic.n")
        _require(s.d >= 1, "synthetic.d must be >= 1", "data.synthetic.d")
        _require(s.noise_sigma >= 0, "noise_sigma must be >= 0", "data.synthetic.noise_sigma")
    if d.task is not None:
        _require(d.task in TASKS, f"task must be one of {TASKS}", "data.task")
    if d.corrupt is not None:
        _require(0.0 <= d.corrupt.p <= 1.0, "corrupt.p must be in [0, 1]", "data.corrupt.p")
    _require(0.0 <= d.test_fraction < 1.0, "test_fraction must be in [0, 1)", "data.test_fraction")

    pr = cfg.problem
    _require(pr.kind in MODEL_KINDS, f"kind must be one of {MODEL_KINDS}", "problem.kind")
    task, classes = TASK_OF_KIND[pr.kind], d.synthetic.classes
    if d.source == "synthetic" and task == "binary":
        _require(classes in (0, 2), "binary models need classes = 2", "data.synthetic.classes")
    if d.source == "synthetic" and task == "multiclass":
        _require(classes >= 2, "multiclass models need classes >= 2", "data.synthetic.classes")
        _require(pr.num_classes == classes, f"num_classes is {pr.num_classes} but the data "
                 f"has {classes} classes", "problem.num_classes")
    if pr.kind == "hyperclean_softmax":
        _require(cfg.split.U == 1, "hyperclean weights align with one fixed split; use U = 1", "split.U")

    if cfg.method.kind in AID_KINDS:
        _require(
            pr.kind not in NONSMOOTH_KINDS,
            f"AID is not offered for {pr.kind} (discontinuous Hessian)",
            "method.kind",
        )

    st = cfg.strategy
    _require(st.kind in STRATEGY_KINDS, f"kind must be one of {STRATEGY_KINDS}", "strategy.kind")
    _require(st.T >= 1, "T must be >= 1", "strategy.T")
    if st.kind == "oehg":
        _require(st.alpha_deploy > 0, "oehg requires alpha_deploy > 0", "strategy.alpha_deploy")
        # oehg's estimate is one-step ITD; method supplies only alpha_in
        _require(cfg.method.kind == "ITD", "oehg uses one-step ITD; set method.kind = ITD",
                 "method.kind")
        _require(cfg.method.K == 1, "oehg uses one-step ITD; set method.K = 1", "method.K")
    if st.lambda0 is not None:
        _require_reals(st.lambda0, "strategy.lambda0")
    _require_reals(st.theta0, "strategy.theta0")

    ou = cfg.output
    _require(isinstance(ou.dir, str) and ou.dir != "", "dir must be a non-empty string", "output.dir")
    for f in ou.formats:
        _require(f in ("csv", "json"), "formats entries must be 'csv' or 'json'", "output.formats")

    if command == "biasvar":
        bv = cfg.biasvar
        _require(bv.R >= 2, "R must be >= 2", "biasvar.R")
        _require(bv.U >= 1, "U must be >= 1", "biasvar.U")
        _require(bv.ref_K >= 1, "ref_K must be >= 1", "biasvar.ref_K")
        _require(bv.estimator in ("method", "oracle"), "estimator must be 'method' or 'oracle'", "biasvar.estimator")
        parse_grid(bv.grid)
        _require(
            cfg.data.source == "synthetic",
            "biasvar needs the synthetic generator (replicated datasets)",
            "data.source",
        )
        _require(pr.kind != "hyperclean_softmax", "biasvar's grid holds regularization "
                 "strengths on the exp scale; hyperclean_softmax's sample weights are not "
                 "one", "problem.kind")
        _plan_val_size(d.synthetic.n, replace(cfg.split, U=bv.U), "biasvar.U")
        _require(bv.estimator != "oracle" or pr.kind == "ridge",
                 "the oracle estimator is exact for ridge only", "biasvar.estimator")
        _require(d.corrupt is None, "biasvar draws its own replicate datasets and corrupts "
                 "no labels", "data.corrupt")
        _require(d.test_fraction == 0, "biasvar draws its own replicate datasets and holds "
                 "no test rows out", "data.test_fraction")
    if command == "clean":
        _require(pr.kind == "hyperclean_softmax", "clean requires problem.kind = hyperclean_softmax", "problem.kind")
        cl = cfg.clean
        _require(0.0 < cl.threshold < 1.0, "threshold must be in (0, 1)", "clean.threshold")
        _require(cl.retrain_K >= 1, "retrain_K must be >= 1", "clean.retrain_K")
        _require(cl.retrain_alpha > 0, "retrain_alpha must be > 0", "clean.retrain_alpha")
