"""The benchmark's workloads run on this library and pass their own output checks.

perfbench/ drives the library through names it imports (data generators,
`ensemble_variance_curve(..., workers=1)`, the CLI, the `BilevelProblem`
callback fields its tracer wraps) and compares each result with its own
numpy reference. Each workload here runs once at seed 0, as a benchmark
repeat does, and must come back with no failed check.
"""

import dataclasses
import importlib
import inspect
import sys
from functools import cached_property
from pathlib import Path

import pytest

from bihpo.data import DataView
from bihpo.diagnostics import RidgeOracle
from bihpo.problems import BilevelProblem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from tracing import CALLBACK_SPANS, ORACLE_METHODS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_checks(name, tmp_path):
    workload = WORKLOADS[name]
    run_dir = tmp_path / name
    run_dir.mkdir()
    result = workload.setup(0, run_dir)()
    assert workload.check(result, run_dir, 0) == []


def test_tracer_finds_what_it_wraps():
    # the tracer rebinds these by name; a renamed one would go untimed silently
    assert set(CALLBACK_SPANS) <= {f.name for f in dataclasses.fields(BilevelProblem)}
    assert isinstance(DataView.__dict__["gram"], cached_property)
    # the oracle methods are looked up with no default
    assert all(callable(getattr(RidgeOracle, name, None)) for name in ORACLE_METHODS)
    # the spans of an estimate, its reverse pass, AID solve and outer loop
    for module, names in {
        "hypergrad": ("estimate_hypergrad", "inner_solve", "itd_hypergrad", "aid_hypergrad"),
        "linalg": ("cg_solve", "fixed_point_solve"),
        "strategies": ("run_ehg", "run_oehg", "optimizer_step"),
    }.items():
        mod = importlib.import_module(f"bihpo.{module}")
        assert all(callable(getattr(mod, name, None)) for name in names), module
    # a solve's convergence is its iterations against the max_iters it was given
    linalg = importlib.import_module("bihpo.linalg")
    for name in ("cg_solve", "fixed_point_solve"):
        assert "max_iters" in inspect.signature(getattr(linalg, name)).parameters
