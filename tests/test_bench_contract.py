"""The benchmark's workloads run on this library and pass their own output checks.

perfbench/ drives the library through names it imports (data generators,
`ensemble_variance_curve(..., workers=1)`, the CLI, the `BilevelProblem`
callback fields its tracer wraps) and compares each result with its own
numpy reference. Each workload here runs once at seed 0, as a benchmark
repeat does, and must come back with no failed check and its pinned digest.
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


# the artifact digest of each workload at seed 0: a change that keeps the
# library's results keeps these bytes
SEED_0_DIGESTS = {
    "members": "e94b1bb3d89da1316b0cbea0d6c37f10d4a229c5468c740b9963f3ec1b60cdd6",
    "sweep": "67087ba95205ce5c52e5c92ed5236cec9b4109b632d3bb170f271d589660e712",
    "tune": "24af6226d87fef088ee30fc844c6b19767a712ad052aba7f2d4d629ba3dcd037",
    "clean": "0d579e59d394d2c8f39a8ee2050f29ee7465affe8b0ae6784c687766f59e7c8e",
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_checks(name, tmp_path):
    workload = WORKLOADS[name]
    run_dir = tmp_path / name
    run_dir.mkdir()
    result = workload.setup(0, run_dir)()
    assert workload.check(result, run_dir, 0) == []
    assert workload.digest(result, run_dir) == SEED_0_DIGESTS[name]


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
