"""The benchmark's workloads run on this library and pass their own output checks.

perfbench/ drives the library through names it imports (data generators,
`ensemble_variance_curve(..., workers=1)`, the CLI, the `BilevelProblem`
callback fields its tracer wraps) and compares each result with its own
numpy reference. Each workload here runs once at seed 0, as a benchmark
repeat does, and must come back with no failed check.
"""

import dataclasses
import sys
from functools import cached_property
from pathlib import Path

import pytest

from bihpo.data import DataView
from bihpo.problems import BilevelProblem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from tracing import CALLBACK_SPANS  # noqa: E402
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
