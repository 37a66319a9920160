"""Per-layer spans and per-estimate memory, recorded from outside the library.

The tracer rebinds bihpo's public functions, in every bihpo module that
imported them, to timing wrappers, so no library file changes. Each layer is
the module a function lives in. A span records its name, start, end and
parent; spans are held in flat arrays and saved once the run ends. A span's
self time is its duration minus the durations of its direct children.

Problem callbacks are closures inside a BilevelProblem, so `build_problem` is
replaced in the cli and diagnostics namespaces by one that returns
`dataclasses.replace(problem, <timed callbacks>)`.

An estimate is one hypergradient: `estimate_hypergrad`, or, inside the
strategies, the `inner_solve` that feeds an ITD/TRHG/AID estimator together
with that estimator, or one `oehg_split_hypergrad`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from array import array
from functools import cached_property

import numpy as np

# (module, attribute) -> span name "<layer>.<group>". Names missing from the
# library (a later version may delete them) are skipped.
FUNCTION_SPANS = {
    ("data", "gen_linear"): "data.gen",
    ("data", "gen_multiclass"): "data.gen",
    ("data", "make_splits"): "data.splits",
    ("data", "carve_holdout"): "data.splits",
    ("data", "corrupt_labels"): "data.other",
    ("data", "subset"): "data.other",
    ("data", "full_view"): "data.other",
    ("hypergrad", "inner_solve"): "hypergrad.inner",
    ("hypergrad", "itd_hypergrad"): "hypergrad.reverse",
    ("hypergrad", "trhg_hypergrad"): "hypergrad.reverse",
    ("hypergrad", "aid_hypergrad"): "hypergrad.aid",
    ("hypergrad", "estimate_hypergrad"): "hypergrad.estimate",
    ("linalg", "cg_solve"): "linalg.solve",
    ("linalg", "fixed_point_solve"): "linalg.solve",
    ("linalg", "dense_solve"): "linalg.dense",
    ("strategies", "run_single"): "strategies.loop",
    ("strategies", "run_ehg"): "strategies.loop",
    ("strategies", "run_oehg"): "strategies.loop",
    ("strategies", "optimizer_step"): "strategies.optimizer",
    ("strategies", "oehg_split_hypergrad"): "strategies.oehg",
    ("diagnostics", "ensemble_variance_curve"): "diagnostics.run",
    ("diagnostics", "bias_variance_sweep"): "diagnostics.run",
    ("diagnostics", "_ridge_oracle_grid"): "diagnostics.oracle",
    ("output", "write_csv"): "output.write",
    ("output", "write_json"): "output.write",
    ("output", "atomic_write_text"): "output.file",
    ("config", "load_config"): "config.load",
    ("config", "config_from_dict"): "config.load",
    ("config", "config_to_dict"): "config.echo",
    ("config", "validate_config"): "config.validate",
    ("config", "parse_grid"): "config.validate",
    ("cli", "main"): "cli.main",
    ("cli", "cmd_tune"): "cli.command",
    ("cli", "cmd_biasvar"): "cli.command",
    ("cli", "cmd_clean"): "cli.command",
    ("cli", "build_dataset"): "cli.command",
}
ORACLE_METHODS = ("theta_hat", "dtheta_dlambda", "val_loss", "hypergrad_eff",
                  "hypergrad_raw", "curvature")
CALLBACK_SPANS = {
    "inner_grad_theta": "problems.grad",
    "inner_hvp": "problems.hvp",
    "inner_mixed_vp": "problems.mixed",
    "inner_loss": "problems.inner_loss",
    "outer_loss": "problems.outer",
    "outer_grad_theta": "problems.outer",
    "outer_grad_lambda": "problems.outer",
}
LAYERS = ("data", "problems", "hypergrad", "linalg", "strategies", "diagnostics",
          "output", "config", "cli")
ESTIMATORS = ("hypergrad.reverse", "hypergrad.aid")
ROOT = "bench.call"


def _bihpo_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "bihpo" or name.startswith("bihpo."))]


def _rebind(old, new) -> None:
    """Point every bihpo module-level name bound to `old` at `new`."""
    for mod in _bihpo_modules():
        for attr in [a for a, v in vars(mod).items() if v is old]:
            setattr(mod, attr, new)


def _functions():
    """Yield (span name, original function) for every wrapped library function."""
    for (modname, attr), span in FUNCTION_SPANS.items():
        fn = getattr(importlib.import_module(f"bihpo.{modname}"), attr, None)
        if fn is not None:
            yield span, fn


class Tracer:
    """Span recorder; `install()` wraps the library, `summary()` aggregates."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.failed: list[int] = []
        self.estimate_s: list[float] = []
        self.solve_iters: list[int] = []
        self.solve_converged = 0
        self.bytes_written = 0
        self._pending_inner: float | None = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        nid = self._id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, failed, clock = self.stack, self.failed, time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end[i] = clock()
                stack.pop()
                failed.append(i)
                raise
            end[i] = clock()
            stack.pop()
            if after is not None:
                after(i, args, kwargs, out)
            return out

        return functools.update_wrapper(traced, fn)

    # -- hooks run after a span ends ------------------------------------

    def _parent_is(self, i: int, name: str) -> bool:
        p = self.parent[i]
        return p >= 0 and self.names[self.name_of[p]] == name

    def _after_inner(self, i, args, kwargs, out):
        if not self._parent_is(i, "hypergrad.estimate"):
            self._pending_inner = self.start[i]

    def _after_estimator(self, i, args, kwargs, out):
        if self._parent_is(i, "hypergrad.estimate"):
            return
        t0 = self._pending_inner if self._pending_inner is not None else self.start[i]
        self._pending_inner = None
        self.estimate_s.append(self.end[i] - t0)

    def _after_estimate(self, i, args, kwargs, out):
        self.estimate_s.append(self.end[i] - self.start[i])

    def _after_loop(self, i, args, kwargs, out):
        self._pending_inner = None

    def _solve_hook(self, fn):
        signature = inspect.signature(fn)

        def after(i, args, kwargs, out):
            # a solve converged if it stopped before its iteration cap
            max_iters = signature.bind(*args, **kwargs).arguments["max_iters"]
            iters = int(out[1])
            self.solve_iters.append(iters)
            self.solve_converged += iters < max_iters

        return after

    def _after_file(self, i, args, kwargs, out):
        text = kwargs["text"] if "text" in kwargs else args[1]
        self.bytes_written += len(text.encode("utf-8"))

    def install(self) -> None:
        import bihpo.cli
        import bihpo.diagnostics
        from bihpo.data import DataView
        from bihpo.diagnostics import RidgeOracle

        hooks = {
            "hypergrad.inner": self._after_inner,
            "hypergrad.reverse": self._after_estimator,
            "hypergrad.aid": self._after_estimator,
            "strategies.oehg": self._after_estimator,
            "hypergrad.estimate": self._after_estimate,
            "strategies.loop": self._after_loop,
            "output.file": self._after_file,
        }
        for span, fn in list(_functions()):
            hook = self._solve_hook(fn) if span == "linalg.solve" else hooks.get(span)
            _rebind(fn, self.wrap(span, fn, hook))
        for meth in ORACLE_METHODS:
            setattr(RidgeOracle, meth, self.wrap("diagnostics.oracle", getattr(RidgeOracle, meth)))
        gram = cached_property(self.wrap("data.gram", DataView.__dict__["gram"].func))
        gram.__set_name__(DataView, "gram")
        DataView.gram = gram

        build = self.wrap("problems.build", bihpo.diagnostics.build_problem)
        wrap = self.wrap

        def build_problem(spec, feature_dim):
            problem = build(spec, feature_dim)
            return dataclasses.replace(problem, **{
                field: wrap(span, getattr(problem, field))
                for field, span in CALLBACK_SPANS.items()
            })

        bihpo.cli.build_problem = build_problem
        bihpo.diagnostics.build_problem = build_problem

    def call(self, fn):
        """Run the timed call under the root span."""
        return self.wrap(ROOT, fn)()

    # -- results --------------------------------------------------------

    def save(self, path) -> None:
        np.savez(path, run_id=self.run_id, names=np.array(self.names),
                 name=np.frombuffer(self.name_of, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))

    def summary(self) -> dict:
        """Per-layer metrics of one traced call (see README.md for each name)."""
        n_names = len(self.names)
        name = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = np.bincount(name, weights=dur - covered, minlength=n_names)
        # a call of a group is a span whose parent is not of the same group
        outermost = ~has_parent | (name[np.where(has_parent, parent, 0)] != name)
        calls = np.bincount(name[outermost], minlength=n_names)

        def group(g):
            i = self._ids.get(g)
            return (0, 0.0) if i is None else (int(calls[i]), float(self_t[i]))

        def layer_self(layer):
            return sum(float(self_t[i]) for n, i in self._ids.items() if n.split(".")[0] == layer)

        def durations_us(prefix):
            ids = [i for n, i in self._ids.items() if n.startswith(prefix) and n != "problems.build"]
            return dur[np.isin(name, ids)] * 1e6

        estimates = len(self.estimate_s)
        est_us = np.array(self.estimate_s) * 1e6
        call_us = durations_us("problems.")
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self(layer)
        for g in ("data.gen", "data.splits", "data.gram", "hypergrad.inner",
                  "hypergrad.reverse", "hypergrad.aid", "linalg.solve", "diagnostics.oracle"):
            m[f"{g}.calls"], m[f"{g}.self_s"] = group(g)
        for g in ("grad", "hvp", "mixed", "outer", "inner_loss"):
            m[f"problems.{g}.calls"] = group(f"problems.{g}")[0]
        for g in ("grad", "hvp", "mixed"):
            m[f"problems.{g}_per_estimate"] = (
                m[f"problems.{g}.calls"] / estimates if estimates else 0.0)
        m["problems.call_us.p50"] = float(np.median(call_us)) if call_us.size else 0.0
        m["hypergrad.estimates"] = estimates
        m["hypergrad.estimate_us.p50"] = float(np.median(est_us)) if estimates else 0.0
        m["hypergrad.estimate_us.p99"] = float(np.percentile(est_us, 99)) if estimates else 0.0
        hyper_ids = {self._ids[n] for n in ("hypergrad.inner", "hypergrad.estimate",
                                            *ESTIMATORS, "strategies.oehg") if n in self._ids}
        m["hypergrad.failed"] = sum(1 for i in self.failed if self.name_of[i] in hyper_ids)
        m["linalg.solve.iters_mean"] = (
            float(np.mean(self.solve_iters)) if self.solve_iters else 0.0)
        m["linalg.solve.converged_ratio"] = (
            self.solve_converged / len(self.solve_iters) if self.solve_iters else 0.0)
        m["strategies.outer_steps"], m["strategies.optimizer.self_s"] = group("strategies.optimizer")
        m["strategies.loop.self_s"] = group("strategies.loop")[1]
        m["output.writes"] = group("output.file")[0]
        m["output.bytes"] = self.bytes_written
        m["trace.spans"] = int(dur.size)
        m["trace.root_self_s"] = group(ROOT)[1]
        return m


class MemoryProbe:
    """tracemalloc peak per estimate, with the estimate boundaries of Tracer.

    Only the estimate boundaries are wrapped, and nothing is recorded inside an
    estimate, so the probe's own bookkeeping does not enter the peaks.
    """

    def __init__(self):
        self.peaks: list[int] = []
        self._base: int | None = None
        self._depth = 0  # > 0 inside estimate_hypergrad

    def _open(self):
        tracemalloc.reset_peak()
        self._base = tracemalloc.get_traced_memory()[0]

    def _close(self):
        if self._base is not None:
            self.peaks.append(tracemalloc.get_traced_memory()[1] - self._base)
        self._base = None

    def _wrap(self, span, fn):
        probe = self

        if span == "hypergrad.estimate":
            def wrapped(*args, **kwargs):
                probe._open()
                probe._depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    probe._depth -= 1
                    probe._close()
        elif span == "hypergrad.inner":
            def wrapped(*args, **kwargs):
                if not probe._depth:
                    probe._open()
                return fn(*args, **kwargs)
        elif span == "strategies.oehg":
            def wrapped(*args, **kwargs):
                probe._open()
                out = fn(*args, **kwargs)
                probe._close()
                return out
        else:  # ITD/TRHG/AID estimators close the window their inner solve opened
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                if not probe._depth:
                    probe._close()
                return out
        return functools.update_wrapper(wrapped, fn)

    def install(self) -> None:
        for span, fn in list(_functions()):
            if span in ("hypergrad.estimate", "hypergrad.inner", "strategies.oehg", *ESTIMATORS):
                _rebind(fn, self._wrap(span, fn))

    def call(self, fn):
        tracemalloc.start()
        try:
            return fn()
        finally:
            tracemalloc.stop()

    def summary(self) -> dict:
        peak_kib = float(np.median(self.peaks)) / 1024.0 if self.peaks else 0.0
        return {"hypergrad.peak_kib_per_estimate": peak_kib}
