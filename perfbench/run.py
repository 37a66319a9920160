"""bihpo benchmark: one workload, several fresh-process repeats, one JSON line.

    python3 perfbench/run.py --workload members|sweep|tune|clean --seed N
                             --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ./src. Each
repeat is a new `python3 perfbench/child.py` process, so setup_s (importing
bihpo and building the inputs) is paid and measured every time. Repeats
continue until --seconds have passed (at least MIN_REPEATS). The first
repeat's outputs are checked, and every later repeat must give the same
artifact digest, which makes its outputs checked too; a repeat with another
digest fails.

--trace 0 reports the end-to-end metrics (medians over the repeats). Each
repeat's timings are scaled to the reference host speed: multiplied by
CALIB_REF_S over the time the child's calibration loops took around the call.
--trace 1 alternates untraced and traced repeats, then runs one tracemalloc repeat if there were hypergradient
estimates, and reports the per-layer metrics.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the lines before it are a readable report. The run's scratch files live
under .perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# At d <= 20 OpenBLAS does not thread; pin one BLAS thread in this process and
# every child so that it stays so and never competes with a pool worker.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_REPEATS = 3
MIN_TRACED = 2
HARD_STOP_S = 150.0  # start no repeat after this; the run must end within 180 s

# The calibration loops' time that defines the reference host speed. On a
# shared 2-core host the loops took 30-60 ms from one minute to the next, and
# the timed calls slowed with them.
CALIB_REF_S = 0.050

END_TO_END_UNITS = {"wall_s": "s", "estimates_per_s": "1/s", "cpu_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_us." in name:
        return "us"
    if name.endswith("_kib_per_estimate"):
        return "KiB"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# What the trace should show, written before measuring (README.md explains).
# zero: layers with no traced time; dominant: layers holding most self time.
PREDICTIONS = {
    "members": {"zero": ("strategies", "output", "config", "cli", "linalg"),
                "dominant": ("problems", "hypergrad")},
    "sweep": {"zero": ("hypergrad", "linalg", "strategies"), "dominant": ("diagnostics",),
              "no_callbacks": True},
    "tune": {"zero": ("diagnostics",), "dominant": ("problems", "hypergrad"),
             "small": ("data",)},
    "clean": {"zero": ("diagnostics", "linalg"), "small": ("data",)},
}
LAYERS = ("data", "problems", "hypergrad", "linalg", "strategies", "diagnostics",
          "output", "config", "cli")


def host_facts() -> list[str]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in BLAS_THREAD_VARS)
    return [
        f"host: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__}",
        f"blas: {blas.get('name')} {blas.get('version')} "
        f"[{blas.get('openblas configuration', '')}] {threads}",
    ]


class Runner:
    """Starts child repeats and keeps their results."""

    def __init__(self, root: Path, workload: str, seed: int, t_start: float):
        self.root, self.workload, self.seed, self.t_start = root, workload, seed, t_start
        self.scratch = root / ".perfbench_runs" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.env.pop("BIHPO_WORKERS", None)
        self.results: list[dict] = []
        self.durations: list[float] = []
        self.checked_digest: str | None = None

    def child(self, mode: str) -> dict:
        run_dir = self.scratch / f"rep{len(self.results)}"
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--run-dir", str(run_dir)]
        if self.checked_digest is None:
            cmd.append("--check")
        t0 = time.perf_counter()
        timeout = max(1.0, 175.0 - (t0 - self.t_start))
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers
            out, err = proc.communicate()
        self.durations.append(time.perf_counter() - t0)
        try:
            res = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            res = {"failures": [f"exit code {proc.returncode}: {err.strip()[-2000:]}"],
                   "digest": None}
        res["mode"] = mode
        spans = run_dir / "spans.npz"
        if spans.exists():
            spans.replace(self.scratch.parent / f"{self.workload}-seed{self.seed}.spans.npz")
        shutil.rmtree(run_dir, ignore_errors=True)
        if self.checked_digest is None:
            if res["digest"] is not None and not res["failures"]:
                self.checked_digest = res["digest"]
        elif res["digest"] != self.checked_digest:
            res["failures"].append(f"artifact digest {str(res['digest'])[:12]} differs from "
                                   f"the checked repeat's {self.checked_digest[:12]}")
        self.results.append(res)
        return res

    def time_for_another(self, deadline: float, children: int = 1) -> bool:
        """Whether `children` more typical repeats still end before the deadline."""
        now = time.perf_counter()
        typical = statistics.median(self.durations) if self.durations else 0.0
        return now - self.t_start < HARD_STOP_S and now + children * typical <= deadline

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(results: list[dict], report: list[str]) -> dict:
    ok = [r for r in results if not r["failures"] and "wall_s" in r] or \
        [r for r in results if "wall_s" in r]
    scale = [CALIB_REF_S / r["calib_s"] for r in ok]
    raw = {
        "wall_s": [r["wall_s"] for r in ok],
        "estimates_per_s": [r["estimates"] / r["wall_s"] for r in ok],
        "cpu_s": [r["cpu_s"] for r in ok],
        "setup_s": [r["setup_s"] for r in ok],
    }
    series = {
        "wall_s": [v * k for v, k in zip(raw["wall_s"], scale)],
        "estimates_per_s": [v / k for v, k in zip(raw["estimates_per_s"], scale)],
        "cpu_s": [v * k for v, k in zip(raw["cpu_s"], scale)],
        "setup_s": [v * k for v, k in zip(raw["setup_s"], scale)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
    }
    calib = [1e3 * r["calib_s"] for r in ok]
    report.append(f"calibration loop: median {_median(calib):.2f} ms "
                  f"(min {min(calib):.2f}, max {max(calib):.2f}); "
                  f"timings below are at {1e3 * CALIB_REF_S:g} ms")
    metrics = {}
    for name, values in series.items():
        q1, q3 = _quartiles(values)
        med = _median(values)
        unscaled = f", unscaled {_median(raw[name]):.6g}" if name in raw else ""
        report.append(f"{name:>16} median {med:.6g} {END_TO_END_UNITS[name]} "
                      f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}{unscaled})")
        metrics[name] = {"value": med, "unit": END_TO_END_UNITS[name]}
    return metrics


def per_layer(results: list[dict], report: list[str], workload: str) -> dict:
    traced = [r for r in results if r["mode"] == "trace" and "layers" in r]
    plain = [r for r in results if r["mode"] == "plain" and "wall_s" in r]
    memory = [r for r in results if r["mode"] == "memory" and "layers" in r]
    layers = {k: _median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
    traced_wall = _median([r["wall_s"] for r in traced])
    layers["trace.wall_s"] = traced_wall
    layers["trace.overhead_s"] = traced_wall - _median([r["wall_s"] for r in plain])
    # without hypergradient estimates there is no per-estimate peak
    layers.update(memory[0]["layers"] if memory else {"hypergrad.peak_kib_per_estimate": 0.0})

    total = sum(layers[f"{m}.self_s"] for m in LAYERS) + layers["trace.root_self_s"]
    share = {m: layers[f"{m}.self_s"] / total if total > 0 else 0.0 for m in LAYERS}
    report.append(f"traced repeats: {len(traced)}, untraced: {len(plain)}; "
                  f"trace.overhead_s {layers['trace.overhead_s']:+.4f}")
    report.append("layer         self_s     share")
    for m in LAYERS:
        report.append(f"{m:<12} {layers[f'{m}.self_s']:8.4f}  {100 * share[m]:6.2f} %")
    report.extend(check_predictions(workload, share, layers))
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}


def check_predictions(workload: str, share: dict, layers: dict) -> list[str]:
    p = PREDICTIONS[workload]
    lines = []

    def verdict(ok, text):
        lines.append(f"prediction {'holds' if ok else 'CONTRADICTED'}: {text}")

    for m in p.get("zero", ()):
        verdict(share[m] == 0.0, f"{m} share is 0 (measured {100 * share[m]:.2f} %)")
    for m in p.get("small", ()):
        verdict(share[m] < 0.05, f"{m} share is under 5 % (measured {100 * share[m]:.2f} %)")
    if p.get("dominant"):
        s = sum(share[m] for m in p["dominant"])
        verdict(s > 0.5, f"{' + '.join(p['dominant'])} hold most self time "
                         f"(measured {100 * s:.1f} %)")
    if p.get("no_callbacks"):
        calls = sum(layers[f"problems.{g}.calls"] for g in ("grad", "hvp", "mixed", "outer"))
        verdict(calls == 0, f"no problems callback runs (measured {calls:g} calls; "
                            f"problems self time {layers['problems.self_s']:.4f} s is "
                            f"build_problem only)")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.perf_counter()

    root = Path.cwd().resolve()
    if not (root / "src" / "bihpo" / "__init__.py").is_file():
        print(f"perfbench: no bihpo sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    report = [f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}", *host_facts()]
    deadline = time.perf_counter() + args.seconds
    runner = Runner(root, wl.name, args.seed, t_start)
    try:
        if args.trace:
            # a pair per round, and room for the slower tracemalloc repeat at the end
            while len([r for r in runner.results if r["mode"] == "trace"]) < MIN_TRACED \
                    or runner.time_for_another(deadline, children=4):
                runner.child("plain")
                runner.child("trace")
            if any(r.get("layers", {}).get("hypergrad.estimates") for r in runner.results):
                runner.child("memory")
        else:
            while len(runner.results) < MIN_REPEATS or runner.time_for_another(deadline):
                runner.child("plain")
    finally:
        runner.close()
    results = runner.results

    for i, r in enumerate(results):
        timing = (f"wall {r['wall_s']:.4f} s cpu {r['cpu_s']:.4f} s setup {r['setup_s']:.4f} s "
                  f"calib {1e3 * r['calib_s']:.1f} ms rss {r['peak_rss_mb']:.1f} MB"
                  if "wall_s" in r else "no timing")
        status = "ok" if not r["failures"] else "FAILED: " + "; ".join(r["failures"])
        report.append(f"repeat {i} {r['mode']:<6} {timing} {status}")
    failed = sum(1 for r in results if r["failures"])
    report.append(f"error_rate {failed}/{len(results)}")
    measured = "layers" if args.trace else "wall_s"
    if not any(measured in r for r in results if r["mode"] != "memory"):
        print("\n".join(report), file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(results, report, wl.name)
    else:
        metrics = end_to_end(results, report)
    print("\n".join(report))
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
