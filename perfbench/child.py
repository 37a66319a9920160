"""One repeat of one workload in a fresh process; prints one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --mode plain|trace|memory
                               --run-dir DIR [--check]

Started by run.py from the checkout root with PYTHONPATH=src. setup_s runs
from the first statement here, before bihpo is imported, until the timed
call starts. The calibration loops run right before and right after the
timed call, outside both setup_s and wall_s; run.py scales the timings by them.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _rusage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss)


def calibration_s(array_share: float) -> float:
    """Seconds of fixed loops that stand for the host's speed now.

    On a busy shared host the interpreter loop (pure Python plus tiny numpy
    calls) slows by more than the array loop (softmax and matmuls on 750 x 20).
    The workload's `calib_array_share` weights the two so that the mix slows
    like its call; at the reference speed each loop takes about 40 ms.
    """
    import numpy as np

    total = 0.0
    if array_share < 1.0:
        A = np.arange(100.0).reshape(10, 10) / 100.0
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        v = np.ones(10)
        for _ in range(5_000):
            v = A @ v
            v = v / np.linalg.norm(v)
        total += (1.0 - array_share) * (time.perf_counter() - t0)
    if array_share > 0.0:
        X = np.linspace(-1.0, 1.0, 750 * 20).reshape(750, 20)
        W = np.full((20, 4), 0.01)
        t0 = time.perf_counter()
        for _ in range(400):
            Z = X @ W
            Z = Z - Z.max(axis=1, keepdims=True)
            P = np.exp(Z)
            P /= P.sum(axis=1, keepdims=True)
            W = W - 1e-3 * (X.T @ P)
        total += array_share * (time.perf_counter() - t0)
    return total


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "trace", "memory"), required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--check", action="store_true", help="check outputs, not only digest them")
    args = ap.parse_args()
    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    import bihpo
    from workloads import WORKLOADS

    src = Path.cwd().resolve() / "src"
    if Path(bihpo.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"imported bihpo from {bihpo.__file__}, not from {src}")
    wl = WORKLOADS[args.workload]
    call = wl.setup(args.seed, run_dir)
    setup_s = time.perf_counter() - T_START
    calib_before = calibration_s(wl.calib_array_share)

    probe = None
    if args.mode == "trace":
        from tracing import Tracer
        probe = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
    elif args.mode == "memory":
        from tracing import MemoryProbe
        probe = MemoryProbe()
    if probe is not None:
        probe.install()

    cpu0, _ = _rusage()
    t0 = time.perf_counter()
    error = None
    try:
        result = probe.call(call) if probe is not None else call()
    except Exception:  # the run fails; the benchmark reports it and goes on
        result, error = None, traceback.format_exc(limit=4)
    wall_s = time.perf_counter() - t0
    cpu1, maxrss_kib = _rusage()
    calib_after = calibration_s(wl.calib_array_share)

    out = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu1 - cpu0,
           "calib_s": (calib_before + calib_after) / 2,
           "peak_rss_mb": maxrss_kib / 1024.0, "estimates": wl.estimates}
    if error is None:
        out["digest"] = wl.digest(result, run_dir)
        out["failures"] = wl.check(result, run_dir, args.seed) if args.check else []
    else:
        out["digest"] = None
        out["failures"] = [f"raised: {error}"]
    if args.mode == "trace":
        probe.save(run_dir / "spans.npz")
    if probe is not None:
        out["layers"] = probe.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
