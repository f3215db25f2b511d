"""One measurement process of the bklab benchmark.

Started by ``run.py`` with the BLAS thread count already pinned in its
environment.  It imports ``bklab`` from the checkout's ``src/``, builds the
workload's seeded inputs, runs one untimed warm-up op and then, in
``measure`` mode, a closed loop: one client, the next op starts when the
previous one returns.  Each output is checked outside the timed region;
failed ops are counted, never retried or dropped.

Prints one JSON object on stdout.  ``ready`` is ``time.monotonic()`` at the
end of the warm-up op; the clock is system-wide on Linux, so the launcher
subtracts the moment it started this process to get the set-up time.
``setup_ref_ms`` is the median time of the reference kernel run just after
that, which the launcher divides the set-up time by.  A traced run writes
its spans to ``perfbench/results/spans-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
WARMUP_OPS = 2
REF_SIZE = 96
SETUP_REF_RUNS = 7


def import_bklab() -> float:
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import bklab
    elapsed = time.perf_counter() - start
    if SRC.resolve() not in Path(bklab.__file__).resolve().parents:
        raise SystemExit(f"bklab was imported from {bklab.__file__}, not from {SRC}")
    return elapsed


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports about itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    counts = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[os.path.basename(path)] = fn()
                break
    return counts


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def reference_kernel():
    """Fixed LAPACK work: the SVD of a seeded complex 96x96 matrix.

    The host's speed drifts by up to 1.4x over seconds to minutes, and the
    drift slows this kernel and the ops alike, so an op's time divided by
    the kernel's time around it is steady where milliseconds are not.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    A = rng.standard_normal((REF_SIZE, REF_SIZE)) + 1j * rng.standard_normal((REF_SIZE, REF_SIZE))
    return lambda: np.linalg.svd(A)


def _time_ms(fn) -> float:
    start = time.perf_counter()
    fn()
    return 1e3 * (time.perf_counter() - start)


def closed_loop(workload, inputs, reference, seconds, tracer=None) -> dict:
    """Run ops until ``seconds`` have passed, and at least one.  The
    reference kernel runs before the first op and after every op, so
    ``ref_ms`` has one entry more than ``latencies_ms`` and op ``i`` sits
    between ``ref_ms[i]`` and ``ref_ms[i + 1]``."""
    latencies, failures = [], []
    ref_ms = [_time_ms(reference)]
    stop = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < stop:
        x = inputs[i % len(inputs)]
        reason = None
        start = time.perf_counter()
        try:
            if tracer is None:
                out = workload.op(x)
            else:
                out = tracer.op(i, lambda: workload.op(x))
        except Exception as exc:  # a raising op is a failed op, not an abort
            out, reason = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        ref_ms.append(_time_ms(reference))
        if out is not None:
            reason = workload.check(x, out)
        latencies.append(1e3 * elapsed)
        if reason is not None:
            failures.append(f"op {i}: {reason}")
        i += 1
    return {"latencies_ms": latencies, "ref_ms": ref_ms, "failures": failures}


def selftest(workload, inputs) -> dict:
    """Show that the output check passes a real output and flags a broken one."""
    out = workload.op(inputs[0])
    good = workload.check(inputs[0], out)
    if workload.name.startswith("be_"):
        out.ratio = float("nan")
    else:
        out[0].right.pop()
    bad = workload.check(inputs[0], out)
    return {"good": good, "bad": bad}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "selftest"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_bklab()
    from tracing import Tracer, layer_metrics, self_time_table
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    if args.mode == "selftest":
        print(json.dumps(selftest(workload, inputs)))
        return 0
    start = time.perf_counter()
    workload.op(inputs[0])
    first_op_s = time.perf_counter() - start
    result = {"ready": time.monotonic(), "import_s": import_s,
              "first_op_s": first_op_s}
    reference = reference_kernel()
    result["setup_ref_ms"] = statistics.median(
        _time_ms(reference) for _ in range(SETUP_REF_RUNS))
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    for i in range(WARMUP_OPS):
        workload.op(inputs[(i + 1) % len(inputs)])
        reference()
    if args.trace == 0:
        result["untraced"] = closed_loop(workload, inputs, reference, args.seconds)
    else:
        # Half the run untraced, half traced: the difference is the overhead.
        half = args.seconds / 2.0
        result["untraced"] = closed_loop(workload, inputs, reference, half)
        tracer = Tracer()
        tracer.install()
        try:
            result["traced"] = closed_loop(workload, inputs, reference, half, tracer)
        finally:
            tracer.uninstall()
        tracer.finish()
        result["layers"] = layer_metrics(tracer.spans)
        result["self_ms"] = self_time_table(tracer.spans)
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.json")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["machine"] = machine_record()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
