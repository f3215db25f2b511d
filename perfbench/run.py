"""The bklab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Runs one workload (see ``workloads.py``) in a closed loop with one client in
a child process whose BLAS is pinned to one thread through its environment;
the library itself is never told how many threads to use.  Set-up time is
measured on several fresh interpreters and reported as their median.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans are written to ``perfbench/results/``).  Each
metric is printed by name with its unit and sample count; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero without a result when the program cannot be
run, for instance when ``src/bklab`` is missing.

``--smoke`` runs a few ops of every workload in both modes and asserts that
every metric of ``BENCHMARK.json`` is printed with its unit and that the
output checks run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_PROBES = 8          # setup-only interpreters, plus the measuring one
DEADLINE_MARGIN_S = 140.0  # the whole run, children included, beyond --seconds
SMOKE_SECONDS = 0.2       # per workload and mode; every phase runs one op at least
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Op times are gated in units of the reference kernel timed around each op
# (see worker.reference_kernel); the milliseconds are printed beside them.
# Set-up time is divided by the kernel's time in the same interpreter and
# scaled back to seconds on a host where the kernel takes REF_NOMINAL_MS.
REF_NOMINAL_MS = 3.5
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` to completion and return its JSON, with
    ``setup_s`` measured from the moment the interpreter was started."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("time budget exhausted")
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerError(f"worker timed out after {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if "ready" in out:
        out["setup_s"] = out["ready"] - started
    return out


def relative(phase: dict) -> list[float]:
    """Each op's time in units of the mean of the reference kernel runs just
    before and just after it."""
    ref = phase["ref_ms"]
    return [2.0 * op / (ref[i] + ref[i + 1])
            for i, op in enumerate(phase["latencies_ms"])]


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(workload: str, seed: int, seconds: float,
            trace: int) -> tuple[dict, list[str]]:
    """Run the workload and return the result object and report lines."""
    deadline = time.monotonic() + seconds + DEADLINE_MARGIN_S
    base = ["--workload", workload, "--seed", str(seed)]

    def probe():
        return run_worker(base + ["--mode", "setup"], deadline)

    # Half the set-up probes before the measuring process and half after,
    # so that their median spans the host's speed over the whole run.
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    run_args = base + ["--mode", "measure", "--seconds", str(seconds),
                       "--trace", str(trace)]
    main = run_worker(run_args, deadline)
    setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups.append(main)

    phases = [main["untraced"]] + ([main["traced"]] if trace else [])
    attempted = sum(len(p["latencies_ms"]) for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    if attempted == 0:
        raise WorkerError("no op completed within the run")
    untraced = main["untraced"]["latencies_ms"]
    ratios = relative(main["untraced"])
    n_setup = len(setups)

    lines = [f"machine {json.dumps(main['machine'], sort_keys=True)}",
             f"workload {workload} seed {seed} seconds {seconds} trace {trace}: "
             f"attempted {attempted}, failed {len(failures)}, "
             f"fail_fraction {len(failures) / attempted:.4g}"]
    lines += [f"  failure {f}" for f in failures[:20]]
    if trace == 0:
        values = {
            "setup_s": statistics.median(
                s["setup_s"] / s["setup_ref_ms"] * REF_NOMINAL_MS for s in setups),
            "ops_per_kref": 1e3 * len(ratios) / sum(ratios),
            "op_p50_ref": statistics.median(ratios),
            "op_p90_ref": p90(ratios),
            "peak_rss_mb": main["peak_rss_mb"],
            "ok_fraction": 1.0 - len(failures) / attempted,
        }
        samples = {"setup_s": f"median of {n_setup} fresh interpreters, "
                              f"at {REF_NOMINAL_MS} ms per ref",
                   "peak_rss_mb": "measuring process",
                   "ok_fraction": f"{attempted} ops"}
        default = f"{len(untraced)} timed ops"
        units = END_TO_END
        ref_ms = main["untraced"]["ref_ms"]
        ungated = [
            f"  {'setup_raw_s':<40} "
            f"{statistics.median(s['setup_s'] for s in setups):14.6g} s      "
            f"(median of {n_setup} fresh interpreters; ungated)",
            f"  {'ops_per_s':<40} {1e3 * len(untraced) / sum(untraced):14.6g} 1/s    "
            f"({default}; ungated)",
            f"  {'op_ms_p50':<40} {statistics.median(untraced):14.6g} ms     "
            f"({default}; ungated)",
            f"  {'op_ms_p90':<40} {p90(untraced):14.6g} ms     ({default}; ungated)",
            f"  {'reference_ms_p50':<40} {statistics.median(ref_ms):14.6g} ms     "
            f"({len(ref_ms)} reference runs; 1 ref)",
        ]
    else:
        traced = main["traced"]["latencies_ms"]
        traced_ratios = relative(main["traced"])
        values = dict(main["layers"])
        values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        values["setup.first_op_s"] = statistics.median(s["first_op_s"] for s in setups)
        values["trace.op_ms_p50"] = statistics.median(traced)
        # Compared in reference units, so that host drift between the two
        # halves of the run does not pass for tracing cost.
        values["trace.overhead_ms"] = (
            (statistics.median(traced_ratios) - statistics.median(ratios))
            * statistics.median(main["traced"]["ref_ms"]))
        samples = {"setup.import_s": f"median of {n_setup} fresh interpreters",
                   "setup.first_op_s": f"median of {n_setup} fresh interpreters",
                   "trace.op_ms_p50": f"median of {len(traced)} traced ops",
                   "trace.overhead_ms": f"p50 of {len(traced)} traced - "
                                        f"{len(untraced)} untraced ops, in ref units"}
        default = f"mean over {len(traced)} traced ops"
        units = PER_LAYER
        lines.append("  self time per span (ms/op; sums to the traced mean op time "
                     f"{statistics.fmean(traced):.4g} ms):")
        lines += [f"    {name:<48} {ms:10.4f}" for name, ms in main["self_ms"].items()]
        ungated = []
    for name, unit in units.items():
        lines.append(f"  {name:<40} {values[name]:14.6g} {unit:<6} "
                     f"({samples.get(name, default)})")
    lines += ungated
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, lines


def smoke() -> int:
    """Few ops per workload in both modes; assert names, units and checks."""
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    deadline = time.monotonic() + DEADLINE_MARGIN_S
    for workload in WORKLOADS:
        check = run_worker(["--workload", workload, "--seed", "1",
                            "--mode", "selftest"], deadline)
        assert check["good"] is None, f"{workload}: real output rejected: {check}"
        assert check["bad"], f"{workload}: broken output not flagged"
        for trace in (0, 1):
            result, lines = measure(workload, 1, SMOKE_SECONDS, trace)
            printed = "\n".join(lines)
            shown = {line.split()[0]: line.split()[2] for line in lines
                     if line.startswith("  ") and len(line.split()) > 2}
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1 and result["failed"] == 0, printed
            assert result["correct"] is True, printed
            for name, unit in (PER_LAYER if trace else END_TO_END).items():
                metric = result["metrics"][name]
                assert metric["unit"] == unit and math.isfinite(metric["value"]), name
                assert shown.get(name) == unit, f"{name} not printed with {unit}"
            print(f"smoke {workload} trace {trace}: ok "
                  f"({result['attempted']} ops, {len(result['metrics'])} metrics)")
    print("smoke: ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
