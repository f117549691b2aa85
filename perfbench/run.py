"""hsrfusion benchmark: one workload per call, run from the repository root.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in a worker process of its own, so its peak RSS is its
own. Set-up time is measured from spawning a worker to its ``ready``
message, over set-up-only workers started before and after the measuring
one plus that one, and reported as the median. The last line of stdout is
the result: ``{"correct", "attempted", "failed", "metrics"}``, where the
metrics are the end-to-end ones of BENCHMARK.json with --trace 0 and the
per-layer ones with --trace 1. The lines before it give the environment
and the median op time with its sample count; the whole record goes into
.bench_out/ at the repository root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("desk-sweep", "scene-64", "certify-files")
# Set-up-only workers on each side of the measuring one, so that the
# samples straddle the run rather than one spell of a busy host.
SETUP_PROBES = 3
DEADLINE_S = 170.0


def spawn(argv, deadline):
    """Run a worker; returns (seconds from spawn to ready, result or None)."""
    start = time.time()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {argv} ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv} exited with code {proc.returncode}")
    messages = {}
    for line in stdout.splitlines():
        if line.startswith('{"perfbench"'):
            message = json.loads(line)
            messages[message.pop("perfbench")] = message
    return messages["ready"]["time"] - start, messages.get("result")


def run_workload(name, seed, seconds, trace, small, out, deadline):
    base = ["--workload", name, "--seed", str(seed), "--out", str(out)]
    if small:
        base.append("--small")
    probes = 0 if trace else SETUP_PROBES
    probe = [*base, "--seconds", "0", "--setup-only"]
    setup = [spawn(probe, deadline)[0] for _ in range(probes)]
    ready, result = spawn([*base, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setup.append(ready)
    setup += [spawn(probe, deadline)[0] for _ in range(probes)]
    result["setup_samples_s"] = setup
    return result


def metrics(spec, result, trace):
    if trace:
        values = result["per_layer"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(result["setup_samples_s"]),
            "ops_per_s": result["timed_ok"] / result["timed_wall_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "objective_final": result["objective_final"],
            "mse": result["mse"],
        }
        wanted = spec["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (no .git in this checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref} not found)"


def environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get(
            "OPENBLAS_NUM_THREADS", f"OPENBLAS_NUM_THREADS unset (default: {nproc})"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="hsrfusion benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="smallest size of each workload, for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "hsrfusion" / "__init__.py").is_file():
        print(f"error: no hsrfusion sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    env = environment(args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, args.small, out, deadline)
        line = {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics(spec, result, args.trace),
        }
        # The median op time is reported, not bounded: on a host whose speed
        # switches between two levels for seconds at a time, the median of a
        # run jumps between them, so its spread across runs exceeds any
        # bound the benchmark may set; the mean behind ops_per_s does not.
        op_time = {"workload": name, "op_s_p50": statistics.median(result["op_seconds"]),
                   "unit": "s", "op_samples": len(result["op_seconds"])}
        record = {"environment": env, **op_time, "worker": result, **line}
        (out / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(json.dumps({"perfbench": "environment", "workload": name, **env}))
        print(json.dumps({"perfbench": "op_time", **op_time}))
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
