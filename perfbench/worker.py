"""One run of one workload, in a process of its own; run.py starts it.

It sets the workload up, prints a ``ready`` message with the wall-clock
time, then (unless --setup-only) solves the reference batch, runs the
timed closed loop for --seconds and prints a ``result`` message. With
--trace 1 every op of the loop runs twice, untraced and then traced, and
the result adds per-layer figures from the traced runs. Messages are
JSON lines on stdout carrying a "perfbench" key.
"""

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import hsrfusion  # noqa: E402

if not Path(hsrfusion.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"hsrfusion imported from {hsrfusion.__file__}, not from {ROOT / 'src'}")

import tracing  # noqa: E402
import workloads  # noqa: E402


def emit(kind, **payload):
    print(json.dumps({"perfbench": kind, **payload}), flush=True)


@dataclass
class OpRecord:
    index: int
    seconds: float
    problems: list
    output: object


def run_op(workload, state, seed, index, tracer=None, reference=None):
    """Time one op, then check it untimed; an op that raises has failed."""
    start = perf_counter()
    output = None
    try:
        with tracer.op(index) if tracer else nullcontext():
            output = workload.run_op(state, seed, index)
        seconds = perf_counter() - start
        with tracer.paused() if tracer else nullcontext():
            problems = workload.finish(output, reference)
    except Exception:  # the loop must go on; the op counts as failed
        seconds = perf_counter() - start
        problems = [traceback.format_exc(limit=4)]
    for problem in problems:
        print(f"{workload.name} seed {seed} op {index}: {problem}", file=sys.stderr)
    return OpRecord(index, seconds, problems, output)


def timed_loop(workload, state, seed, budget_s, after=None):
    """Whole rounds of ops until the next round would end nearer to past
    the budget than the loop now stands short of it. ``after`` is called
    with each op's record, inside the measured time."""
    records = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        rounds = len(records) // workload.round_size
        if rounds and elapsed + elapsed / rounds / 2.0 >= budget_s:
            return records, elapsed
        for _ in range(workload.round_size):
            records.append(run_op(workload, state, seed, len(records)))
            if after is not None:
                after(records[-1])


def measure(workload, state, workdir, args):
    patcher = tracing.Patcher(tracing.package_modules())
    workload.install_hooks(patcher)
    reference = workload.reference or [None] * workload.reference_ops
    batch = [run_op(workload, state, workloads.DEFAULT_SEED, i, reference=reference[i])
             for i in range(workload.reference_ops)]
    objective_final, mse = workload.quality([r.output for r in batch])

    replay = []
    after = None
    if args.trace:
        tracer = tracing.Tracer()

        def traced(call):
            patcher.undo()
            tracer.install(patcher)
            workload.install_hooks(patcher)
            try:
                return call()
            finally:
                patcher.undo()
                workload.install_hooks(patcher)

        traced_state = traced(lambda: workload.setup(workdir))

        # Each op runs again traced right after its untraced run, on the
        # same inputs, so a slow spell of the machine hits both alike.
        def after(record):
            replay.append(traced(
                lambda: run_op(workload, traced_state, args.seed, record.index, tracer)))

    timed, wall = timed_loop(workload, state, args.seed, args.seconds, after)
    patcher.undo()
    records = batch + timed + replay
    result = {
        "op_seconds": [r.seconds for r in timed],
        "timed_ok": sum(not r.problems for r in timed),
        "timed_wall_s": wall,
        "objective_final": objective_final,
        "mse": mse,
        "attempted": len(records),
        "failed": sum(bool(r.problems) for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        tracer.write(Path(args.out) / f"spans-{workload.name}-seed{args.seed}.jsonl")
        overhead = 1.0 - sum(r.seconds for r in timed) / sum(r.seconds for r in replay)
        result["per_layer"] = tracing.layer_metrics(tracer.spans, overhead)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="directory for scratch files and spans")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.small)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out))
    try:
        state = workload.setup(workdir)
        emit("ready", time=time.time())
        if not args.setup_only:
            emit("result", **measure(workload, state, workdir, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
