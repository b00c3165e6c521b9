"""floerloops benchmark runner.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Every step of every op runs in a fresh interpreter,
started one at a time from this process, as a user runs the CLI.

Untraced (`--trace 0`): one untimed set-up-only spawn to warm up, then ops
in a closed loop (the next op starts when the previous one ended), each
after two set-up-only spawns, for as close to S seconds as whole ops allow:
the next op starts if it would end less than half an op after S.  At least
one op runs.  Prints the end-to-end metrics:

    setup_s      spawn until `floerloops.cli` is imported and the config
                 parsed; median over every spawn of the run
    verdict_s    median over ops of the time from the call to the verdict
    wall_s       median over ops of the time from spawn to exit
    peak_rss_mb  median over ops of the largest peak resident set of the
                 op's processes

Traced (`--trace 1`): one untraced op, then one op with the layer hooks of
`tracing.py` installed; prints the per-layer metrics, including the tracing
overhead (traced minus untraced verdict time).

Every op's outputs are checked (see `workloads.gate`); the share of ops that
fail is printed as `error_rate`.  Without `--workload` all three workloads
run in turn.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SPAWNS_PER_OP = 2
STEP_TIMEOUT_S = 150


class StepError(RuntimeError):
    pass


def run_step(workdir: str, step: workloads.Step, kind: str, trace: bool = False,
             drop: tuple[str, ...] = ()) -> dict:
    """Spawn one step, wait for it, and return its result with the parent's
    spawn-to-exit wall time and set-up time added."""
    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"kind": kind, "argv": list(step.argv), "trace": trace,
                   "drop": list(drop), "result": result_path}, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "opproc.py"), spec_path],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=STEP_TIMEOUT_S,
    )
    wall = time.monotonic() - t0
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        raise StepError(f"op process exited {proc.returncode}: {' | '.join(tail)}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["wall_s"] = wall
    result["setup_s"] = result["setup_end"] - t0
    return result


def run_op(workload: workloads.Workload, steps: list[workloads.Step], workdir: str,
           trace: bool = False, drop: tuple[str, ...] = ()) -> dict:
    """One op: its steps in sequence, with the op-level timings."""
    for s in steps:
        if s.out_file and os.path.exists(s.out_file):
            os.remove(s.out_file)  # a step that stops writing must not pass on old bytes
    t0 = time.monotonic()
    results = [run_step(workdir, s, s.kind, trace, drop) for s in steps]
    wall = time.monotonic() - t0
    outputs = [workloads.step_output(s, r) for s, r in zip(steps, results)]
    op = {
        "results": results,
        "outputs": outputs,
        "verdict_s": sum(r["verdict_s"] for r in results),
        "wall_s": wall,
        "setup_samples": [r["setup_s"] for r in results],
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024.0,
        "env": results[0]["env"],
    }
    if trace:
        op["trace"] = [r["trace"] for r in results]
    return op


def _merge_traces(traces: list[dict]) -> tuple[list, dict, list]:
    spans, counters, missing = [], {}, []
    for t in traces:
        offset = len(spans)
        spans += [[n, s, e, None if p is None else p + offset] for n, s, e, p in t["spans"]]
        for k, v in t["counters"].items():
            counters[k] = counters.get(k, 0) + v
        missing += [m for m in t["missing"] if m not in missing]
    return spans, counters, missing


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 drop: tuple[str, ...] = (), extra_argv: tuple[str, ...] = ()) -> dict:
    """Run one workload; return its counts, failures, environment and
    metrics (`end_to_end` from untraced ops, `per_layer` when traced)."""
    workload = workloads.WORKLOADS[name]
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    setup, ops, failures, reference, attempted = [], [], [], None, 0
    try:
        steps = [workloads.Step(s.kind, s.argv + extra_argv, s.out_file)
                 for s in workload.prepare(workdir, seed)]
        if not trace:
            # one untimed spawn first, so that no timed one pays for a cold
            # page cache or for compiling the package's bytecode
            with contextlib.suppress(StepError, subprocess.TimeoutExpired):
                run_step(workdir, steps[0], "setup")
        start = time.monotonic()
        while True:
            iteration = time.monotonic()
            # set-up-only spawns before every op, so that the set-up samples
            # spread over the run like the ops do
            for _ in range(0 if trace else SETUP_SPAWNS_PER_OP):
                try:
                    setup.append(run_step(workdir, steps[0], "setup")["setup_s"])
                except (StepError, subprocess.TimeoutExpired):
                    break  # the op below fails the same way and is counted
            traced = trace and attempted == 1
            attempted += 1
            op, why = None, None
            try:
                op = run_op(workload, steps, workdir, trace=traced, drop=drop)
                why = workloads.gate(workload, steps, op["results"], op["outputs"], reference)
            except (StepError, subprocess.TimeoutExpired) as exc:
                why = str(exc)
            if why is not None:
                failures.append(why)
            if op is not None:
                reference = reference or workloads.digests(op["outputs"])
                ops.append(op)
                setup += op["setup_samples"]
            now = time.monotonic()
            if trace:
                if attempted == 2:  # one untraced op, then one traced op
                    break
            elif now - start + (now - iteration) / 2 > seconds:
                break  # the next op would end more than half an op after S
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it

    summary = {
        "workload": name, "seed": seed, "attempted": attempted, "failed": len(failures),
        "failures": failures, "env": ops[0]["env"] if ops else {},
        "setup_samples": len(setup),
    }
    untraced = [op for op in ops if "trace" not in op]
    summary["op_samples"] = len(untraced)
    summary["verdict_samples"] = [op["verdict_s"] for op in untraced]
    if untraced:
        summary["end_to_end"] = {
            "setup_s": statistics.median(setup),
            "verdict_s": statistics.median(op["verdict_s"] for op in untraced),
            "wall_s": statistics.median(op["wall_s"] for op in untraced),
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in untraced),
        }
    traced_ops = [op for op in ops if "trace" in op]
    if traced_ops and untraced:
        op = traced_ops[0]
        spans, counters, missing = _merge_traces(op["trace"])
        layers = tracing.layer_metrics(spans, counters, missing)
        bundles = [len(out) for s, out in zip(steps, op["outputs"]) if s.out_file]
        layers["cli.bundle_bytes"] = bundles[0] if bundles else 0
        layers["cli.report_bytes"] = len(op["outputs"][-1])
        layers["trace.verdict_s"] = op["verdict_s"]
        layers["trace.overhead_s"] = op["verdict_s"] - untraced[0]["verdict_s"]
        summary["per_layer"] = {n: layers[n] for n, *_ in tracing.LAYER_METRICS if n in layers}
        summary["missing_hooks"] = missing
    return summary


END_TO_END = {"setup_s": "s", "verdict_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
UNITS = dict(END_TO_END)
UNITS.update({name: unit for name, unit, _better, _moves in tracing.LAYER_METRICS})


def _print_summary(s: dict, trace: bool) -> None:
    rate = s["failed"] / s["attempted"]
    print(f"# workload {s['workload']}  seed {s['seed']}  ops {s['attempted']}  "
          f"failed {s['failed']}")
    for why in s["failures"]:
        print(f"#   failed op: {why}")
    if trace:
        for name, value in s.get("per_layer", {}).items():
            shown = f"{value:,}" if isinstance(value, int) else f"{value:.6g}"
            print(f"{name:42s} {shown:>16s} {UNITS[name]}")
        if s.get("missing_hooks"):
            print(f"# absent (hook target missing): {', '.join(s['missing_hooks'])}")
    else:
        e2e = s.get("end_to_end", {})
        notes = {"setup_s": f"median of {s['setup_samples']} spawns"}
        for name, value in e2e.items():
            note = notes.get(name, f"median of {s['op_samples']} ops")
            print(f"{name:12s} {value:12.6f} {UNITS[name]:3s} ({note})")
        samples = " ".join(f"{v:.3f}" for v in s["verdict_samples"])
        print(f"# verdict_s samples: {samples}")
        print(f"{'error_rate':12s} {rate:12.6f}     ({s['failed']} of {s['attempted']} ops)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None,
                    help="one workload (default: all three in turn)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "floerloops", "cli.py")):
        print(f"error: no floerloops sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    summaries = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    env = dict(next((s["env"] for s in summaries if s["env"]), {}))
    env["FLOERLOOPS_BACKEND"] = os.environ.get("FLOERLOOPS_BACKEND")
    env["nproc"] = len(os.sched_getaffinity(0))
    print(f"# env {json.dumps(env, sort_keys=True)}")
    metrics = {}
    for s in summaries:
        _print_summary(s, bool(args.trace))
        values = s.get("per_layer" if args.trace else "end_to_end", {})
        prefix = "" if args.workload else f"{s['workload']}/"
        metrics.update({prefix + k: {"value": v, "unit": UNITS[k]} for k, v in values.items()})
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
