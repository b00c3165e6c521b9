"""Self-checks for the benchmark itself (about three minutes on two cores).

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  Prints one PASS/FAIL line per
check and exits 1 if any failed.  Not collected by pytest: the benchmark
is not part of the package's test suite.
"""

from __future__ import annotations

import json
import os
import sys

import run
import tracing
import workloads

HELD_OUT_SEED = 1234567


def check_mutation_counts_as_failed() -> str | None:
    """A corrupted mu_2 sign must fail the gate, so an op cannot get faster
    by skipping work and still pass."""
    s = run.run_workload("acceptance-3fibre", 0, 0.0, trace=False,
                         extra_argv=("--mutate", "mu2-sign", "--winding", "1"))
    if s["attempted"] != 1 or s["failed"] != 1:
        return f"attempted {s['attempted']}, failed {s['failed']}: {s['failures']}"
    return None


def check_traced_counters_repeat() -> str | None:
    counts = []
    for _ in range(2):
        s = run.run_workload("acceptance-3fibre", 0, 0.0, trace=True)
        if s["failed"]:
            return f"traced run failed: {s['failures']}"
        units = dict((n, u) for n, u, _b, _m in tracing.LAYER_METRICS)
        counts.append({k: v for k, v in s["per_layer"].items() if units[k] != "s"})
    if counts[0] != counts[1]:
        diff = {k: (v, counts[1].get(k)) for k, v in counts[0].items() if counts[1].get(k) != v}
        return f"counters differ: {diff}"
    if counts[0]["ainfty.tuples.cylinder.d4"] != 583443:
        return f"acceptance config has 583443 d=4 cylinder tuples, traced {counts[0]}"
    return None


def check_missing_hook_is_absent() -> str | None:
    """A removed layer function is reported as absent metrics, not a crash."""
    target = "floerloops._kernels:triangle_grid_count"
    s = run.run_workload("acceptance-3fibre", 0, 0.0, trace=True, drop=(target,),
                         extra_argv=("--winding", "1"))
    if s["failed"]:
        return f"op failed: {s['failures']}"
    kernels = [m for m in s["per_layer"] if m.startswith("kernels.")]
    if kernels or s["missing_hooks"] != [target]:
        return f"kernel metrics {kernels}, missing hooks {s['missing_hooks']}"
    if "ainfty.tuples.tw.d2" not in s["per_layer"]:
        return "metrics of the other layers are missing"
    return None


def check_held_out_seed_passes() -> str | None:
    s = run.run_workload("bundle-roundtrip", HELD_OUT_SEED, 0.0, trace=False)
    if s["failed"]:
        return f"seed {HELD_OUT_SEED} failed: {s['failures']}"
    return None


def check_gate_compares_bytes() -> str | None:
    wl = workloads.WORKLOADS["acceptance-3fibre"]
    steps = [workloads.Step("cli", ("check-all",))]
    rows = [{"name": n, "status": "pass"} for n in workloads.CHECK_NAMES]
    out = json.dumps({"reports": rows}).encode()
    ok = [{"exit_code": 0}]
    if workloads.gate(wl, steps, ok, [out], None) is not None:
        return "a correct op was refused"
    if workloads.gate(wl, steps, ok, [out], workloads.digests([b"other"])) is None:
        return "changed report bytes were accepted"
    short = json.dumps({"reports": rows[:-1]}).encode()
    if workloads.gate(wl, steps, ok, [short], None) is None:
        return "a report without the functor check was accepted"
    return None


def check_benchmark_json_matches() -> str | None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    layers = [[m["name"], m["unit"], m["better"]] for m in doc["per_layer"]]
    if layers != [[n, u, b] for n, u, b, _m in tracing.LAYER_METRICS]:
        return "per_layer differs from tracing.LAYER_METRICS"
    if {w["name"]: w["why"] for w in doc["workloads"]} != {
            n: w.why for n, w in workloads.WORKLOADS.items()}:
        return "workloads differ from workloads.WORKLOADS"
    if [m["name"] for m in doc["end_to_end"]] != list(run.END_TO_END):
        return "end_to_end differs from run.END_TO_END"
    return None


CHECKS = [
    check_gate_compares_bytes,
    check_benchmark_json_matches,
    check_mutation_counts_as_failed,
    check_traced_counters_repeat,
    check_missing_hook_is_absent,
    check_held_out_seed_passes,
]


def main() -> int:
    bad = 0
    for check in CHECKS:
        why = check()
        bad += why is not None
        print(f"{'PASS' if why is None else 'FAIL'} {check.__name__}" + (f": {why}" if why else ""),
              flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
