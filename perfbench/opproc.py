"""One benchmark step in a fresh interpreter.

    python3 perfbench/opproc.py SPEC.json

SPEC is written by `run.py` and names the step:

    {"kind": "cli" | "oracle" | "setup", "argv": [...], "trace": bool,
     "drop": ["module:attr", ...], "result": "path/to/result.json"}

The process imports `floerloops.cli` and parses the step's config, which
ends set-up; for a `setup` step that is all it does.  A `cli` step then
calls `floerloops.cli.main(argv)` with standard output captured, and an
`oracle` step runs the raster, Maslov and rescaling oracles on the
acceptance geometry.  The result file gets the set-up end time on the
monotonic clock (which the parent shares), the verdict time, the exit
code, the program's output, the peak resident memory and, when traced,
the spans and counters of `tracing.Tracer`.

`drop` deletes package attributes before tracing is installed; the
self-checks use it to stand in for a function a later change removes.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

ORACLE_GEOMETRY = (Fraction(1), (Fraction(0), Fraction(1, 3), Fraction(3, 4)))
ORACLE_WINDING = 3
ORACLE_RESOLUTIONS = (192, 384)
ORACLE_RHOS = (1, 2, 4)


def _environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        from floerloops import _kernels
        backend = _kernels.backend_name()
    except (ImportError, AttributeError):
        backend = "absent"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "raster_backend": backend,
    }


def _run_oracles() -> tuple[int, str]:
    """The oracle sweep; returns (exit code, canonical JSON verdict)."""
    from floerloops.cylinder import (
        CylinderGeometry,
        maslov_cross_check,
        raster_cross_check,
        structure_constants,
    )

    c, fibers = ORACLE_GEOMETRY
    g = CylinderGeometry(c, fibers)
    rows = []
    raster = raster_cross_check(g, ORACLE_WINDING, ORACLE_RESOLUTIONS)
    rows.append({"name": raster.name, "status": "pass" if raster.ok else "fail",
                 "details": raster.details, "witness": raster.witness})
    constants = {}
    for rho in ORACLE_RHOS:
        scaled = g.rescaled(Fraction(rho))
        maslov = maslov_cross_check(scaled, ORACLE_WINDING)
        rows.append({"name": f"{maslov.name}@rho={rho}",
                     "status": "pass" if maslov.ok else "fail",
                     "details": maslov.details, "witness": maslov.witness})
        constants[rho] = structure_constants(scaled, ORACLE_WINDING)
    base = constants[ORACLE_RHOS[0]]
    invariant = bool(base) and all(constants[rho] == base for rho in ORACLE_RHOS)
    rows.append({"name": "rescaling-invariance", "status": "pass" if invariant else "fail",
                 "details": {"pairs": len(base), "rhos": list(ORACLE_RHOS)},
                 "witness": None})
    doc = {"kind": "oracle_report", "reports": rows,
           "structure_constants": sorted(repr(kv) for kv in base.items())}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=repr) + "\n"
    return (0 if all(r["status"] == "pass" for r in rows) else 1), text


def _parse_config(cli, argv: list[str]) -> None:
    """Parse the step's arguments and config file as the CLI does.  Where a
    later version no longer has these two functions, set-up ends after the
    import instead of crashing the benchmark."""
    build_parser = getattr(cli, "build_parser", None)
    load_run_config = getattr(cli, "load_run_config", None)
    if build_parser is not None and load_run_config is not None:
        load_run_config(build_parser().parse_args(argv))


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result: dict = {"kind": spec["kind"]}

    from floerloops import cli

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"floerloops was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    if spec["kind"] == "oracle":
        from floerloops.cylinder import CylinderGeometry
        CylinderGeometry(*ORACLE_GEOMETRY)
    else:
        _parse_config(cli, spec["argv"])
    result["setup_end"] = time.monotonic()
    result["env"] = _environment()

    if spec["kind"] != "setup":
        for target in spec.get("drop", []):
            modname, attr = target.split(":")
            delattr(importlib.import_module(modname), attr)
        tracer = None
        if spec.get("trace"):
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            if spec["kind"] == "oracle":
                code, text = _run_oracles()
                out.write(text)
            else:
                with contextlib.redirect_stdout(out):
                    code = cli.main(spec["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the op crashed: record it; run.py counts it failed
            result["crash"] = traceback.format_exc()
            code = None
        result["verdict_s"] = time.perf_counter() - t0
        result["exit_code"] = code
        result["stdout"] = out.getvalue()
        if tracer is not None:
            result["trace"] = {"spans": tracer.spans, "counters": dict(tracer.counters),
                               "missing": tracer.missing}
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
