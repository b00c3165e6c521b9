"""Outside-in layer tracing for the floerloops benchmark.

The op process calls `install(tracer)` after importing `floerloops.cli` and
before running the op.  Each hook rebinds one public function or method of
the package: the rebinding is made on the defining module or class and on
every `floerloops.*` module that imported the same object by name, so
`from .ainfty import check_ainfty` call sites see the wrapper too.  No file
of the package changes.

Layer boundaries get spans (name, start, end, parent); calls inside the hot
loops (each `mu_fn` call, `Chain.__add__`, `Chain.__init__`) get counters
only.  A hook whose target no longer exists is recorded as missing and the
metrics it feeds are reported as absent, not as zero.

`layer_metrics` turns the spans and counters an op wrote out into the
per-layer metrics listed in `LAYER_METRICS`; self time is a span's duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

CATEGORIES = ("cylinder", "imported", "tw")

# (name, unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS: list[tuple[str, str, str, str]] = [
    ("gradedalg.chain_add_calls", "count", "lower",
     "verdict_s on acceptance-3fibre and bundle-roundtrip"),
    ("gradedalg.chain_init_calls", "count", "lower",
     "verdict_s on acceptance-3fibre and bundle-roundtrip"),
]
_CAT_MOVES = {
    "cylinder": "verdict_s on acceptance-3fibre",
    "imported": "verdict_s on bundle-roundtrip",
    "tw": "verdict_s on bundle-roundtrip, then acceptance-3fibre",
}
for _cat in CATEGORIES:
    LAYER_METRICS += [
        (f"ainfty.tuples.{_cat}.d{d}", "count", "lower", _CAT_MOVES[_cat])
        for d in range(1, 5)
    ]
for _cat in CATEGORIES:
    LAYER_METRICS += [
        (f"ainfty.mu_calls.{_cat}", "count", "lower", _CAT_MOVES[_cat]),
        (f"ainfty.mu_nonzero.{_cat}", "count", "lower", _CAT_MOVES[_cat]),
        (f"ainfty.mu_useful_ratio.{_cat}", "ratio", "higher", _CAT_MOVES[_cat]),
        (f"ainfty.check_ainfty.{_cat}_s", "s", "lower", _CAT_MOVES[_cat]),
    ]
LAYER_METRICS += [
    ("ainfty.check_functor_s", "s", "lower", "verdict_s on acceptance-3fibre"),
    ("ainfty.functor_tuples", "count", "lower", "verdict_s on acceptance-3fibre"),
    ("ainfty.category_from_json_s", "s", "lower", "verdict_s on bundle-roundtrip"),
    ("twisted.check_tw_dg_s", "s", "lower",
     "verdict_s on bundle-roundtrip, then acceptance-3fibre"),
    ("twisted.validate_twisted_s", "s", "lower",
     "verdict_s on bundle-roundtrip, then acceptance-3fibre"),
    ("twisted.tw_category_s", "s", "lower",
     "verdict_s on bundle-roundtrip, then acceptance-3fibre"),
    ("twisted.mu2_composable_ratio", "ratio", "higher",
     "verdict_s on bundle-roundtrip, then acceptance-3fibre"),
    ("pontryagin.validate_path_model_s", "s", "lower", "verdict_s on acceptance-3fibre"),
    ("pontryagin.concat_gens_calls", "count", "lower", "verdict_s on acceptance-3fibre"),
    ("moduli.choose_fundamental_chains_s", "s", "lower",
     "no end-to-end metric: at most 1.5% of any workload"),
    ("moduli.verify_boundary_consistency_s", "s", "lower",
     "no end-to-end metric: at most 1.5% of any workload"),
    ("moduli.datasets", "count", "lower",
     "no end-to-end metric: at most 1.5% of any workload"),
    ("cylinder.category_build_s", "s", "lower", "verdict_s on acceptance-3fibre"),
    ("cylinder.functor_F_s", "s", "lower", "verdict_s on acceptance-3fibre"),
    ("cylinder.mu_d_calls", "count", "lower", "verdict_s on acceptance-3fibre"),
    ("cylinder.memo_hit_ratio", "ratio", "higher", "verdict_s on acceptance-3fibre"),
    ("cylinder.raster_cross_check_s", "s", "lower", "verdict_s on oracle-sweep"),
    ("cylinder.structure_constants_s", "s", "lower", "verdict_s on oracle-sweep"),
    ("cylinder.maslov_cross_check_s", "s", "lower", "verdict_s on oracle-sweep"),
    ("kernels.triangle_grid_count_calls", "count", "lower", "verdict_s on oracle-sweep"),
    ("kernels.triangle_grid_count_s", "s", "lower", "verdict_s on oracle-sweep"),
    ("kernels.grid_points_computed", "count", "lower", "verdict_s on oracle-sweep"),
    ("cli.load_config_s", "s", "lower", "verdict_s on bundle-roundtrip; setup_s everywhere"),
    ("cli.emit_s", "s", "lower", "verdict_s on bundle-roundtrip"),
    ("cli.export_s", "s", "lower", "verdict_s on bundle-roundtrip"),
    ("cli.bundle_load_s", "s", "lower", "verdict_s on bundle-roundtrip"),
    ("cli.bundle_bytes", "bytes", "lower", "verdict_s on bundle-roundtrip"),
    ("cli.report_bytes", "bytes", "lower", "verdict_s on bundle-roundtrip"),
    ("trace.verdict_s", "s", "lower", "none: the traced op's own verdict time"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced verdict_s"),
]


class Tracer:
    """Spans and counters of one op process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def close(self, rec: list) -> None:
        self._stack.pop()
        rec[2] = time.perf_counter()

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(rec)
        return wrapped

    def count(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapped


def _category_label(cat) -> str:
    if cat.name == "imported":
        return "imported"
    if cat.name.startswith("CW("):
        return "cylinder"
    if cat.name in ("Tw", "TwP"):
        return "tw"
    return "other"


def _check_ainfty_hook(tr: Tracer, fn):
    """Span per category label, plus per-arity tuple and mu counts taken by
    swapping the category's `mu_fn` and `composable_tuples` for the call."""
    counters = tr.counters

    @functools.wraps(fn)
    def wrapped(cat, *args, **kwargs):
        label = _category_label(cat)
        mu_fn, enumerate_tuples = cat.mu_fn, cat.composable_tuples
        calls, nonzero, tuples = Counter(), Counter(), Counter()

        def counted_mu(gens):
            out = mu_fn(gens)
            calls[len(gens)] += 1
            if not out.is_zero():
                nonzero[len(gens)] += 1
            return out

        def counted_tuples(d):
            for gens in enumerate_tuples(d):
                tuples[d] += 1
                yield gens

        mu_d_before = counters["cylinder.mu_d_calls"]
        cat.mu_fn, cat.composable_tuples = counted_mu, counted_tuples
        rec = tr.open(f"ainfty.check_ainfty.{label}")
        try:
            return fn(cat, *args, **kwargs)
        finally:
            tr.close(rec)
            cat.mu_fn = mu_fn
            del cat.composable_tuples
            for d, n in tuples.items():
                counters[f"ainfty.tuples.{label}.d{d}"] += n
            for d, n in calls.items():
                counters[f"ainfty.mu_calls.{label}.d{d}"] += n
            for d, n in nonzero.items():
                counters[f"ainfty.mu_nonzero.{label}.d{d}"] += n
            if label == "cylinder":
                counters["cylinder.memo_misses"] += counters["cylinder.mu_d_calls"] - mu_d_before
    return wrapped


def _check_functor_hook(tr: Tracer, fn):
    span = tr.span("ainfty.check_functor", fn)

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        rep = span(*args, **kwargs)
        tr.counters["ainfty.functor_tuples"] += rep.details.get("tuples_checked", 0)
        return rep
    return wrapped


def _kernel_hook(tr: Tracer, fn):
    span = tr.span("kernels.triangle_grid_count", fn)
    counters = tr.counters

    @functools.wraps(fn)
    def wrapped(ax, ay, bx, by, cx, cy, nx, ny):
        counters["kernels.triangle_grid_count_calls"] += 1
        counters["kernels.grid_points_computed"] += int(nx) * int(ny)
        return span(ax, ay, bx, by, cx, cy, nx, ny)
    return wrapped


def _verify_boundary_hook(tr: Tracer, fn):
    return tr.count("moduli.datasets", tr.span("moduli.verify_boundary_consistency", fn))


def _span(name):
    return lambda tr, fn: tr.span(name, fn)


def _count(name):
    return lambda tr, fn: tr.count(name, fn)


_CAT_METRICS = tuple(
    f"ainfty.{kind}.{cat}" for cat in CATEGORIES
    for kind in ("mu_calls", "mu_nonzero", "mu_useful_ratio")
) + tuple(f"ainfty.tuples.{cat}.d{d}" for cat in CATEGORIES for d in range(1, 5)) + tuple(
    f"ainfty.check_ainfty.{cat}_s" for cat in CATEGORIES
) + ("twisted.mu2_composable_ratio", "cylinder.memo_hit_ratio")

# (module, attribute path, wrapper factory, metrics that need this hook)
HOOKS = [
    ("floerloops.gradedalg", "Chain.__add__", _count("gradedalg.chain_add_calls"),
     ("gradedalg.chain_add_calls",)),
    ("floerloops.gradedalg", "Chain.__init__", _count("gradedalg.chain_init_calls"),
     ("gradedalg.chain_init_calls",)),
    ("floerloops.ainfty", "check_ainfty", _check_ainfty_hook, _CAT_METRICS),
    ("floerloops.ainfty", "check_functor", _check_functor_hook,
     ("ainfty.check_functor_s", "ainfty.functor_tuples")),
    ("floerloops.ainfty", "category_from_json", _span("ainfty.category_from_json"),
     ("ainfty.category_from_json_s",)),
    ("floerloops.twisted", "check_tw_dg", _span("twisted.check_tw_dg"),
     ("twisted.check_tw_dg_s",)),
    ("floerloops.twisted", "validate_twisted", _span("twisted.validate_twisted"),
     ("twisted.validate_twisted_s",)),
    ("floerloops.twisted", "tw_category", _span("twisted.tw_category"),
     ("twisted.tw_category_s",)),
    ("floerloops.pontryagin", "validate_path_model", _span("pontryagin.validate_path_model"),
     ("pontryagin.validate_path_model_s",)),
    ("floerloops.pontryagin", "CirclePathModel.concat_gens",
     _count("pontryagin.concat_gens_calls"), ("pontryagin.concat_gens_calls",)),
    ("floerloops.pontryagin", "FinitePathModel.concat_gens",
     _count("pontryagin.concat_gens_calls"), ("pontryagin.concat_gens_calls",)),
    ("floerloops.moduli", "choose_fundamental_chains",
     _span("moduli.choose_fundamental_chains"), ("moduli.choose_fundamental_chains_s",)),
    ("floerloops.moduli", "verify_boundary_consistency", _verify_boundary_hook,
     ("moduli.verify_boundary_consistency_s", "moduli.datasets")),
    ("floerloops.cylinder", "cylinder_category", _span("cylinder.category_build"),
     ("cylinder.category_build_s",)),
    ("floerloops.cylinder", "functor_F", _span("cylinder.functor_F"),
     ("cylinder.functor_F_s",)),
    ("floerloops.cylinder", "mu_d", _count("cylinder.mu_d_calls"),
     ("cylinder.mu_d_calls", "cylinder.memo_hit_ratio")),
    ("floerloops.cylinder", "raster_cross_check", _span("cylinder.raster_cross_check"),
     ("cylinder.raster_cross_check_s",)),
    ("floerloops.cylinder", "structure_constants", _span("cylinder.structure_constants"),
     ("cylinder.structure_constants_s",)),
    ("floerloops.cylinder", "maslov_cross_check", _span("cylinder.maslov_cross_check"),
     ("cylinder.maslov_cross_check_s",)),
    ("floerloops._kernels", "triangle_grid_count", _kernel_hook,
     ("kernels.triangle_grid_count_calls", "kernels.triangle_grid_count_s",
      "kernels.grid_points_computed")),
    ("floerloops.cli", "load_run_config", _span("cli.load_config"), ("cli.load_config_s",)),
    ("floerloops.cli", "_emit", _span("cli.emit"), ("cli.emit_s",)),
    ("floerloops.cli", "cmd_export", _span("cli.export"), ("cli.export_s",)),
    # check-all's own time outside its child spans is reading the bundle and
    # building the imported category's basis
    ("floerloops.cli", "cmd_check_all", _span("cli.check_all"), ("cli.bundle_load_s",)),
    ("floerloops.cli", "_build_reports", _span("cli.build_reports"), ("cli.bundle_load_s",)),
]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "floerloops" or name.startswith("floerloops."))]


def install(tr: Tracer) -> None:
    """Rebind every hook target that exists; record the others as missing."""
    for modname, path, factory, _metrics in HOOKS:
        try:
            owner = module = importlib.import_module(modname)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
        except (ImportError, AttributeError):
            tr.missing.append(f"{modname}:{path}")
            continue
        wrapped = factory(tr, orig)
        setattr(owner, attr, wrapped)
        if owner is module:
            for mod in _package_modules():
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapped)


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus child durations."""
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    out: dict[str, float] = {}
    for (name, *_rest), t in zip(spans, own):
        out[name] = out.get(name, 0.0) + t
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], counters: dict, missing: list[str]) -> dict[str, float]:
    """Per-layer metric values from one traced op (without the `trace.*`
    and byte-count metrics, which run.py adds).  A `*_s` metric is the self
    time of the span of the same name; metrics fed by a missing hook are
    left out."""
    selfs = self_times(spans)
    c = Counter(counters)

    def arity_sum(prefix: str) -> int:
        return sum(v for k, v in c.items() if k.startswith(prefix + ".d"))

    out: dict[str, float] = {}
    for cat in CATEGORIES:
        calls = out[f"ainfty.mu_calls.{cat}"] = arity_sum(f"ainfty.mu_calls.{cat}")
        nonzero = out[f"ainfty.mu_nonzero.{cat}"] = arity_sum(f"ainfty.mu_nonzero.{cat}")
        out[f"ainfty.mu_useful_ratio.{cat}"] = _ratio(nonzero, calls)
    out["twisted.mu2_composable_ratio"] = _ratio(
        c["ainfty.mu_nonzero.tw.d2"], c["ainfty.mu_calls.tw.d2"])
    cyl_mu2 = c["ainfty.mu_calls.cylinder.d2"]
    out["cylinder.memo_hit_ratio"] = _ratio(cyl_mu2 - c["cylinder.memo_misses"], cyl_mu2)
    out["cli.bundle_load_s"] = selfs.get("cli.check_all", 0.0)
    for name, _unit, _better, _moves in LAYER_METRICS:
        if name in out or name.startswith("trace.") or name in (
                "cli.bundle_bytes", "cli.report_bytes"):
            continue
        out[name] = selfs.get(name[:-2], 0.0) if name.endswith("_s") else c[name]
    absent = {m for modname, path, _f, metrics in HOOKS
              if f"{modname}:{path}" in missing for m in metrics}
    return {k: v for k, v in out.items() if k not in absent}
