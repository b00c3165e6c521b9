"""Batch CLI: build the cylinder model, run every checker, demo the circle
equivalence, and emit machine-readable reports.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage/config/IO error.
Reports are deterministic byte-for-byte for a fixed config; wall-clock
timings are shown on the console and only written to JSON with --timings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .ainfty import (
    AInftyCategory,
    AInftyFunctor,
    CompositionError,
    category_from_json,
    category_to_json,
    check_ainfty,
    check_functor,
)
from .cylinder import (
    CylinderConfigError,
    CylinderGeometry,
    chord,
    cylinder_category,
    enumerate_chords,
    functor_F,
    half_disc_d2_families,
    key_pairs,
    mu_d,
    ring_isomorphism_report,
    twist_sign,
    TWISTS,
)
from .documents import SCHEMA_VERSION, Document, DocumentError, check, generator_id, read
from .gradedalg import Chain, Generator
from .moduli import (
    STRATIFIED_MODULI,
    ModuliConsistencyError,
    StratifiedModuli,
    choose_fundamental_chains,
    moduli_to_json,
    synthetic_dataset_battery,
    verify_boundary_consistency,
)
from .pontryagin import (
    MutatedPathModel,
    leibniz_witness_model,
    path_model_from_json,
    validate_path_model,
)
from .report import CheckReport, failed, passed
from .twisted import (
    TWISTED_COMPLEX,
    TwistedComplex,
    ShiftedObject,
    check_tw_dg,
    synthetic_twisted_complexes,
    twisted_to_json,
)

# what the mutations corrupt: mu2-sign and f1-zero the chord of winding 1 on
# fibre 0, pontryagin-compose the product of the loops of winding 1 and 2
MUTATED_CHORD = ("x", 0, 0, 1)
MUTATED_LOOPS = (("p", 0, 0, 1), ("p", 0, 0, 2))


def _flip_mu2(cat: AInftyCategory) -> AInftyCategory:
    """mu2-sign: the category with mu_2 of the mutated chord with itself
    negated on its kernel keys; its `mu_fn` is derived from the flipped
    keys."""
    ops = cat.kernel_ops()
    pair = (MUTATED_CHORD, MUTATED_CHORD)

    def mu(keys):
        out = ops.mu(keys)
        if tuple(ops.decode(k).gid for k in keys) == pair:
            return tuple((k, -c) for k, c in out)
        return out

    return replace(cat, mu_fn=None, keyed=replace(ops, mu=mu))


def _zero_f1(F: AInftyFunctor) -> AInftyFunctor:
    """f1-zero: the functor with F^1 of the mutated chord set to zero."""
    decode = F.source.kernel_ops().decode

    def components(keys):
        if len(keys) == 1 and decode(keys[0]).gid == MUTATED_CHORD:
            return ()
        return F.components(keys)

    return replace(F, components=components)


def _corrupt_complex(_inputs):
    """twisted-mc: a complex failing Maurer-Cartan in place of the tw-dg samples."""
    witness = leibniz_witness_model()
    a, b, c = (Chain.of(g) for g in witness.all_gens() if g.gid in ("a", "b", "c"))
    bad = TwistedComplex(witness, [ShiftedObject(0, 0)] * 3,
                         {(0, 1): a, (1, 2): b, (0, 2): -c}, name="corrupt")
    return witness, [bad], 0


# --mutate NAME -> (the report row it must fail, a wrapper over that row's
# input); every other row sees its input unchanged
MUTATIONS = {
    "mu2-sign": ("ainfty", _flip_mu2),
    "f1-zero": ("functor", _zero_f1),
    "pontryagin-compose": ("path-model", lambda model: MutatedPathModel(model, MUTATED_LOOPS)),
    "flat-sign": ("fundamental-chains", lambda datasets: [datasets[0].mutated(0), *datasets[1:]]),
    "twisted-mc": ("tw-dg", _corrupt_complex),
}


@dataclass
class RunConfig:
    c: Fraction
    fibers: tuple[Fraction, ...]
    winding_bound: int
    max_d: int
    twist: str
    out: str | None
    mutation: str | None
    timings: bool
    # the parsed --config export bundle, read once
    bundle: dict | None = field(default=None, repr=False, compare=False)

    def geometry(self) -> CylinderGeometry:
        return CylinderGeometry(self.c, self.fibers)

    def as_json(self) -> dict:
        return {
            "kind": "geometry_config",
            "schema_version": SCHEMA_VERSION,
            "c": str(self.c),
            "fibers": [str(f) for f in self.fibers],
            "winding_bound": self.winding_bound,
            "max_d": self.max_d,
            "twist": self.twist,
        }


@dataclass
class Report:
    name: str
    status: str
    witness: dict | None
    seconds: float

    @classmethod
    def from_check(cls, check: CheckReport, seconds: float) -> "Report":
        return cls(check.name, "pass" if check.ok else "fail", check.witness, seconds)

    def as_json(self, timings: bool) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "witness": _jsonable(self.witness),
            "timing_ms": round(self.seconds * 1000.0, 3) if timings else None,
        }


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, float)):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return repr(obj)


def _parsed_by(parse, what: str):
    """A string or an integer that `parse` reads; a JSON float is refused
    rather than read as its binary expansion."""
    def check_value(value):
        try:
            if type(value) is str or type(value) is int:
                parse(value)
                return
        except (ValueError, ZeroDivisionError):
            pass
        raise DocumentError(f"bad {what} {value!r}")
    return check_value


_rational, _integer = _parsed_by(Fraction, "rational"), _parsed_by(int, "integer")
GEOMETRY_CONFIG = Document("geometry_config", {
    "c": _rational, "fibers": [_rational], "winding_bound": _integer, "max_d": _integer,
    "twist?": _parsed_by(twist_sign, "twist"),
})
# the category's tables are checked by `category_from_json` when check-all
# re-checks them; its recorded bounds are read here
EXPORT_BUNDLE = Document("export_bundle", {
    "config": GEOMETRY_CONFIG,
    "category": {"enumeration_bound": int, "max_d": int},
    "twisted_complexes?": [TWISTED_COMPLEX],
    "functor_f1?": [{"chord": generator_id, "path_winding": int, "sign": int}],
    "moduli?": [STRATIFIED_MODULI],
})


def _bundle_category(cfg: RunConfig) -> AInftyCategory | None:
    """The export bundle's category as the ainfty row re-checks it (None
    without a bundle): its `hom_keys` restricted to the config's chords
    within the winding bound, with their winding translation declared.
    Refused: a re-check above the recorded `enumeration_bound` or `max_d`,
    where the tables lack rows, and a basis whose generators differ from
    the config's chords in gid or degree."""
    if cfg.bundle is None:
        return None
    doc = cfg.bundle["category"]
    for key, label, value in (("enumeration_bound", "winding bound", cfg.winding_bound),
                              ("max_d", "max_d", cfg.max_d)):
        if value > doc[key]:
            raise CylinderConfigError(f"{label} {value} exceeds the bundle's {key} {doc[key]}")
    cat = category_from_json(doc, "export_bundle.category")[0]
    ops = cat.kernel_ops()
    g = cfg.geometry()
    try:
        hom_keys = {
            (a, b): tuple(ops.encode(x.generator())
                          for x in enumerate_chords(g, a, b, cfg.winding_bound))
            for a in range(g.nfibers()) for b in range(g.nfibers())
        }
    except CompositionError as exc:
        raise DocumentError(f"export_bundle.category: {exc}") from exc
    # the chord ("x", a, b, w) is t^w ("x", a, b, 0), a premise `check_ainfty`
    # verifies; any other key is its own class, and a check that reads it as
    # an output falls back to the full enumeration
    key_of = {ops.decode(key).gid: key for keys in cat.hom_keys.values() for key in keys}
    classes = {key: (gid[3], key_of[gid[:3] + (0,)]) for gid, key in key_of.items()
               if type(gid) is tuple and len(gid) == 4 and gid[0] == "x"
               and type(gid[3]) is int and gid[:3] + (0,) in key_of}
    keyed = replace(ops, translation=lambda key: classes.get(key, (0, key)))
    return replace(cat, name="imported", hom_keys=hom_keys, keyed=keyed)


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """The defaults, then the --config geometry_config (or export bundle),
    then the flags; the ranges are checked on the result."""
    fields = {"c": 1, "fibers": [0], "winding_bound": 3, "max_d": 4, "twist": "none"}
    bundle = None
    if args.config:
        doc = read(args.config)
        if isinstance(doc, dict) and doc.get("kind") == "export_bundle":
            check(doc, EXPORT_BUNDLE)
            bundle, doc = doc, doc["config"]
        else:
            check(doc, GEOMETRY_CONFIG)
        fields.update(doc)
    for key, flag in (("winding_bound", args.winding), ("max_d", args.max_d),
                      ("twist", args.twist)):
        if flag is not None:
            fields[key] = flag
    winding, max_d = int(fields["winding_bound"]), int(fields["max_d"])
    if winding < 1:
        raise CylinderConfigError("winding_bound must be >= 1")
    if not 2 <= max_d <= 4:
        raise CylinderConfigError("max_d must lie in 2..4")
    return RunConfig(
        c=Fraction(fields["c"]), fibers=tuple(map(Fraction, fields["fibers"])),
        winding_bound=winding, max_d=max_d, twist=fields["twist"],
        out=args.out, mutation=args.mutate, timings=args.timings, bundle=bundle,
    )


def _timed(fn, *args, **kwargs) -> Report:
    t0 = time.perf_counter()
    check = fn(*args, **kwargs)
    return Report.from_check(check, time.perf_counter() - t0)


def _moduli_pipeline(datasets: list) -> CheckReport:
    """Choose and verify fundamental chains on every distinct dataset; one
    with the kind, cells and boundary of an earlier one (names do not count)
    would end as that one does, so it is counted in `duplicate_datasets`."""
    firsts: dict[tuple, StratifiedModuli] = {}
    for ds in datasets:
        key = (ds.kind, frozenset(ds.cells.items()), frozenset(ds.boundary.items()))
        firsts.setdefault(key, ds)
    for ds in firsts.values():
        try:
            chains = choose_fundamental_chains(ds)
        except ModuliConsistencyError as exc:
            return failed("fundamental-chains", {"dataset": ds.name, "error": str(exc)})
        rep = verify_boundary_consistency(ds, chains)
        if not rep.ok:
            return failed("fundamental-chains", {"dataset": ds.name, **rep.witness})
    return passed("fundamental-chains", datasets=len(firsts),
                  duplicate_datasets=len(datasets) - len(firsts))


def _build_reports(cfg: RunConfig, imported_category=None) -> list[Report]:
    g = cfg.geometry()
    mutated_row, wrap = MUTATIONS.get(cfg.mutation, (None, None))

    def row_input(row: str, value):
        return wrap(value) if row == mutated_row else value

    F, target_model, f_objs = functor_F(g, cfg.winding_bound, twist=cfg.twist)
    model = row_input("path-model", target_model)
    reports = [_timed(validate_path_model, model, min(cfg.winding_bound, 2), "path-model")]
    cat = row_input("ainfty", imported_category or F.source)
    reports.append(_timed(check_ainfty, cat, cfg.max_d, "ainfty"))

    samples = list(f_objs) + synthetic_twisted_complexes(target_model, tag="syn")
    # window 1: on the circle model winding translation already covers every
    # winding in Z, so a wider window would add no coverage
    tw_model, complexes, window = row_input("tw-dg", (target_model, samples, 1))
    reports.append(_timed(check_tw_dg, tw_model, complexes, window, "tw-dg"))

    # the synthetic battery and the cylinder's two-input half-disc families
    datasets = synthetic_dataset_battery() + half_disc_d2_families(g, min(cfg.winding_bound, 2))
    reports.append(_timed(_moduli_pipeline, row_input("fundamental-chains", datasets)))
    reports.append(_timed(check_functor, row_input("functor", F), cfg.max_d, "functor"))
    return reports


def _write(doc: dict, out: str | None, stream) -> None:
    """`doc` as compact sorted JSON, to the file `out` if given, else to `stream`."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        stream.write(text)


def _emit(cfg: RunConfig, reports: list[Report], stream) -> int:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "check_report",
        "seed": os.environ.get("FLOERLOOPS_SEED"),
        "config": cfg.as_json(),
        "reports": [r.as_json(cfg.timings) for r in reports],
    }
    _write(doc, cfg.out, stream)
    for r in reports:
        print(f"[{r.status:4s}] {r.name} ({r.seconds * 1000.0:.1f} ms)", file=sys.stderr)
    return 0 if all(r.status == "pass" for r in reports) else 1


def cmd_check_all(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    return _emit(cfg, _build_reports(cfg, imported_category=_bundle_category(cfg)), sys.stdout)


def cmd_demo_s1(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    _bundle_category(cfg)  # a bundle's tables are refused as check-all refuses them
    g = cfg.geometry()
    bound = cfg.winding_bound
    fiber = 0
    chords = enumerate_chords(g, fiber, fiber, bound)
    print(f"# wrapped chords of the fibre at q={g.fibers[fiber]} (H = {g.c} p^2)")
    print(f"{'winding':>8} {'momentum':>10} {'action':>10} {'degree':>7}")
    for x in sorted(chords, key=lambda x: x.winding):
        print(f"{x.winding:>8} {str(x.momentum):>10} {str(x.action):>10} {x.degree:>7}")

    F, _model, _objs = functor_F(g, bound, twist=cfg.twist)
    sign = twist_sign(cfg.twist)
    print("\n# linear comparison map: chord -> loop class")
    for x in sorted(chords, key=lambda x: x.winding):
        path_gid, coeff = _f1_image(F, x.generator())
        # the half-disc sign, without the background twist
        print(f"  x_{x.winding} -> {'+' if coeff * sign > 0 else '-'}t^{path_gid[3]}")

    print("\n# product table: mu_2(x_j, x_i) vs loop concatenation t^i.t^j")
    windings = [x.winding for x in sorted(chords, key=lambda x: x.winding)]
    agree = True
    for i in windings:
        floer_row = []
        loop_row = []
        for j in windings:
            prod = mu_d(g, (chord(g, fiber, fiber, i), chord(g, fiber, fiber, j)), sign)
            ((gen, coeff),) = list(prod.items())
            floer_row.append(f"{'+' if coeff > 0 else '-'}x_{gen.gid[3]}")
            loop_row.append(f"t^{i + j}")
            if gen.gid[3] != i + j:
                agree = False
        print(f"  x_{i}: " + " ".join(floer_row) + "   |   " + " ".join(loop_row))
    rep = ring_isomorphism_report(F, fiber)
    func = check_functor(F, 2, "functor")
    verdict = rep.ok and func.ok and agree
    print(f"\nring isomorphism: {'yes' if verdict else 'no'}")
    if not verdict:
        print(f"witness: {rep.witness or func.witness}")
        return 1
    return 0


def _f1_image(F: AInftyFunctor, gen: Generator) -> tuple[tuple, int]:
    """F^1 of a chord generator as (loop class gid, sign)."""
    ((key, coeff),) = F.components((F.source.kernel_ops().encode(gen),))
    return F.target.kernel_ops().decode(key).gid[5], coeff


def cmd_export(args: argparse.Namespace) -> int:
    """Write the export bundle.  Its mu_2 rows, on chord keys with the twist
    applied, close every lookup of the A-infinity check at the recorded
    bounds.  Its `functor_f1` rows record F^1 untwisted whatever the twist,
    and the fibre complexes do not depend on it."""
    cfg = load_run_config(args)
    _bundle_category(cfg)  # a bundle's tables are refused as check-all refuses them
    g = cfg.geometry()
    closure = (cfg.max_d - 1) * cfg.winding_bound
    cat = replace(cylinder_category(g, closure, cfg.twist), name="cylinder-export")
    ops = cat.kernel_ops()
    basis = {key for keys in cat.hom_keys.values() for key in keys}
    terms = {}
    for pair in key_pairs(g, min(2 * cfg.winding_bound, closure)):
        (w1, _), (w2, _) = map(ops.translation, pair)
        if abs(w1 + w2) > closure or min(abs(w1), abs(w2)) > cfg.winding_bound:
            continue
        terms[pair] = ops.mu(pair)
        for key, _coeff in terms[pair]:
            gen = ops.decode(key)
            if key not in basis:
                raise CompositionError(f"mu output {gen.gid} is not in the closure basis")
            if gen.degree != ops.degree(pair[0]) + ops.degree(pair[1]):
                raise ValueError(f"mu_2 output {gen.gid} breaks the degree rule")
    F, _model, f_objs = functor_F(g, cfg.winding_bound)
    chords = sorted((x for pair in F.source.hom_keys for x in F.source.hom_basis(*pair)),
                    key=lambda x: repr(x.gid))
    f1_rows = []
    for x in chords:
        path_gid, coeff = _f1_image(F, x)
        f1_rows.append({"chord": list(x.gid), "path_winding": path_gid[3], "sign": coeff})
    bundle = {
        "schema_version": SCHEMA_VERSION,
        "kind": "export_bundle",
        "config": cfg.as_json(),
        "category": category_to_json(
            cat, terms, extra={"enumeration_bound": cfg.winding_bound, "max_d": cfg.max_d},
        ),
        "twisted_complexes": [twisted_to_json(T) for T in f_objs],
        "functor_f1": f1_rows,
        "moduli": [moduli_to_json(ds) for ds in synthetic_dataset_battery()],
    }
    _write(bundle, cfg.out, sys.stdout)
    return 0


def cmd_import_model(args: argparse.Namespace) -> int:
    model = path_model_from_json(read(args.model))
    rep = validate_path_model(model, window=0, name="imported-path-model")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "check_report",
        "seed": os.environ.get("FLOERLOOPS_SEED"),
        "reports": [Report.from_check(rep, 0.0).as_json(timings=False)],
    }
    _write(doc, None, sys.stdout)
    return 0 if rep.ok else 1


FLAGS = {
    "config": {"help": "geometry config or export bundle (JSON)"},
    "winding": {"type": int, "help": "winding bound"},
    "max-d": {"type": int, "help": "largest arity the A-infinity check covers (2..4)"},
    "twist": {"choices": sorted(TWISTS)},
    "out": {"help": "output path (default stdout)"},
    "mutate": {"choices": sorted(MUTATIONS), "help": "corrupt one row's input"},
    "timings": {"action": "store_true", "help": "include wall-clock in JSON"},
    "model": {"required": True, "help": "path model JSON"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floerloops",
        description="exact-arithmetic checks for the cylinder's wrapped "
                    "category and its loop-space comparison",
    )
    # a subcommand that does not take a flag sees its default
    parser.set_defaults(config=None, winding=None, max_d=None, twist=None, out=None,
                        mutate=None, timings=False, model=None)
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only the flags it reads
    for name, fn, flags in (
        ("check-all", cmd_check_all, "config winding max-d twist out mutate timings"),
        ("demo-s1", cmd_demo_s1, "config winding twist"),
        ("export", cmd_export, "config winding max-d twist out"),
        ("import-model", cmd_import_model, "model"),
    ):
        p = sub.add_parser(name)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    seed = os.environ.get("FLOERLOOPS_SEED")
    if seed is not None:
        print(f"FLOERLOOPS_SEED={seed} (reserved; core is deterministic)", file=sys.stderr)
    # every malformed, unsupported or unreadable input ends here, on one line
    try:
        return args.fn(args)
    except (DocumentError, CylinderConfigError, OSError) as exc:
        print("error: " + str(exc).replace("\n", "\\n"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
