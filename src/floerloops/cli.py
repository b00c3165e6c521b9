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
    category_from_json,
    category_from_tables,
    category_to_json,
    check_ainfty,
    check_functor,
    composable_paths,
)
from .cylinder import (
    CylinderConfigError,
    CylinderGeometry,
    chord,
    chord_pairs,
    cylinder_category,
    enumerate_chords,
    functor_F,
    half_disc_d2_family,
    mu_d,
    pontryagin_target,
    ring_isomorphism_report,
    twist_fn,
    TWISTS,
)
from .gradedalg import Chain, Generator, sign_pow
from .moduli import (
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
    load_path_model,
    validate_path_model,
)
from .report import CheckReport, failed, passed
from .twisted import (
    TwistedComplex,
    ShiftedObject,
    check_tw_dg,
    synthetic_twisted_complexes,
    twisted_to_json,
)

SCHEMA_VERSION = 1

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
    # the parsed --config file, read once
    document: dict | None = field(default=None, repr=False, compare=False)

    def validate(self) -> None:
        if self.winding_bound < 1:
            raise CylinderConfigError("winding_bound must be >= 1")
        if not 2 <= self.max_d <= 4:
            raise CylinderConfigError("max_d must lie in 2..4")
        twist_fn(self.twist)
        if self.mutation is not None and self.mutation not in MUTATIONS:
            raise CylinderConfigError(f"unknown mutation {self.mutation!r}")

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


def _parse_fraction(text: str | int) -> Fraction:
    """A rational from a string such as "1/3" or from an integer; a JSON
    float is refused rather than read as its binary expansion."""
    if not isinstance(text, (str, int)) or isinstance(text, bool):
        raise CylinderConfigError(f"bad rational {text!r}: give a string or an integer")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CylinderConfigError(f"bad rational {text!r}: {exc}") from exc


def _parse_int(doc: dict, key: str) -> int:
    value = doc[key]
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise CylinderConfigError(f"{key} must be an integer, got {value!r}")


def _geometry_doc(doc) -> dict:
    """The geometry_config document `doc` (or the one inside an export
    bundle), checked for kind, schema version and required keys."""
    if isinstance(doc, dict) and doc.get("kind") == "export_bundle":
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise CylinderConfigError(
                f"unsupported export_bundle schema_version {doc.get('schema_version')!r}"
            )
        doc = doc.get("config")
    if not isinstance(doc, dict) or doc.get("kind") != "geometry_config":
        raise CylinderConfigError("config file is not a geometry_config document")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise CylinderConfigError(
            f"unsupported schema_version {doc.get('schema_version')!r}"
        )
    missing = [k for k in ("c", "fibers", "winding_bound", "max_d") if k not in doc]
    if missing:
        raise CylinderConfigError(f"geometry_config lacks {', '.join(missing)}")
    if not isinstance(doc["fibers"], list):
        raise CylinderConfigError("fibers must be a list of rationals")
    return doc


def _is_gid(obj) -> bool:
    """A JSON generator id: a string, an integer or a list of ids."""
    if isinstance(obj, list):
        return all(_is_gid(x) for x in obj)
    return isinstance(obj, str) or _is_int(obj)


def _is_int(obj) -> bool:
    return isinstance(obj, int) and not isinstance(obj, bool)


def _is_list(obj) -> bool:
    return isinstance(obj, list)


def _rows(parent: dict, key: str, fields: dict) -> list[dict]:
    """parent[key], checked to be a list of objects whose `fields` (name ->
    predicate) are present and valid."""
    rows = parent.get(key)
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise CylinderConfigError(f"bundle category {key} must be a list of objects")
    for row in rows:
        for name, ok in fields.items():
            if name not in row:
                raise CylinderConfigError(f"bundle category {key} row lacks {name}")
            if not ok(row[name]):
                raise CylinderConfigError(f"bundle category {key} row has bad {name} {row[name]!r}")
    return rows


def _bundle_category(cfg: RunConfig) -> AInftyCategory:
    """The export bundle's table-backed category as the ainfty row re-checks
    it: its enumeration restricted to the config's chords within the winding
    bound.  The `category` document is checked first for every key and type
    `category_from_json` reads; a re-check above the recorded
    `enumeration_bound` or `max_d`, where the tables lack rows, is refused."""
    doc = cfg.document.get("category")
    if not isinstance(doc, dict):
        raise CylinderConfigError("export_bundle lacks a category object")
    objects = doc.get("objects")
    if not isinstance(objects, list) or not all(_is_gid(o) for o in objects):
        raise CylinderConfigError("bundle category objects must be a list of ids")
    if not isinstance(doc.get("name"), str):
        raise CylinderConfigError("bundle category name must be a string")
    for key, label, value in (("enumeration_bound", "winding bound", cfg.winding_bound),
                              ("max_d", "max_d", cfg.max_d)):
        if not _is_int(doc.get(key)):
            raise CylinderConfigError(f"bundle category {key} must be an integer")
        if value > doc[key]:
            raise CylinderConfigError(f"{label} {value} exceeds the bundle's {key} {doc[key]}")
    for row in _rows(doc, "basis", {"source": _is_int, "target": _is_int,
                                    "generators": _is_list}):
        if not (0 <= row["source"] < len(objects) and 0 <= row["target"] < len(objects)):
            raise CylinderConfigError("bundle category basis row names an unknown object")
        _rows(row, "generators", {"id": _is_gid, "degree": _is_int})
    for row in _rows(doc, "mu", {"d": _is_int, "inputs": _is_list, "output": _is_list}):
        if not all(_is_gid(g) for g in row["inputs"]):
            raise CylinderConfigError(f"bundle category mu row has bad inputs {row['inputs']!r}")
        _rows(row, "output", {"gen": _is_gid, "degree": _is_int, "coeff": _is_int})
    g = cfg.geometry()
    try:  # kind, schema version, arity, composability or a gid in no basis
        cat = category_from_json(doc)[0]
        ops = cat.kernel_ops()
        hom_keys = {
            (a, b): tuple(ops.encode(x.generator())
                          for x in enumerate_chords(g, a, b, cfg.winding_bound))
            for a in range(g.nfibers()) for b in range(g.nfibers())
        }
    except ValueError as exc:
        raise CylinderConfigError(f"bad bundle category: {exc}") from exc
    return replace(
        cat, name="imported",
        hom_basis_map={pair: tuple(map(ops.decode, keys)) for pair, keys in hom_keys.items()},
        keyed=replace(ops, linked_groups=lambda d: composable_paths(cat.objects, hom_keys, d)),
    )


def load_run_config(args: argparse.Namespace) -> RunConfig:
    c = Fraction(1)
    fibers: tuple[Fraction, ...] = (Fraction(0),)
    winding = 3
    max_d = 4
    twist = "none"
    document = None
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            document = json.load(fh)
        doc = _geometry_doc(document)
        c = _parse_fraction(doc["c"])
        fibers = tuple(_parse_fraction(f) for f in doc["fibers"])
        winding = _parse_int(doc, "winding_bound")
        max_d = _parse_int(doc, "max_d")
        twist = doc.get("twist", "none")
    if args.winding is not None:
        winding = args.winding
    if args.max_d is not None:
        max_d = args.max_d
    if args.twist is not None:
        twist = args.twist
    cfg = RunConfig(
        c=c, fibers=fibers, winding_bound=winding, max_d=max_d, twist=twist,
        out=args.out, mutation=args.mutate, timings=args.timings, document=document,
    )
    cfg.validate()
    return cfg


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

    model = row_input("path-model", pontryagin_target(g))
    reports = [_timed(validate_path_model, model, min(cfg.winding_bound, 2), "path-model")]

    cat = imported_category
    if cat is None:
        cat = cylinder_category(g, cfg.winding_bound, twist=cfg.twist)
    cat = row_input("ainfty", cat)
    reports.append(_timed(check_ainfty, cat, cfg.max_d, "ainfty"))

    F, target_model, f_objs = functor_F(g, cfg.winding_bound, twist=cfg.twist)
    samples = list(f_objs) + synthetic_twisted_complexes(target_model, tag="syn")
    # window 1: on the circle model winding translation already covers every
    # winding in Z, so a wider window would add no coverage
    tw_model, complexes, window = row_input("tw-dg", (target_model, samples, 1))
    reports.append(_timed(check_tw_dg, tw_model, complexes, window, "tw-dg"))

    # the synthetic battery and the cylinder's two-input half-disc families
    datasets = synthetic_dataset_battery() + [
        half_disc_d2_family(g, x1, x2)[0] for x1, x2 in chord_pairs(g, min(cfg.winding_bound, 2))
    ]
    reports.append(_timed(_moduli_pipeline, row_input("fundamental-chains", datasets)))
    reports.append(_timed(check_functor, row_input("functor", F), cfg.max_d, "functor"))
    return reports


def _emit(cfg: RunConfig, reports: list[Report], stream) -> int:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "check_report",
        "seed": os.environ.get("FLOERLOOPS_SEED"),
        "config": cfg.as_json(),
        "reports": [r.as_json(cfg.timings) for r in reports],
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        stream.write(text)
    for r in reports:
        print(f"[{r.status:4s}] {r.name} ({r.seconds * 1000.0:.1f} ms)", file=sys.stderr)
    return 0 if all(r.status == "pass" for r in reports) else 1


def cmd_check_all(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    imported = None
    if cfg.document is not None and cfg.document.get("kind") == "export_bundle":
        imported = _bundle_category(cfg)
    reports = _build_reports(cfg, imported_category=imported)
    return _emit(cfg, reports, sys.stdout)


def cmd_demo_s1(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    g = cfg.geometry()
    bound = cfg.winding_bound
    fiber = 0
    chords = enumerate_chords(g, fiber, fiber, bound)
    print(f"# wrapped chords of the fibre at q={g.fibers[fiber]} (H = {g.c} p^2)")
    print(f"{'winding':>8} {'momentum':>10} {'action':>10} {'degree':>7}")
    for x in sorted(chords, key=lambda x: x.winding):
        print(f"{x.winding:>8} {str(x.momentum):>10} {str(x.action):>10} {x.degree:>7}")

    F, _model, _objs = functor_F(g, bound, twist=cfg.twist)
    n_b = twist_fn(cfg.twist)
    print("\n# linear comparison map: chord -> loop class")
    for x in sorted(chords, key=lambda x: x.winding):
        path_gid, coeff = _f1_image(F, x.generator())
        # the half-disc sign, without the background twist
        sign = "+" if coeff * sign_pow(n_b(x.winding)) > 0 else "-"
        print(f"  x_{x.winding} -> {sign}t^{path_gid[3]}")

    print("\n# product table: mu_2(x_j, x_i) vs loop concatenation t^i.t^j")
    windings = [x.winding for x in sorted(chords, key=lambda x: x.winding)]
    agree = True
    for i in windings:
        floer_row = []
        loop_row = []
        for j in windings:
            prod = mu_d(g, (chord(g, fiber, fiber, i), chord(g, fiber, fiber, j)),
                        twist=n_b)
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


def _export_tables(g: CylinderGeometry, winding_bound: int, max_d: int, twist: str):
    """mu_2 tables wide enough that the A-infinity check at the recorded
    enumeration bound is closed under every lookup it performs; every
    input and output of a row lies in the closure basis."""
    closure = (max_d - 1) * winding_bound
    n = g.nfibers()
    hom_basis_map = {
        (a, b): tuple(x.generator() for x in enumerate_chords(g, a, b, closure))
        for a in range(n) for b in range(n)
    }
    n_b = twist_fn(twist)
    table: dict[tuple, Chain] = {}
    for x1, x2 in chord_pairs(g, min(2 * winding_bound, closure)):
        if abs(x1.winding + x2.winding) > closure:
            continue
        if min(abs(x1.winding), abs(x2.winding)) > winding_bound:
            continue
        val = mu_d(g, (x1, x2), twist=n_b)
        if not val.is_zero():
            table[(x1.gid, x2.gid)] = val
    return hom_basis_map, {2: table}


def cmd_export(args: argparse.Namespace) -> int:
    """Write the export bundle.  Its `functor_f1` rows record F^1 with its
    half-disc signs, untwisted whatever the config's twist; the category's
    tables carry the twist, and the fibre complexes do not depend on it."""
    cfg = load_run_config(args)
    g = cfg.geometry()
    hom_basis_map, mu_tables = _export_tables(
        g, cfg.winding_bound, cfg.max_d, cfg.twist
    )
    cat = category_from_tables(
        "cylinder-export", tuple(range(g.nfibers())), hom_basis_map, mu_tables
    )
    F, _model, f_objs = functor_F(g, cfg.winding_bound)
    chords = sorted((x for basis in F.source.hom_basis_map.values() for x in basis),
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
            cat, mu_tables,
            extra={"enumeration_bound": cfg.winding_bound, "max_d": cfg.max_d},
        ),
        "twisted_complexes": [twisted_to_json(T) for T in f_objs],
        "functor_f1": f1_rows,
        "moduli": [moduli_to_json(ds) for ds in synthetic_dataset_battery()],
    }
    text = json.dumps(bundle, sort_keys=True, separators=(",", ":")) + "\n"
    if not cfg.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {cfg.out}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_import_model(args: argparse.Namespace) -> int:
    try:
        model = load_path_model(args.model)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load model: {exc}", file=sys.stderr)
        return 2
    rep = validate_path_model(model, window=0, name="imported-path-model")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "check_report",
        "seed": os.environ.get("FLOERLOOPS_SEED"),
        "reports": [Report.from_check(rep, 0.0).as_json(timings=False)],
    }
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return 0 if rep.ok else 1


FLAGS = {
    "config": {"help": "geometry config or export bundle (JSON)"},
    "winding": {"type": int, "help": "winding bound"},
    "max-d": {"type": int, "help": "largest arity the A-infinity check covers (2..4)"},
    "twist": {"choices": sorted(TWISTS)},
    "out": {"help": "output path (default stdout)"},
    "mutate": {"metavar": "NAME", "help": "corrupt one row's input: " + ", ".join(MUTATIONS)},
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
    try:
        return args.fn(args)
    except CylinderConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
