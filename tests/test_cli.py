import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from floerloops.cylinder import TWISTS
from path_models import path_model_to_json

CLI = [sys.executable, "-m", "floerloops.cli"]


def run_cli(*args, env_extra=None, timeout=300):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=timeout
    )


def run_main(capsys, *args):
    """Exit code and standard-error lines of the CLI run in this process."""
    from floerloops import cli

    code = cli.main(list(args))
    return code, capsys.readouterr().err.splitlines()


def write_config(tmp_path, **overrides):
    doc = {
        "kind": "geometry_config",
        "schema_version": 1,
        "c": "1",
        "fibers": ["0"],
        "winding_bound": 2,
        "max_d": 4,
        "twist": "none",
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("rep") / "report.json"
    proc = run_cli("check-all", "--winding", "2", "--out", str(out))
    return proc, out


def test_check_all_passes(small_report):
    proc, out = small_report
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    names = [r["name"] for r in doc["reports"]]
    assert names == ["path-model", "ainfty", "tw-dg", "fundamental-chains", "functor"]
    assert all(r["status"] == "pass" for r in doc["reports"])
    assert all(r["witness"] is None for r in doc["reports"])


def test_reports_byte_identical(small_report, tmp_path):
    _, out = small_report
    out2 = tmp_path / "report2.json"
    proc = run_cli("check-all", "--winding", "2", "--out", str(out2))
    assert proc.returncode == 0
    assert out.read_bytes() == out2.read_bytes()


def test_check_all_defaults_pass(tmp_path):
    # defaults: c=1, one fibre, winding 3, max_d 4
    out = tmp_path / "default.json"
    proc = run_cli("check-all", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["config"]["winding_bound"] == 3
    assert doc["config"]["max_d"] == 4
    assert all(r["status"] == "pass" for r in doc["reports"])


def test_demo_defaults_full_winding():
    proc = run_cli("demo-s1")
    assert proc.returncode == 0, proc.stderr
    assert "ring isomorphism: yes" in proc.stdout
    for k in range(-3, 4):
        assert f"x_{k} -> " in proc.stdout


def test_max_d_out_of_range_exits_2(capsys):
    assert run_main(capsys, "check-all", "--max-d", "5") == (
        2, ["error: max_d must lie in 2..4"])


def test_winding_zero_exits_2():
    proc = run_cli("check-all", "--winding", "0")
    assert proc.returncode == 2


def test_empty_fibers_exits_2(tmp_path):
    cfg = write_config(tmp_path, fibers=[])
    proc = run_cli("export", "--config", cfg)
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "overrides,drop,message",
    [
        ({}, "fibers", "lacks fibers"),
        ({"winding_bound": "x"}, None, "geometry_config.winding_bound: bad integer 'x'"),
        ({"schema_version": 99}, None, "unsupported schema_version 99"),
        ({"fibers": ["0", 0.1]}, None, "bad rational 0.1"),
        ({"c": 0.1}, None, "bad rational 0.1"),
        ({"twist": "parity"}, None, "geometry_config.twist: bad twist 'parity'"),
    ],
)
def test_malformed_geometry_config_exits_2(tmp_path, capsys, overrides, drop, message):
    path = pathlib.Path(write_config(tmp_path, **overrides))
    if drop:
        doc = json.loads(path.read_text())
        del doc[drop]
        path.write_text(json.dumps(doc))
    code, err = run_main(capsys, "check-all", "--config", str(path))
    assert code == 2 and len(err) == 1
    assert err[0].startswith("error: geometry_config")
    assert message in err[0]


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle") / "bundle.json"
    proc = run_cli("export", "--winding", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def _drop_category(doc):
    del doc["category"]


def _drop_mu_inputs(doc):
    del doc["category"]["mu"][0]["inputs"]


def _string_basis_source(doc):
    doc["category"]["basis"][0]["source"] = "0"


def _unknown_mu_input(doc):
    doc["category"]["mu"][0]["inputs"][0] = "nowhere"


def _list_bundle_version(doc):
    doc["schema_version"] = [[1]]


def _unknown_mu_output(doc):
    doc["category"]["mu"][0]["output"][0]["gen"] = "nowhere"


def _newline_in_mu_input(doc):
    doc["category"]["mu"][0]["inputs"][0] = "a\nb"


def _mu_output_degree(doc):
    doc["category"]["mu"][0]["output"][0]["degree"] = 1


def _winding_above_bound(doc):
    # the tables lack the rows a re-check beyond the recorded bound reads
    return ("--winding", "2")


def _max_d_above_recorded(doc):
    doc["category"]["max_d"] = 2


def _list_twisted_complexes(doc):
    doc["twisted_complexes"] = [[1]]


def _list_functor_f1(doc):
    doc["functor_f1"] = [[1]]


def _list_moduli(doc):
    doc["moduli"] = [[1]]


def _parity_twist(doc):
    doc["config"]["twist"] = "parity"


def _relabel_degrees(doc, degree_of):
    """Give each chord gid the degree `degree_of(gid)` in the basis and in
    every mu output that names it."""
    for row in doc["category"]["basis"]:
        for gen in row["generators"]:
            gen["degree"] = degree_of(gen["id"])
    for row in doc["category"]["mu"]:
        for term in row["output"]:
            term["degree"] = degree_of(term["gen"])


def _unit_chord_of_degree_2(doc):
    # the tables then break |mu_2(x, y)| = |x| + |y|
    _relabel_degrees(doc, lambda gid: 2 if gid == ["x", 0, 0, 0] else 0)


def _chord_degree_is_its_winding(doc):
    # consistent tables, but not the geometry's chords, which have degree 0
    _relabel_degrees(doc, lambda gid: gid[3])


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_drop_category, "export_bundle: lacks category"),
        (_drop_mu_inputs, "export_bundle.category.mu[0]: lacks inputs"),
        (_string_basis_source, "export_bundle.category.basis[0].source: not an integer"),
        (_unknown_mu_input, "export_bundle.category: gid nowhere not in any hom basis"),
        (_list_bundle_version, "export_bundle: unsupported schema_version [[1]]"),
        (_unknown_mu_output,
         "export_bundle.category: mu output nowhere of degree 0 is not a basis generator"),
        (_mu_output_degree, "of degree 1 is not a basis generator"),
        (_winding_above_bound, "winding bound 2 exceeds the bundle's enumeration_bound 1"),
        (_max_d_above_recorded, "max_d 4 exceeds the bundle's max_d 2"),
        (_list_twisted_complexes,
         "export_bundle.twisted_complexes[0]: not a twisted_complex document"),
        (_list_functor_f1, "export_bundle.functor_f1[0]: not an object"),
        (_list_moduli, "export_bundle.moduli[0]: not a stratified_moduli document"),
        (_parity_twist, "export_bundle.config.twist: bad twist 'parity'"),
        (_newline_in_mu_input, "export_bundle.category: gid a\\nb not in any hom basis"),
        (_unit_chord_of_degree_2,
         "export_bundle.category: mu_2 output ('x', 0, 0, -1) has degree 0, expected 2"),
        (_chord_degree_is_its_winding, "export_bundle.category: generator ('x', 0, 0, -1) "
                                       "of degree 0 is not a basis generator"),
    ],
)
def test_malformed_bundle_category_exits_2(tmp_path, capsys, small_bundle, corrupt, message):
    doc = json.loads(json.dumps(small_bundle))
    extra = corrupt(doc) or ()
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    # every command that reads a bundle refuses it as check-all does
    for command in ("check-all", "export", "demo-s1"):
        code, err = run_main(capsys, command, "--config", str(path), *extra)
        assert code == 2 and len(err) == 1, command
        assert err[0].startswith("error: ") and err[0].endswith(message), command


def test_json_array_config_exits_2(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text(json.dumps([{"kind": "geometry_config", "schema_version": 1}]))
    assert run_main(capsys, "check-all", "--config", str(path)) == (
        2, ["error: geometry_config: not a geometry_config document"])


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "bundle.json"
    code, err = run_main(capsys, "export", "--winding", "1", "--out", str(out))
    assert code == 2 and len(err) == 1
    assert err[0].startswith("error: [Errno 2] No such file or directory")


# files that are not JSON the decoder can read
UNREADABLE = {
    "nested 100,000 deep": "[" * 100_000 + "]" * 100_000,
    "a 5,000-digit integer": "1" * 5000,
    "not UTF-8": b"\xff\xfe{}",
}


@pytest.mark.parametrize("flag", ["check-all --config", "import-model --model"])
@pytest.mark.parametrize("content", list(UNREADABLE), ids=list(UNREADABLE))
def test_unreadable_input_file_exits_2(tmp_path, capsys, flag, content):
    path = tmp_path / "input.json"
    text = UNREADABLE[content]
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    code, err = run_main(capsys, *flag.split(), str(path))
    assert code == 2 and len(err) == 1
    assert err[0].startswith(f"error: {path}: not a JSON document: ")


# the witness each mutation's one failing row gives at --winding 1
MUTATION_WITNESSES = {
    "mu2-sign": {"d": 3, "residual": "Chain(2*('x', 0, 0, 1))",
                 "tuple": [["x", 0, 0, -1], ["x", 0, 0, 1], ["x", 0, 0, 1]]},
    "f1-zero": {"d": 2, "residual": "Chain(1*('m', 'F0', 0, 'F0', 0, ('p', 0, 0, 0)))",
                "tuple": [["x", 0, 0, -1], ["x", 0, 0, 1]]},
    "pontryagin-compose": {"d": 3, "residual": "Chain(2*('p', 0, 0, 3))",
                           "tuple": [["p", 0, 0, 1], ["p", 0, 0, 1], ["p", 0, 0, 1]]},
    "flat-sign": {"dataset": "strip-chain4-mut",
                  "error": "strip-chain4-mut: stratum sum of 1-cell 'H03' has "
                           "augmentation 2; signs are inconsistent"},
    "twisted-mc": {"complex": "corrupt", "entry": [0, 2], "residual": "Chain(-2*ab)"},
}


@pytest.mark.parametrize(
    "mutation,failing",
    [
        ("mu2-sign", "ainfty"),
        ("f1-zero", "functor"),
        ("pontryagin-compose", "path-model"),
        ("flat-sign", "fundamental-chains"),
        ("twisted-mc", "tw-dg"),
    ],
)
def test_mutations_fail_with_witness(tmp_path, mutation, failing):
    out = tmp_path / "report.json"
    proc = run_cli("check-all", "--winding", "1", "--mutate", mutation,
                   "--out", str(out))
    assert proc.returncode == 1
    doc = json.loads(out.read_text())
    names = [r["name"] for r in doc["reports"]]
    assert names == ["path-model", "ainfty", "tw-dg", "fundamental-chains", "functor"]
    failures = {r["name"]: r["witness"] for r in doc["reports"] if r["status"] == "fail"}
    assert failures == {failing: MUTATION_WITNESSES[mutation]}


def test_unknown_mutation_exits_2():
    proc = run_cli("check-all", "--mutate", "bogus")
    assert proc.returncode == 2


def test_demo_s1_winding_1():
    proc = run_cli("demo-s1", "--winding", "1")
    assert proc.returncode == 0, proc.stderr
    assert "ring isomorphism: yes" in proc.stdout
    # 3x3 product table at winding bound 1, shown against loop concatenation
    rows = [l for l in proc.stdout.splitlines() if l.startswith("  x_") and "->" not in l]
    assert len(rows) == 3
    for row in rows:
        floer, loops = row.split("|")
        assert len(floer.split()) == 4 and len(loops.split()) == 3
    assert "x_-1 -> +t^-1" in proc.stdout or "x_-1 -> -t^-1" in proc.stdout


def test_demo_constant_twist_same_verdict():
    proc = run_cli("demo-s1", "--winding", "1", "--twist", "constant")
    assert proc.returncode == 0
    assert "ring isomorphism: yes" in proc.stdout


@pytest.mark.parametrize("twist", sorted(TWISTS))
def test_every_twist_passes_check_all(capsys, twist):
    assert run_main(capsys, "check-all", "--winding", "1", "--twist", twist)[0] == 0


@pytest.mark.parametrize("command", ["check-all", "demo-s1"])
def test_parity_twist_is_not_a_choice(capsys, command):
    from floerloops.cli import main

    with pytest.raises(SystemExit) as exc:
        main([command, "--twist", "parity"])
    assert exc.value.code == 2
    assert "invalid choice: 'parity'" in capsys.readouterr().err


def test_export_import_round_trip(tmp_path):
    bundle = tmp_path / "bundle.json"
    proc = run_cli("export", "--winding", "2", "--out", str(bundle))
    assert proc.returncode == 0, proc.stderr
    rep_fresh = tmp_path / "fresh.json"
    rep_imported = tmp_path / "imported.json"
    assert run_cli("check-all", "--winding", "2", "--out", str(rep_fresh)).returncode == 0
    assert run_cli("check-all", "--config", str(bundle), "--out", str(rep_imported)).returncode == 0
    assert rep_fresh.read_bytes() == rep_imported.read_bytes()


def test_export_at_max_d_2_round_trips(tmp_path):
    # at max_d 2 the closure basis is the enumeration window itself
    bundle = tmp_path / "bundle.json"
    proc = run_cli("export", "--winding", "2", "--max-d", "2", "--out", str(bundle))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("check-all", "--config", str(bundle))
    assert proc.returncode == 0, proc.stderr


def test_export_records_untwisted_f1_signs(tmp_path):
    # the seed-0 bundle-roundtrip geometry has twist constant; its
    # functor_f1 rows are the untwisted F^1, which differs from the twisted
    # one on some chord
    from floerloops.cli import _f1_image, main
    from floerloops.cylinder import CylinderGeometry, functor_F

    cfg = write_config(tmp_path, c="1/2", fibers=["0", "2/5"], winding_bound=4,
                       twist="constant")
    bundle = tmp_path / "bundle.json"
    assert main(["export", "--config", cfg, "--out", str(bundle)]) == 0
    recorded = {tuple(row["chord"]): (row["path_winding"], row["sign"])
                for row in json.loads(bundle.read_text())["functor_f1"]}
    g = CylinderGeometry(Fraction(1, 2), (Fraction(0), Fraction(2, 5)))
    untwisted, twisted = functor_F(g, 4)[0], functor_F(g, 4, twist="constant")[0]
    chords = [x for pair in untwisted.source.hom_keys for x in untwisted.source.hom_basis(*pair)]
    expected = {}
    for x in chords:
        path_gid, sign = _f1_image(untwisted, x)
        expected[x.gid] = (path_gid[3], sign)
    assert recorded == expected
    assert any(_f1_image(twisted, x)[1] != expected[x.gid][1] for x in chords)


def test_export_monotone_in_winding(tmp_path):
    b2 = tmp_path / "b2.json"
    b3 = tmp_path / "b3.json"
    assert run_cli("export", "--winding", "2", "--out", str(b2)).returncode == 0
    assert run_cli("export", "--winding", "3", "--out", str(b3)).returncode == 0
    doc2 = json.loads(b2.read_text())
    doc3 = json.loads(b3.read_text())

    def mu_map(doc):
        return {
            (json.dumps(row["inputs"])): json.dumps(row["output"])
            for row in doc["category"]["mu"]
        }

    small, large = mu_map(doc2), mu_map(doc3)
    assert set(small).issubset(set(large))
    assert all(large[k] == v for k, v in small.items())


def test_export_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli("export", "--winding", "1", "--out", str(a)).returncode == 0
    assert run_cli("export", "--winding", "1", "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_echoed(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli("check-all", "--winding", "1", "--out", str(out),
                   env_extra={"FLOERLOOPS_SEED": "42"})
    assert proc.returncode == 0
    assert "FLOERLOOPS_SEED=42" in proc.stderr
    assert json.loads(out.read_text())["seed"] == "42"


def test_import_model_valid(tmp_path):
    from floerloops.pontryagin import leibniz_witness_model

    path = tmp_path / "model.json"
    path.write_text(json.dumps(path_model_to_json(leibniz_witness_model())))
    proc = run_cli("import-model", "--model", str(path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["reports"][0]["status"] == "pass"


def test_import_model_invalid_algebra(tmp_path):
    from floerloops.pontryagin import leibniz_witness_model

    doc = path_model_to_json(leibniz_witness_model())
    for row in doc["composition"]:
        if (row["first"], row["second"]) == ("ab", "u"):
            row["result"] = {"ab": -1}  # breaks right-unitality
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("import-model", "--model", str(path))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["reports"][0]["status"] == "fail"


def test_import_model_garbage_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    proc = run_cli("import-model", "--model", str(path))
    assert proc.returncode == 2
    proc = run_cli("import-model")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "key,value,section",
    [("generators", 5, "generators"), ("units", [], "units"), ("points", 5, "points")],
)
def test_import_model_malformed_section_exits_2(tmp_path, capsys, key, value, section):
    from floerloops.pontryagin import leibniz_witness_model

    doc = path_model_to_json(leibniz_witness_model())
    doc[key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    expected = "not an object" if section == "units" else "not a list"
    assert run_main(capsys, "import-model", "--model", str(path)) == (
        2, [f"error: path_model.{section}: {expected}"])


def test_import_model_json_array_exits_2(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[1,2]")
    assert run_main(capsys, "import-model", "--model", str(path)) == (
        2, ["error: path_model: not a path_model document"])


def _generator_off_the_points(doc):
    doc["generators"].append({"id": "z", "source": 5, "target": 7, "degree": 0})


def _row_with_unknown_second(doc):
    doc["composition"].append({"first": "a", "second": "zz", "result": {}})


def _no_points(doc):
    doc["points"] = []


def _no_points_no_units(doc):
    doc["points"] = []
    doc["units"] = {}


def _generator_listed_twice(doc):
    doc["generators"].append({"id": "a", "source": 0, "target": 0, "degree": 5})


def _composition_listed_twice(doc):
    doc["composition"].append({"first": "a", "second": "b", "result": {"ab": 7}})


def _product_off_degree(doc):
    doc["composition"].append({"first": "a", "second": "a", "result": {"c": 1}})


def _differential_off_degree(doc):
    doc["differential"]["ab"] = {"c": 1}


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_generator_off_the_points, "generator 'z' runs between unknown points 5, 7"),
        (_row_with_unknown_second, "path model row names unknown generator 'zz'"),
        (_no_points, "path model has no points"),
        (_no_points_no_units, "path model has no points"),
        (_generator_listed_twice, "generator 'a' is listed twice"),
        (_composition_listed_twice, "composition 'a'.'b' is listed twice"),
        (_product_off_degree, "composition 'a'.'a' result 'c' has degree 1, expected 2"),
        (_differential_off_degree, "differential of 'ab' result 'c' has degree 1, expected 3"),
    ],
)
def test_import_model_open_tables_exit_2(tmp_path, capsys, corrupt, message):
    from floerloops.pontryagin import leibniz_witness_model

    doc = path_model_to_json(leibniz_witness_model())
    corrupt(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run_main(capsys, "import-model", "--model", str(path)) == (
        2, [f"error: path_model: {message}"])


def test_bundle_check_all_parses_the_bundle_once(tmp_path, small_bundle, monkeypatch, capsys):
    from floerloops import cli

    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(small_bundle))
    loads = []
    load = json.load

    def counted_load(fh, *args, **kwargs):
        loads.append(fh.name)
        return load(fh, *args, **kwargs)

    monkeypatch.setattr(json, "load", counted_load)
    assert cli.main(["check-all", "--config", str(path)]) == 0
    assert loads == [str(path)]


def test_timings_flag_breaks_byte_identity_only_in_timing(tmp_path):
    out = tmp_path / "t.json"
    proc = run_cli("check-all", "--winding", "1", "--timings", "--out", str(out))
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert all(isinstance(r["timing_ms"], float) for r in doc["reports"])


@pytest.mark.parametrize(
    "argv",
    [
        ["import-model", "--model", "m.json", "--out", "r.json"],
        ["export", "--mutate", "mu2-sign"],
        ["export", "--timings"],
        ["demo-s1", "--max-d", "3"],
        ["demo-s1", "--out", "r.txt"],
        ["check-all", "--model", "m.json"],
    ],
)
def test_subcommands_refuse_flags_they_do_not_read(argv, capsys):
    from floerloops.cli import build_parser

    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_no_public_parameter_is_a_mutation_hook():
    # mutations wrap a report row's input (cli.MUTATIONS), and sign gauges
    # wrap a category (tests/gauges.py); no production signature carries a
    # switch for either
    import importlib
    import inspect
    import pkgutil

    import floerloops

    hooks = []
    for info in pkgutil.iter_modules(floerloops.__path__):
        module = importlib.import_module(f"floerloops.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj]
            if inspect.isclass(obj):
                members += [m for n, m in vars(obj).items()
                            if inspect.isfunction(m) and not n.startswith("_")]
            for fn in filter(callable, members):
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):
                    continue
                hooks += [f"{module.__name__}.{name}({p})" for p in params
                          if p.startswith("mutate") or p == "tokens"]
    assert hooks == []


def test_no_module_imports_a_name_it_never_uses():
    # `__init__` imports only to re-export; every other module reads each
    # name it imports
    import ast

    import floerloops

    unused = []
    for path in sorted(pathlib.Path(floerloops.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


TRACED_RUN = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from floerloops import cli
import tracing

def run(tag):
    report, bundle, again = (os.path.join(sys.argv[2], f"{tag}-{name}.json")
                             for name in ("report", "bundle", "again"))
    codes = [cli.main(["check-all", "--winding", "1", "--out", report]),
             cli.main(["export", "--winding", "1", "--out", bundle]),
             cli.main(["check-all", "--config", bundle, "--out", again])]
    return codes, [open(p).read() for p in (report, bundle, again)]

plain = run("plain")
tracer = tracing.Tracer()
tracing.install(tracer)
traced = run("traced")
print(json.dumps({"plain": plain, "traced": traced, "missing": tracer.missing,
                  "spans": sorted({s[0] for s in tracer.spans})}))
"""


def test_benchmark_tracer_hooks_every_layer(tmp_path):
    # the benchmark's tracer rebinds package functions by name and swaps a
    # category's `mu_fn` and `composable_tuples`; it runs in its own
    # process because the hooks patch the modules globally
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(perfbench), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["missing"] == []
    assert doc["traced"] == doc["plain"]
    assert doc["plain"][0] == [0, 0, 0]
    assert {"ainfty.check_ainfty.cylinder", "ainfty.check_ainfty.imported"} <= set(doc["spans"])
