"""Which package functions the program's own runs reach.

The workload runs in this process under `sys.setprofile`: `check-all` on
the default config and on the acceptance config under both twists,
`export` on the default and acceptance configs and on the seed-0 config at
max_d 4 and 3, `check-all` on the seed-0 bundle, plain and under `mu2-sign`
and `f1-zero`, the five `--mutate` runs, `demo-s1` (all as `test_digests`
runs them), `import-model` on `leibniz_witness_model`'s document, and the
raster and Maslov oracles and the structure constants at rho 1, 2 and 4,
as the oracle sweep runs them.  The package was imported before the
profile starts, so each module's body is run again under it, into a fresh
namespace: what a module calls at import counts as reached.  The
package's functions are listed from its source and matched to the called
code objects by module and qualified name, not by line, since a decorated
function's code reports its decorator's line.

The functions the workload never calls must be exactly NEVER_CALLED.  A
function that stops being reached fails the test until it is deleted,
reached again or pinned; adding a name to the table needs its reason in
CHANGES.md.
"""

import ast
import json
import pathlib
import sys
from fractions import Fraction

import floerloops
import test_digests
from floerloops.cylinder import (
    CylinderGeometry,
    maslov_cross_check,
    raster_cross_check,
    structure_constants,
)
from floerloops.pontryagin import leibniz_witness_model
from path_models import path_model_to_json

MODULES = sorted(pathlib.Path(floerloops.__file__).parent.glob("*.py"))

# module.qualname -> why no run calls it
NEVER_CALLED = {
    "ainfty.AInftyCategory.composable_tuples":
        "tracer hook: perfbench/tracing.py wraps it by name",
    "ainfty.ainfty_residual": "reference: one tuple's residual, for the tests",
    "twisted.tw_mu1": "reference: matrix mu_1 beside the keyed tw table",
    "twisted.tw_mu2": "reference: matrix mu_2 beside the keyed tw table",
    "twisted.matrix_add": "reference: used only by tw_mu1 and tw_mu2",
    "twisted.matrix_entry_degree": "reference: the tests' matrix category",
    "pontryagin.path_model_category.<locals>.mu_fn":
        "reference: the Chain-level mu beside the keyed one",
    "twisted.twisted_from_json": "reader a bundle does not re-check yet",
    "ainfty.chain_from_json": "used only by twisted_from_json",
    "ainfty.chain_to_json":
        "writer of a connection entry: the exported fibre complexes have none",
    "moduli.moduli_from_json": "reader a bundle does not re-check yet",
    "pontryagin.circle_model": "test helper: the circle model with n points",
    "pontryagin.PathModel.hom_basis": "abstract hook: every model overrides it",
    "pontryagin.PathModel.gen_endpoints": "abstract hook: every model overrides it",
    "pontryagin.PathModel.unit_gen": "abstract hook: every model overrides it",
    "pontryagin.PathModel.concat_gens": "abstract hook: every model overrides it",
    "pontryagin.PathModel.d_gen": "abstract hook: every model overrides it",
    "pontryagin.MutatedPathModel.gen_endpoints":
        "interface: forwards to the base model; no run asks the wrapper",
    "pontryagin.MutatedPathModel.unit_gen":
        "interface: forwards to the base model; no run asks the wrapper",
    "pontryagin.CirclePathModel.displacement": "a path class's displacement; no row reads it",
    "gradedalg.Chain.__len__": "operator no run applies",
    "gradedalg.Chain.__rmul__": "operator no run applies",
    "gradedalg.Chain.__sub__": "operator no run applies",
    "report.CheckReport.__bool__": "operator no run applies",
}


def _defined(path: pathlib.Path) -> set[str]:
    """The qualified names of the functions defined in a module's source."""
    names = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return names


def _workload(tmp: pathlib.Path) -> None:
    for path in MODULES:
        name = "floerloops" if path.stem == "__init__" else f"floerloops.{path.stem}"
        exec(compile(path.read_text(), str(path), "exec"),
             {"__name__": name, "__package__": "floerloops"})
    test_digests.outputs(tmp)
    model = tmp / "leibniz.json"
    model.write_text(MODEL_DOCUMENT)
    assert test_digests._run("import-model", "--model", str(model))[0] == 0
    g = CylinderGeometry(Fraction(1), (Fraction(0), Fraction(1, 3), Fraction(3, 4)))
    for rho in (1, 2, 4):
        scaled = g.rescaled(Fraction(rho))
        assert raster_cross_check(scaled, 3, (192, 384)).ok
        assert maslov_cross_check(scaled, 3).ok
        assert structure_constants(scaled, 3)


# written before profiling, so that the writer's calls are not counted
MODEL_DOCUMENT = json.dumps(path_model_to_json(leibniz_witness_model()))


def test_functions_no_run_reaches_are_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("FLOERLOOPS_SEED", raising=False)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _workload(tmp_path)
    finally:
        sys.setprofile(None)
    reached = {(code.co_filename, code.co_qualname) for code in called}
    never = {
        f"{path.stem}.{name}"
        for path in MODULES
        for name in _defined(path)
        if (str(path), name) not in reached
    }
    assert sorted(never) == sorted(NEVER_CALLED)
