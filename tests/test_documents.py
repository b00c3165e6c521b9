"""Every document kind goes through the one loader: a valid document loads
as before, and dropping one field it needs or giving one field a value of
the wrong JSON type raises DocumentError, never another exception."""

import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from floerloops import cli
from floerloops.ainfty import category_from_json, category_to_json
from floerloops.cylinder import CylinderGeometry, cylinder_category
from floerloops.documents import DocumentError
from floerloops.moduli import moduli_from_json, moduli_to_json, synthetic_dataset_battery
from floerloops.pontryagin import circle_model, leibniz_witness_model, path_model_from_json
from floerloops.twisted import synthetic_twisted_complexes, twisted_from_json, twisted_to_json
from path_models import path_model_to_json

# fields a reader does without, and objects whose keys are data, not fields
OPTIONAL = {"twist", "is_dg", "differential", "count", "data",
            "twisted_complexes", "functor_f1", "moduli"}
MAPS = {"units", "differential", "result"}
GEOMETRY = {"kind": "geometry_config", "schema_version": 1, "c": "1/2",
            "fibers": ["0", "2/5"], "winding_bound": 1, "max_d": 3, "twist": "constant"}
MODEL = circle_model(2)


def _load_config(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return cli.load_run_config(cli.build_parser().parse_args(["check-all", "--config", path]))


def _bases(cat):
    """A category's hom bases, decoded from its keys."""
    return {pair: cat.hom_basis(*pair) for pair in cat.hom_keys}


def _load_bundle(doc):
    cfg = _load_config(doc)
    return cfg.as_json(), _bases(cli._bundle_category(cfg))


def _export_bundle():
    with tempfile.TemporaryDirectory() as tmp:
        config, bundle = os.path.join(tmp, "config.json"), os.path.join(tmp, "bundle.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(GEOMETRY, fh)
        assert cli.main(["export", "--config", config, "--out", bundle]) == 0
        with open(bundle, encoding="utf-8") as fh:
            return json.load(fh)


BUNDLE = _export_bundle()
# the bundle's category without the bounds only the bundle reader reads
CATEGORY = {key: value for key, value in BUNDLE["category"].items()
            if key not in ("enumeration_bound", "max_d")}
GEOMETRY_OF_BUNDLE = CylinderGeometry(Fraction(1, 2), (Fraction(0), Fraction(2, 5)))

# kind -> (a valid document, its reader, what the parent's reader made of it)
DOCUMENTS = {
    "geometry_config": (GEOMETRY, lambda doc: _load_config(doc).as_json(), GEOMETRY),
    "export_bundle": (BUNDLE, _load_bundle,
                      (GEOMETRY, _bases(cylinder_category(GEOMETRY_OF_BUNDLE, 1)))),
    "ainfty_category": (CATEGORY, lambda doc: category_to_json(*category_from_json(doc)),
                        CATEGORY),
    "path_model": (path_model_to_json(leibniz_witness_model()),
                   lambda doc: path_model_to_json(path_model_from_json(doc)),
                   path_model_to_json(leibniz_witness_model())),
    "twisted_complex": (twisted_to_json(synthetic_twisted_complexes(MODEL, "j")[-1]),
                        lambda doc: twisted_to_json(twisted_from_json(MODEL, doc)),
                        twisted_to_json(synthetic_twisted_complexes(MODEL, "j")[-1])),
    "stratified_moduli": (moduli_to_json(synthetic_dataset_battery()[0]),
                          lambda doc: moduli_to_json(moduli_from_json(doc)),
                          moduli_to_json(synthetic_dataset_battery()[0])),
}


def _fields(doc, path=(), in_map=False):
    """(path, droppable) of every object field in `doc`; a key of a map, or
    of anything inside one, is data and never dropped."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            inner = in_map or key in MAPS
            yield path + (key,), not in_map and key not in OPTIONAL
            yield from _fields(value, path + (key,), inner)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _fields(value, path + (i,))


@pytest.mark.parametrize("kind", list(DOCUMENTS))
def test_valid_document_loads_as_before(kind):
    doc, load, expected = DOCUMENTS[kind]
    assert doc["kind"] == kind
    assert load(doc) == expected


@pytest.mark.parametrize("kind", list(DOCUMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_broken_field_raises_document_error(kind, data):
    doc, load, _ = DOCUMENTS[kind]
    path, droppable = data.draw(st.sampled_from(list(_fields(doc))), label="field")
    # null and floats are no field's type, and no field takes both a list and an object
    change = data.draw(st.sampled_from(["drop", None, 0.5, "swap"] if droppable
                                       else [None, 0.5, "swap"]), label="change")
    broken = json.loads(json.dumps(doc))
    parent = broken
    for key in path[:-1]:
        parent = parent[key]
    if change == "drop":
        del parent[path[-1]]
    elif change == "swap":
        parent[path[-1]] = [] if isinstance(parent[path[-1]], dict) else {}
    else:
        parent[path[-1]] = change
    with pytest.raises(DocumentError):
        load(broken)
