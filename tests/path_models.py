"""The path_model document of a table-backed model, written from its public
methods.  The program only reads path models; the tests write the ones they
feed it."""

from floerloops.documents import SCHEMA_VERSION


def path_model_to_json(model) -> dict:
    gens = model.all_gens()
    composition = []
    for g1 in gens:
        for g2 in gens:
            if model.gen_endpoints(g1)[1] == model.gen_endpoints(g2)[0]:
                result = model.concat_gens(g1, g2)
                if not result.is_zero():
                    composition.append({"first": str(g1.gid), "second": str(g2.gid), "result": {
                        str(g.gid): c for g, c in result.sorted_items()}})
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "path_model",
        "points": [str(p) for p in model.points],
        "generators": [{"id": str(g.gid), "source": model.gen_endpoints(g)[0],
                        "target": model.gen_endpoints(g)[1], "degree": g.degree} for g in gens],
        "units": {str(i): str(model.unit_gen(i).gid) for i in range(model.npoints())},
        "differential": {str(g.gid): {str(h.gid): c for h, c in model.d_gen(g).sorted_items()}
                         for g in gens if not model.d_gen(g).is_zero()},
        "composition": sorted(composition, key=lambda row: (row["first"], row["second"])),
    }
