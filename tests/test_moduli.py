import dataclasses
import itertools

import pytest

from floerloops import cli
from floerloops.cylinder import chord_pairs, half_disc_d2_family
from floerloops.gradedalg import sign_pow
from floerloops.moduli import (
    ModuliCell,
    ModuliConsistencyError,
    StratifiedModuli,
    Stratum,
    boundary_sign_half_disc_strata,
    boundary_sign_strips,
    choose_fundamental_chains,
    make_stratum,
    moduli_from_json,
    moduli_to_json,
    stratum_sign,
    synthetic_dataset_battery,
    synthetic_disc_dataset,
    synthetic_half_disc_d2_dataset,
    synthetic_strip_dataset,
    verify_boundary_consistency,
)


@pytest.mark.parametrize(
    "qi,qk,expected", [(0, 0, 1), (1, 0, -1), (1, 1, 1), (0, 1, -1), (2, 1, -1)]
)
def test_strip_sign_parity(qi, qk, expected):
    assert boundary_sign_strips(qi, qk) == expected


def test_half_disc_d1_signs():
    assert boundary_sign_half_disc_strata("d1_left", {}) == 1
    assert boundary_sign_half_disc_strata(
        "d1_top", {"deg_x0": 1, "deg_q0": 1}
    ) == 1
    assert boundary_sign_half_disc_strata(
        "d1_right", {"deg_q0": 0, "deg_x": 0, "deg_q1p": 0}
    ) == -1


def test_flat_and_sharp_examples():
    # flat with d2=1, all degrees 0, d1=1: exponent 0 + 2
    assert boundary_sign_half_disc_strata(
        "flat", {"d1": 1, "d2": 1, "deg_q0": 0, "deg_qmid": 0, "deg_xs": (0,)}
    ) == 1
    # sharp with d2=1, k=0, d=2, degrees 0: exponent 0 + 2 + 1
    assert boundary_sign_half_disc_strata(
        "sharp", {"d": 2, "d2": 1, "k": 0, "deg_q0": 0, "deg_xs": (0,)}
    ) == -1
    # the disc-bubble end of the two-input family: d2=2, k=0
    assert boundary_sign_half_disc_strata(
        "sharp", {"d": 2, "d2": 2, "k": 0, "deg_q0": 0, "deg_xs": (0, 0)}
    ) == -1
    with pytest.raises(ValueError):
        boundary_sign_half_disc_strata("nope", {})


def test_all_zero_dimensional_chains_are_signed_counts():
    ds = synthetic_disc_dataset()
    chains = choose_fundamental_chains(ds)
    for cell in ds.cells.values():
        ((gen, coeff),) = list(chains.chains[cell.cid].items())
        assert coeff == cell.count
    assert verify_boundary_consistency(ds, chains).ok


def test_single_interval_with_balanced_ends():
    ds = synthetic_strip_dataset("pair")
    chains = choose_fundamental_chains(ds)
    rhs = chains.boundaries["H02"]
    assert sum(rhs.terms.values()) == 0
    assert not rhs.is_zero()
    assert verify_boundary_consistency(ds, chains).ok


def test_two_dimensional_tower_closedness():
    ds = synthetic_strip_dataset("tower")
    chains = choose_fundamental_chains(ds)
    assert verify_boundary_consistency(ds, chains).ok


def test_battery_spans_rules_and_passes():
    battery = synthetic_dataset_battery()
    assert len(battery) >= 10
    rules = {st.rule for ds in battery for strata in ds.boundary.values() for st in strata}
    assert rules == {"strip", "d1_top", "d1_right", "d1_left", "flat", "sharp"}
    kinds = {ds.kind for ds in battery}
    assert kinds == {"strip", "half_disc", "disc"}
    for ds in battery:
        chains = choose_fundamental_chains(ds)
        assert verify_boundary_consistency(ds, chains).ok


def test_every_single_sign_mutation_detected():
    for ds in synthetic_dataset_battery():
        for idx in range(ds.n_strata()):
            mutated = ds.mutated(idx)
            try:
                chains = choose_fundamental_chains(mutated)
            except ModuliConsistencyError:
                continue
            rep = verify_boundary_consistency(mutated, chains)
            assert not rep.ok, f"{ds.name} stratum {idx} undetected"


def test_pipeline_chooses_each_distinct_dataset_once(three_fibers, monkeypatch):
    # check-all's fundamental-chains input on the acceptance geometry: every
    # half-disc family has the cells and boundary of a battery dataset
    datasets = synthetic_dataset_battery() + [
        half_disc_d2_family(three_fibers, x1, x2)[0] for x1, x2 in chord_pairs(three_fibers, 2)
    ]
    chosen = []

    def counting_choose(ds):
        chosen.append(ds.name)
        return choose_fundamental_chains(ds)

    monkeypatch.setattr(cli, "choose_fundamental_chains", counting_choose)
    rep = cli._moduli_pipeline(datasets)
    assert rep.ok and len(datasets) == 687
    assert (rep.details["datasets"], rep.details["duplicate_datasets"]) == (12, 675)
    assert chosen == [ds.name for ds in synthetic_dataset_battery()]


def test_duplicate_dataset_witness_names_the_first_copy():
    # a flat-sign-mutated dataset listed twice under two names: the witness
    # is the one it has alone, naming whichever copy comes first
    battery = synthetic_dataset_battery()
    mutated = cli.MUTATIONS["flat-sign"][1](battery)[0]
    alone = repr(cli._moduli_pipeline([mutated]).witness)
    for first, second in ((mutated, dataclasses.replace(mutated, name="later")),
                          (dataclasses.replace(mutated, name="early"), mutated)):
        rep = cli._moduli_pipeline(battery[1:] + [first, second])
        assert not rep.ok
        assert repr(rep.witness) == alone.replace(mutated.name, first.name)
        assert second.name not in repr(rep.witness)


def test_datasets_differing_in_kind_or_cells_are_checked():
    # neither is a copy of chain4: a count flipped on one rigid cell (which
    # fails), and the same cells and boundary under another kind
    ds = synthetic_strip_dataset("chain4")
    recount = dataclasses.replace(ds, name="recount",
                                  cells={**ds.cells, "H02": ModuliCell("H02", 0, 1)})
    rep = cli._moduli_pipeline([ds, recount])
    assert not rep.ok and rep.witness["dataset"] == "recount"
    rep = cli._moduli_pipeline([ds, dataclasses.replace(ds, kind="disc", name="rekind")])
    assert (rep.details["datasets"], rep.details["duplicate_datasets"]) == (2, 0)


def test_verify_empty_dataset_vacuous():
    ds = StratifiedModuli("strip", "empty", {}, {})
    chains = choose_fundamental_chains(ds)
    assert verify_boundary_consistency(ds, chains).ok


def test_chooser_rejects_unbalanced_interval():
    cells = {
        "A": ModuliCell("A", 0, 1),
        "B": ModuliCell("B", 0, 1),
        "I": ModuliCell("I", 1),
    }
    boundary = {"I": (make_stratum("A", "B", "strip", deg_qi=0, deg_qk=0),)}
    ds = StratifiedModuli("strip", "unbalanced", cells, boundary)
    with pytest.raises(ModuliConsistencyError):
        choose_fundamental_chains(ds)


def test_stratum_validation():
    with pytest.raises(ValueError):
        Stratum("A", "B", 2, "strip")
    with pytest.raises(ValueError):
        Stratum("A", "B", 1, "bogus")
    with pytest.raises(ValueError):
        StratifiedModuli("weird", "w", {}, {})
    with pytest.raises(ValueError):
        ModuliCell("c", 3)
    # stratum dimensions must fit the boundary of the cell
    cells = {"A": ModuliCell("A", 0), "B": ModuliCell("B", 0), "I": ModuliCell("I", 2)}
    with pytest.raises(ValueError):
        StratifiedModuli(
            "strip", "dims", cells,
            {"I": (make_stratum("A", "B", "strip", deg_qi=0, deg_qk=0),)},
        )


def test_sign_square_commutativity():
    # the two orders of double strip breaking cancel in the boundary of the
    # boundary: route A breaks at k1 and then the right factor at k2, with
    # the Leibniz sign of the left factor; route B breaks at k2 and then the
    # left factor at k1
    for qi, qk1, qk2 in itertools.product(range(4), repeat=3):
        route_a = (boundary_sign_strips(qi, qk1) * sign_pow(qi - qk1 - 1)
                   * boundary_sign_strips(qk1, qk2))
        route_b = boundary_sign_strips(qi, qk2) * boundary_sign_strips(qi, qk1)
        assert route_a + route_b == 0, (qi, qk1, qk2)


def test_half_disc_d2_patterns_need_dimension_one():
    with pytest.raises(ValueError):
        synthetic_half_disc_d2_dataset(0, 1, 1, 0)


def test_stratum_sign_helper_matches_rules():
    assert stratum_sign("strip", {"deg_qi": 1, "deg_qk": 0}) == -1
    assert stratum_sign("d1_left", {}) == 1


def test_moduli_json_round_trip():
    for ds in synthetic_dataset_battery():
        doc = moduli_to_json(ds)
        again = moduli_from_json(doc)
        assert moduli_to_json(again) == doc
        chains = choose_fundamental_chains(again)
        assert verify_boundary_consistency(again, chains).ok
    with pytest.raises(ValueError):
        moduli_from_json({"kind": "nope"})
