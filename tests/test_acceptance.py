"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime.  All comparisons are exact integer/rational identities."""

import time
from fractions import Fraction

from floerloops.ainfty import check_ainfty, check_functor
from floerloops.cylinder import (
    CylinderGeometry,
    build_F_object,
    chord,
    cylinder_category,
    functor_F,
    maslov_cross_check,
    mu_d,
    pontryagin_target,
    raster_cross_check,
    ring_isomorphism_report,
    structure_constants,
)
from floerloops.moduli import (
    ModuliConsistencyError,
    choose_fundamental_chains,
    synthetic_dataset_battery,
    verify_boundary_consistency,
)
from floerloops.pontryagin import circle_model
from floerloops.twisted import check_tw_dg, synthetic_twisted_complexes


ACCEPTANCE_GEOMETRY = CylinderGeometry(
    Fraction(1), (Fraction(0), Fraction(1, 3), Fraction(3, 4))
)
WINDING_BOUND = 3
MAX_D = 4


def report(criterion, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {criterion} ({elapsed:.2f}s, budget {budget}s)")
    assert ok
    assert elapsed < budget


def test_criterion_1_ainfty_relations():
    t0 = time.perf_counter()
    cat = cylinder_category(ACCEPTANCE_GEOMETRY, WINDING_BOUND)
    rep = check_ainfty(cat, MAX_D)
    elapsed = time.perf_counter() - t0
    ok = rep.ok and rep.details["tuples_checked"] > 0
    report("criterion 1: A-infinity relations (c=1, 3 fibres, w<=3, d<=4)",
           ok, elapsed, 1)


def test_criterion_2_circle_equivalence():
    t0 = time.perf_counter()
    g = CylinderGeometry(Fraction(1), (Fraction(0),))
    F, _model, _objs = functor_F(g, WINDING_BOUND)
    # F^1 is a winding-preserving signed bijection of the fibre's chords
    # onto its loop classes
    ring = ring_isomorphism_report(F)
    bijective = ring.ok and ring.details["basis_size"] == 2 * WINDING_BOUND + 1
    functor_eq = check_functor(F, 2).ok
    acceptance_F, _model, _objs = functor_F(ACCEPTANCE_GEOMETRY, WINDING_BOUND)
    acceptance = check_functor(acceptance_F, 2)
    functor_eq &= acceptance.ok and acceptance.details["tuples_checked"] == 1386
    elapsed = time.perf_counter() - t0
    report("criterion 2: circle equivalence (F1 bijection, d=1,2 functor "
           "equations on one and three fibres)", bijective and functor_eq,
           elapsed, 1)


def test_criterion_3_twisted_dg_axioms():
    t0 = time.perf_counter()
    ok = True
    total_synthetic = 0
    g = ACCEPTANCE_GEOMETRY
    model = pontryagin_target(g)
    f_objs = [build_F_object(g, L, model) for L in range(g.nfibers())]
    ok &= check_tw_dg(model, f_objs, window=2).ok
    for n in (1, 2, 3):
        cm = circle_model(n)
        samples = synthetic_twisted_complexes(cm, tag=f"acc{n}")
        if n > 1:
            samples = [T for T in samples if T.nsummands() <= 3]
        total_synthetic += len(samples)
        ok &= check_tw_dg(cm, samples, window=1).ok
    ok &= total_synthetic >= 20
    elapsed = time.perf_counter() - t0
    report(f"criterion 3: twisted-complex DG axioms (F(L) + {total_synthetic} "
           "synthetic complexes)", ok, elapsed, 0.4)


def test_criterion_4_sign_lemma_consistency():
    t0 = time.perf_counter()
    battery = synthetic_dataset_battery()
    ok = len(battery) >= 10
    rules = {st.rule for ds in battery for strata in ds.boundary.values() for st in strata}
    ok &= rules == {"strip", "d1_top", "d1_right", "d1_left", "flat", "sharp"}
    for ds in battery:
        chains = choose_fundamental_chains(ds)
        ok &= verify_boundary_consistency(ds, chains).ok
    mutations_detected = 0
    mutations_total = 0
    for ds in battery:
        for idx in range(ds.n_strata()):
            mutations_total += 1
            mutated = ds.mutated(idx)
            try:
                chains = choose_fundamental_chains(mutated)
            except ModuliConsistencyError:
                mutations_detected += 1
                continue
            if not verify_boundary_consistency(mutated, chains).ok:
                mutations_detected += 1
    ok &= mutations_detected == mutations_total > 0
    elapsed = time.perf_counter() - t0
    report(f"criterion 4: sign-lemma consistency ({len(battery)} datasets, "
           f"{mutations_total}/{mutations_total} mutations detected)",
           ok, elapsed, 5)


def test_criterion_5_background_twist():
    t0 = time.perf_counter()
    g = ACCEPTANCE_GEOMETRY
    base = structure_constants(g, 2, twist="none")
    flipped = structure_constants(g, 2, twist="constant")
    negated = all(
        flipped[key] == {gid: -c for gid, c in val.items()}
        for key, val in base.items()
    )
    cat = cylinder_category(g, WINDING_BOUND, twist="constant")
    still_passes = check_ainfty(cat, MAX_D).ok
    elapsed = time.perf_counter() - t0
    report("criterion 5: background twist (N_b=0 unchanged, N_b=1 negates "
           "and criterion 1 still passes)", negated and still_passes, elapsed, 1)


def test_criterion_6_rescaling_invariance():
    t0 = time.perf_counter()
    g = ACCEPTANCE_GEOMETRY
    base = structure_constants(g, WINDING_BOUND)
    ok = True
    for rho in (Fraction(2), Fraction(4)):
        ok &= structure_constants(g.rescaled(rho), WINDING_BOUND) == base
    elapsed = time.perf_counter() - t0
    report("criterion 6: Liouville rescaling invariance (rho in {2, 4})",
           ok, elapsed, 0.5)


def test_criterion_7_oracle_cross_checks():
    t0 = time.perf_counter()
    g = ACCEPTANCE_GEOMETRY
    maslov = maslov_cross_check(g, WINDING_BOUND)
    raster = raster_cross_check(g, WINDING_BOUND, (192, 384))
    # no rigid polygon for d = 3, 4: the family has dimension d - 2 > 0
    no_rigid = all(
        mu_d(g, xs).is_zero()
        for d in (3, 4)
        for w in range(-WINDING_BOUND, WINDING_BOUND + 1)
        for xs in [tuple(chord(g, k % 3, (k + 1) % 3, w) for k in range(d))]
    )
    elapsed = time.perf_counter() - t0
    ok = maslov.ok and raster.ok and no_rigid
    report("criterion 7: Maslov and raster oracles agree exactly",
           ok, elapsed, 0.5)
