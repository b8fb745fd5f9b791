import pytest

from finhom import Integers, IntegersModN, Matrix, PrimeField
from finhom.complexes import ChainComplex, disk, sphere, tensor_complexes
from finhom.cotorsion import (
    CTILDE,
    DG_C_RIGHT,
    DG_F_LEFT,
    FTILDE,
    CotorsionPairData,
    ObjectClass,
    check_compatibility,
    complex_class_member,
    deliberately_wrong_pair,
    flat_pair,
    induced_generating_monos,
    injective_pair,
    projective_pair,
    right_perp_member,
)
from finhom.errors import PreconditionFailedError
from finhom.modules import FpModule, ModuleMap
from finhom.sampling import DeterministicSampler
from oracles import dg_family_oracle

ZZ = Integers()
Z4 = IntegersModN(4)
Z6 = IntegersModN(6)


def zmod(d):
    return FpModule.cyclic(ZZ, d)


def test_right_perp_member_examples():
    assert right_perp_member(zmod(3), [zmod(2)])
    assert not right_perp_member(zmod(2), [zmod(2)])
    assert right_perp_member(zmod(2), [FpModule.free(ZZ, 1), FpModule.free(ZZ, 2)])


def test_standard_pairs_validate():
    for ring in (ZZ, Z4, Z6, PrimeField(3)):
        projective_pair(ring)
        flat_pair(ring)
    injective_pair(Z4)
    injective_pair(Z6)
    with pytest.raises(Exception):
        injective_pair(ZZ)


def test_ftilde_membership():
    pair = flat_pair(ZZ)
    D = disk(1, FpModule.free(ZZ, 1))
    ok, cert = complex_class_member(D, FTILDE, pair)
    assert ok and cert.verdict
    S = sphere(0, zmod(2))
    ok2, cert2 = complex_class_member(S, FTILDE, pair)
    assert not ok2 and "not exact" in cert2.failure

    # exact complex with non-flat cycles: Z/4 --2--> Z/4 --2--> Z/4 is not
    # exact at the ends; use disk on torsion instead: cycles Z/2 not flat over Z
    Dt = disk(0, zmod(2))
    ok3, cert3 = complex_class_member(Dt, FTILDE, pair)
    assert not ok3 and cert3.exactness


def test_dg_membership_bounded_projectives():
    pair = projective_pair(ZZ)
    X = ChainComplex(ZZ, {1: FpModule.free(ZZ, 1), 0: FpModule.free(ZZ, 1)},
                     {1: ModuleMap(FpModule.free(ZZ, 1), FpModule.free(ZZ, 1),
                                   Matrix.from_rows(ZZ, [[2]]))})
    ok, cert = complex_class_member(X, DG_F_LEFT, pair)
    assert ok
    assert sorted(cert.degree_results) == list(X.support)
    assert all(cert.degree_results.values())
    assert "scale" not in cert.describe()

    S = sphere(0, zmod(2))
    ok2, _ = complex_class_member(S, DG_F_LEFT, pair)
    assert not ok2  # Z/2 is not projective over Z


def test_unknown_object_class_is_rejected():
    with pytest.raises(PreconditionFailedError):
        ObjectClass("PerpOfFamily")
    assert ObjectClass(ObjectClass.FLAT) == ObjectClass(ObjectClass.FLAT)


@pytest.mark.parametrize("ring, torsion", [(ZZ, 2), (Z4, 2), (IntegersModN(12), 2),
                                           (PrimeField(3), None)],
                         ids=["Z", "Z/4", "Z/12", "F3"])
def test_dg_classes_agree_with_the_disk_family_oracle(ring, torsion):
    # the removed disk family never rejected a degreewise member, so the
    # degreewise verdict is the family's verdict
    pairs = [projective_pair(ring), flat_pair(ring)]
    if ring.is_quasi_frobenius:
        pairs.append(injective_pair(ring))
    sampler = DeterministicSampler(5)
    complexes = []
    for _ in range(4):
        X = sampler.free_complex(ring, max_support=3, max_rank=2)
        complexes.append(X)
        if torsion is not None:
            complexes.append(tensor_complexes(X, sphere(0, FpModule.cyclic(ring, torsion))))
    if torsion is not None:
        complexes.append(sphere(0, FpModule.cyclic(ring, torsion)))
    verdicts = set()
    for pair in pairs:
        for X in complexes:
            for cls in (DG_F_LEFT, DG_C_RIGHT):
                expected, tests = dg_family_oracle(X, cls, pair)
                assert all(null for _, null in tests)
                ok, cert = complex_class_member(X, cls, pair)
                assert ok == cert.verdict == expected
                verdicts.add(ok)
    if torsion is not None:
        assert verdicts == {True, False}


def test_dg_right_membership():
    pair = injective_pair(Z4)
    # free modules over Z/4 are injective; a bounded complex of frees is dg-right
    F = FpModule.free(Z4, 1)
    X = ChainComplex(Z4, {1: F, 0: F},
                     {1: ModuleMap(F, F, Matrix.from_rows(Z4, [[2]]))})
    ok, cert = complex_class_member(X, DG_C_RIGHT, pair)
    assert ok
    S = sphere(0, FpModule.cyclic(Z4, 2))
    ok2, _ = complex_class_member(S, DG_C_RIGHT, pair)
    assert not ok2


def test_ctilde_membership():
    pair = projective_pair(Z6)
    D = disk(2, FpModule.cyclic(Z6, 2))
    ok, _ = complex_class_member(D, CTILDE, pair)
    assert ok  # over a semisimple ring every module is right-class


def test_induced_generating_monos_window():
    pair = projective_pair(ZZ)
    monos = induced_generating_monos(pair, range(0, 2))
    # 2 disks + 2 sphere->disk + 2 sphere-stretched (0 -> S^n(Z))
    assert len(monos) == 6
    shapes = []
    for f in monos:
        assert f.is_mono()
        C = f.cokernel_complex()
        shapes.append((C.lo, C.hi))
        ok, _ = complex_class_member(C, DG_F_LEFT, pair)
        assert ok
    # disk cokernels span two degrees, sphere cokernels one
    assert shapes.count((0, 0)) >= 1 and shapes.count((1, 1)) >= 1

    assert induced_generating_monos(pair, range(0, 0)) == []


def test_check_compatibility_good_pairs():
    rep = check_compatibility(projective_pair(Z4), sample_budget=10, seed=1)
    assert rep.all_pass, rep.lines()
    rep2 = check_compatibility(flat_pair(ZZ), sample_budget=10, seed=1)
    assert rep2.all_pass, rep2.lines()


def test_check_compatibility_wrong_pair():
    rep = check_compatibility(deliberately_wrong_pair(ZZ), sample_budget=10, seed=1)
    assert not rep.all_pass
    ext_verdict = [v for v in rep.verdicts if v.name == "ext-vanishing"][0]
    assert not ext_verdict.passed
    assert any("Ext^1" in c and "Z/2" in c for c in ext_verdict.counterexamples)


def test_class_samples_deterministic():
    pair = projective_pair(ZZ)
    assert [m.invariant_factors() for m in pair.left_samples()] == \
        [m.invariant_factors() for m in pair.left_samples()]
    wrong = deliberately_wrong_pair(ZZ)
    rs = wrong.right_samples()
    assert rs and rs[0].invariant_factors() == (2,)
