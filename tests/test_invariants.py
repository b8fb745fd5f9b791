"""Property tests for the classification invariants of generating
monomorphisms: lifting behavior detects epis with right-class kernels
(I-inj) and monos with left-class cokernels (I-cof), checked in both
directions against exhaustive square enumeration on a finite ring."""

import itertools

import pytest

from finhom import Integers, IntegersModN, Matrix
from finhom.complexes import (
    ChainComplex,
    disk,
    sphere,
    tensor_assoc_iso,
    tensor_symmetry_iso,
    tensor_unit_iso_complex,
)
from finhom.cotorsion import injective_pair, projective_pair, right_perp_member
from finhom.functors import is_projective
from finhom.modules import FpModule, ModuleMap
from finhom.sampling import DeterministicSampler
from oracles import all_module_maps

Z4 = IntegersModN(4)
ZZ = Integers()


def _commuting_squares(i, p, limit=200):
    """All (top, bottom) with p top = bottom i, up to a budget."""
    out = []
    for top in all_module_maps(i.source, p.source):
        for bottom in all_module_maps(i.target, p.target):
            if p.compose(top).equals(bottom.compose(i)):
                out.append((top, bottom))
                if len(out) >= limit:
                    return out
    return out


def _has_lift(i, p, top, bottom):
    for h in all_module_maps(i.target, p.source):
        if h.compose(i).equals(top) and p.compose(h).equals(bottom):
            return True
    return False


def _rlp_against(i, p):
    return all(_has_lift(i, p, top, bottom)
               for top, bottom in _commuting_squares(i, p))


SMALL_Z4 = [
    FpModule.free(Z4, 1),
    FpModule.cyclic(Z4, 2),
    FpModule.direct_sum(FpModule.free(Z4, 1), FpModule.cyclic(Z4, 2)),
]


def test_i_inj_classification_injective_pair_z4():
    # I-inj = epis with injective kernel, detected by lifting against the
    # generating monomorphisms
    pair = injective_pair(Z4)
    sampler = DeterministicSampler(14)
    checked = 0
    for src in SMALL_Z4:
        for tgt in SMALL_Z4:
            maps = list(all_module_maps(src, tgt))
            for p in maps[:: max(1, len(maps) // 4)]:
                rlp = all(_rlp_against(i, p) for i in pair.generating_monos)
                K, _ = p.kernel()
                classified = p.is_epi() and right_perp_member(K, pair.cogenerators)
                assert rlp == classified, (src, tgt, p.matrix, rlp, classified)
                checked += 1
    assert checked >= 10


def test_i_cof_classification_projective_pair_z4():
    # monos with projective cokernel lift against every epi (all epis
    # have right-class kernel for the projective pair); a mono with
    # non-projective cokernel must fail against some epi
    pair = projective_pair(Z4)
    R1 = FpModule.free(Z4, 1)
    good = ModuleMap(R1, FpModule.direct_sum(R1, R1),
                     Matrix.from_rows(Z4, [[1], [0]]))  # coker free
    bad = ModuleMap(R1, R1, Matrix.from_rows(Z4, [[2]]))  # coker Z/2

    epis = []
    for tgt in SMALL_Z4:
        for p in all_module_maps(FpModule.direct_sum(R1, R1), tgt):
            if p.is_epi():
                epis.append(p)
    epis = epis[:6]

    assert all(_rlp_against(good, p) for p in epis)
    assert any(not _rlp_against(bad, p) for p in epis)


def test_retract_of_certified_object_recertifies():
    # direct summands of projectives are projective: the certificate
    # machinery agrees on retracts
    P = FpModule.direct_sum(FpModule.free(Z4, 1), FpModule.cyclic(Z4, 2))
    assert not is_projective(FpModule.cyclic(Z4, 2))
    assert not is_projective(P)
    Q = FpModule.direct_sum(FpModule.free(Z4, 2), FpModule.free(Z4, 1))
    assert is_projective(Q)
    # each summand of a certified object re-certifies
    assert is_projective(FpModule.free(Z4, 2))
    assert is_projective(FpModule.free(Z4, 1))


def test_tensor_coherence_isos_sampled():
    sampler = DeterministicSampler(15)
    for ring in (ZZ, Z4):
        for _ in range(3):
            X = sampler.free_complex(ring, max_support=2, max_rank=2)
            Y = sampler.free_complex(ring, max_support=2, max_rank=2)
            Z = sampler.free_complex(ring, max_support=2, max_rank=1)
            assert tensor_unit_iso_complex(X).is_iso()
            assert tensor_symmetry_iso(X, Y).is_iso()
            assert tensor_assoc_iso(X, Y, Z).is_iso()
    # symmetry squares to the identity
    X = disk(1, FpModule.cyclic(ZZ, 4))
    Y = sphere(0, FpModule.cyclic(ZZ, 6))
    t1 = tensor_symmetry_iso(X, Y)
    t2 = tensor_symmetry_iso(Y, X)
    assert t2.compose(t1).equals(
        type(t1).identity(t1.source)) or t2.compose(t1).is_iso()


def test_tensor_coherence_isos_when_pieces_vanish():
    # Z/2 ox Z/3 = 0 over Z: some degrees of X ox Y and Y ox Z drop out,
    # at an end or inside, while the pieces around them stay
    def cx(*mods):
        return ChainComplex.direct_sum(*[sphere(n, M) for n, M in mods])

    free, cyc = FpModule.free(ZZ, 1), FpModule.cyclic
    cases = [cx((0, free), (1, free)), cx((0, cyc(ZZ, 2)), (1, free)), cx((0, cyc(ZZ, 3))),
             cx((-1, free), (0, cyc(ZZ, 2)), (1, free)),
             cx((0, cyc(ZZ, 3)), (1, cyc(ZZ, 2)), (2, free))]
    for X, Y, Z in itertools.product(cases, repeat=3):
        assert tensor_assoc_iso(X, Y, Z).is_iso()
    for X, Y in itertools.product(cases, repeat=2):
        assert tensor_symmetry_iso(X, Y).is_iso()
        assert tensor_unit_iso_complex(X).is_iso()
