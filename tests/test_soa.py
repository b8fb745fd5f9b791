"""The literal small-object-argument mode: cross-validation against the
deterministic factorization path."""

import pytest

from finhom import Integers, IntegersModN
from finhom.complexes import ChainComplex, ChainMap, homology_table, is_quasi_iso, sphere
from finhom.errors import BudgetExceededError, FactorizationObstructedError
from finhom.model import (
    COF_THEN_TRIVFIB,
    FLAT_STRUCTURE,
    PROJECTIVE_STRUCTURE,
    TRIVCOF_THEN_FIB,
    factor_map,
    model_structure,
)
from finhom.modules import FpModule
from finhom.sampling import DeterministicSampler
from oracles import soa_factor_map

ZZ = Integers()


def test_soa_matches_deterministic_cokernel_homology():
    spec = model_structure(FLAT_STRUCTURE, ZZ)
    sampler = DeterministicSampler(17)
    for _ in range(6):
        X = sampler.free_complex(ZZ, max_support=3, max_rank=2)
        Y = sampler.free_complex(ZZ, max_support=3, max_rank=2)
        f = sampler.chain_map(X, Y)
        for mode in (COF_THEN_TRIVFIB, TRIVCOF_THEN_FIB):
            det = factor_map(f, mode, spec)
            soa = soa_factor_map(f, mode, spec)
            assert soa.p.compose(soa.i).equals(f)
            det_cok, _ = det.i.cokernel_complex()
            soa_cok, _ = soa.i.cokernel_complex()
            assert homology_table(det_cok) == homology_table(soa_cok)
            if mode == COF_THEN_TRIVFIB:
                assert is_quasi_iso(soa.p)


def test_soa_cofibrant_replacement_of_torsion_sphere():
    spec = model_structure(PROJECTIVE_STRUCTURE, ZZ)
    f = ChainMap.zero_map(ChainComplex.zero(ZZ), sphere(0, FpModule.cyclic(ZZ, 2)))
    soa = soa_factor_map(f, COF_THEN_TRIVFIB, spec)
    Q = soa.i.target
    assert homology_table(Q) == {0: (2,)}
    for n in Q.support:
        assert spec.pair.left.contains(Q.module_at(n))


def test_soa_budget_over_z4():
    # over Z/4 the rounds provably never close for a torsion sphere
    spec = model_structure(PROJECTIVE_STRUCTURE, IntegersModN(4))
    f = ChainMap.zero_map(ChainComplex.zero(IntegersModN(4)),
                          sphere(0, FpModule.cyclic(IntegersModN(4), 2)))
    with pytest.raises((BudgetExceededError, FactorizationObstructedError)):
        soa_factor_map(f, COF_THEN_TRIVFIB, spec, round_budget=6)
