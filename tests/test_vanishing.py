"""Exactness and Ext/Tor vanishing decided by one membership test.

``is_exact``, ``ext_vanishes`` and the Tor_1 test behind ``is_flat``
ask whether the cycles lie in the boundaries plus the relations
(``subquotient_vanishes``) instead of building the subquotient; each is
checked here against the subquotient it skips, over Z, Z/4, Z/12 and F_3.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finhom import Integers, IntegersModN, Matrix, PrimeField
from finhom.complexes import (
    ChainComplex,
    ChainMap,
    cone,
    disk,
    is_exact,
    is_quasi_iso,
    sphere,
)
from finhom.errors import PreconditionFailedError, ValidationError
from finhom.functors import _tor1_cyclic_vanishes, ext_n, ext_vanishes, tor_n
from finhom.modules import FpModule, subquotient, subquotient_vanishes
from finhom.sampling import DeterministicSampler
from oracles import exact_oracle

RINGS = {"Z": Integers(), "Z/4": IntegersModN(4), "Z/12": IntegersModN(12),
         "F_3": PrimeField(3)}


def _complexes(ring):
    """Sampled free complexes, the cones of sampled chain maps and of
    identities, and the cokernels of sampled chain maps (torsion entries),
    plus a sphere and a disk on R/(2), or on R where 2 is a unit."""
    sampler = DeterministicSampler(41)
    out = []
    for _ in range(10):
        X = sampler.free_complex(ring, max_support=3, max_rank=2)
        Y = sampler.free_complex(ring, max_support=3, max_rank=2)
        f = sampler.chain_map(X, Y)
        out += [X, cone(f), cone(ChainMap.identity(X)), f.cokernel_complex()]
    M = FpModule.cyclic(ring, 2)
    if M.is_zero_module():
        M = FpModule.free(ring, 1)
    return out + [sphere(0, M), disk(1, M)]


@pytest.mark.parametrize("name", sorted(RINGS))
def test_is_exact_agrees_with_the_homology_oracle(name):
    verdicts = []
    for X in _complexes(RINGS[name]):
        verdict = is_exact(X)
        assert verdict == exact_oracle(X), X
        verdicts.append(verdict)
    assert set(verdicts) == {True, False}


def _modules(ring):
    """Cyclic modules R/(d), a free module and two sums of two of them."""
    ds = ring.divisors() if ring.is_finite else [0, 2, 3, 4, 6]
    cyc = [FpModule.cyclic(ring, d) for d in ds]
    cyc = [M for M in cyc if not M.is_zero_module()]
    return cyc + [FpModule.free(ring, 1), FpModule.direct_sum(cyc[0], cyc[-1]),
                  FpModule.direct_sum(cyc[-1], cyc[-1])]


@pytest.mark.parametrize("name", sorted(RINGS))
def test_ext_vanishes_agrees_with_ext_n(name):
    ring = RINGS[name]
    verdicts = set()
    for M in _modules(ring):
        for N in _modules(ring):
            for n in (1, 2, 3):
                verdict = ext_vanishes(M, N, n)
                assert verdict == ext_n(M, N, n).is_zero_module(), (M, N, n)
                verdicts.add(verdict)
    # over a field every module is projective, so no Ext^n survives
    assert verdicts == ({True} if name == "F_3" else {True, False})


@pytest.mark.parametrize("name", sorted(RINGS))
def test_ext_out_of_a_free_module_vanishes(name):
    # ext_vanishes answers True for a module with no relations and n >= 1
    # without a resolution; ext_n still builds the group, which must be 0
    ring = RINGS[name]
    sampler = DeterministicSampler(43)
    targets = _modules(ring)
    for _ in range(6):
        g, r = sampler.randint(1, 3), sampler.randint(0, 3)
        targets.append(FpModule(ring, g, Matrix(ring, g, r, [
            [sampler.entry(ring) for _ in range(r)] for _ in range(g)])))
    for rank in range(4):
        M = FpModule.free(ring, rank)
        for N in targets:
            for n in (1, 2, 3):
                assert ext_vanishes(M, N, n) and ext_n(M, N, n).is_zero_module(), (M, N, n)
        # Ext^0 = Hom is no shortcut, and the argument checks stay
        assert ext_vanishes(M, targets[0], 0) == (rank == 0)
        with pytest.raises(PreconditionFailedError):
            ext_vanishes(M, targets[0], -1)
        other = IntegersModN(5) if ring.modulus != 5 else IntegersModN(7)
        with pytest.raises(PreconditionFailedError):
            ext_vanishes(M, FpModule.free(other, 1), 1)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_cyclic_tor1_vanishing_agrees_with_tor_n(name):
    # is_flat's cross-check reads Tor_1(R/(d), M) on M's own presentation,
    # tor_n on the invariant factors of both modules
    ring = RINGS[name]
    sampler = DeterministicSampler(47)
    modules = _modules(ring)
    for _ in range(6):
        g, r = sampler.randint(1, 3), sampler.randint(0, 3)
        modules.append(FpModule(ring, g, Matrix(ring, g, r, [
            [sampler.entry(ring) for _ in range(r)] for _ in range(g)])))
    verdicts = set()
    for M in modules:
        for d in ring.divisors() if ring.is_finite else [0, 1, 2, 3, 4, 6]:
            verdict = _tor1_cyclic_vanishes(M, d)
            assert verdict == tor_n(FpModule.cyclic(ring, d), M, 1).is_zero_module(), (M, d)
            verdicts.add(verdict)
    # over a field every module is flat, so no Tor_1 survives
    assert verdicts == ({True} if name == "F_3" else {True, False})


def test_subquotient_vanishes_on_a_small_example():
    ZZ = RINGS["Z"]
    M = FpModule.free(ZZ, 1)
    two = Matrix.from_rows(ZZ, [[2]])
    assert subquotient_vanishes(M, two, two)
    assert not subquotient_vanishes(M, two, Matrix.from_rows(ZZ, [[4]]))
    # in Z/(4) the class of 2 is nonzero, and lies in the span of 6 and 4
    Z4 = FpModule.cyclic(ZZ, 4)
    assert not subquotient_vanishes(Z4, two, Matrix.zero(ZZ, 1, 0))
    assert subquotient_vanishes(Z4, two, Matrix.from_rows(ZZ, [[6]]))


@st.composite
def _subquotient_data(draw):
    """(M, zgens, bgens) on a random presentation with 2-6 generators and
    entries in [-3, 3], with bgens inside span(zgens) + relations."""
    ring = draw(st.sampled_from([Integers(), IntegersModN(12), IntegersModN(8)]))
    gens = draw(st.integers(2, 6))

    def matrix(rows, cols):
        entries = draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                                min_size=rows, max_size=rows))
        return Matrix(ring, rows, cols, entries)

    rel = matrix(gens, draw(st.integers(0, 6)))
    zgens = matrix(gens, draw(st.integers(0, 4)))
    k = draw(st.integers(0, 3))
    bgens = zgens * matrix(zgens.cols, k) + rel * matrix(rel.cols, k)
    return FpModule(ring, gens, rel), zgens, bgens


@given(_subquotient_data())
def test_subquotient_vanishes_matches_the_subquotient(data):
    M, zgens, bgens = data
    assert subquotient_vanishes(M, zgens, bgens) == subquotient(M, zgens, bgens).is_zero_module()


def test_is_exact_takes_d_squared_zero_as_given():
    # R --id--> R --id--> R is no complex: d o d = id
    ZZ = RINGS["Z"]
    R1 = FpModule.free(ZZ, 1)
    ident = Matrix.identity(ZZ, 1)
    objects, diffs = {1: R1, 0: R1, -1: R1}, {1: ident, 0: ident}
    with pytest.raises(ValidationError, match="d o d is nonzero"):
        ChainComplex(ZZ, objects, diffs)
    X = ChainComplex(ZZ, objects, diffs, check=False)
    # the cycles lie in the boundaries in every degree; nothing raises
    assert is_exact(X)
    # building the homology does raise, as the boundaries leave the cycles
    with pytest.raises(ValidationError, match="boundaries do not lie inside cycles"):
        exact_oracle(X)
    # is_quasi_iso keeps a d o d check: the cone is checked when built
    with pytest.raises(ValidationError, match="d o d is nonzero"):
        is_quasi_iso(ChainMap.identity(X))
