import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from finhom import Integers, IntegersModN, Matrix, PrimeField
from finhom.complexes import (
    ChainComplex,
    ChainMap,
    Homotopy,
    chain_hom_gens,
    chain_hom_module,
    cone,
    cycles,
    cylinder,
    disk,
    disk_cover,
    disk_sphere_sequence,
    ext1_complexes,
    homology,
    is_exact,
    is_null_homotopic,
    is_quasi_iso,
    pullback_chainmaps,
    pushout_chainmaps,
    sphere,
    subcomplex_from_gens,
    tensor_chain_maps,
    tensor_complexes,
)
from finhom.errors import DimensionMismatchError, ValidationError
from finhom.functors import ext_n, tensor_modules
from finhom.model import (
    COF_THEN_TRIVFIB,
    PROJECTIVE_STRUCTURE,
    ce_trivial_fibration,
    factor_map,
    model_structure,
)
from finhom.modules import FpModule, ModuleMap
from finhom.sampling import DeterministicSampler
from helpers import boundaries, cokernel_presentation, zero_map
from oracles import chain_hom_gens_oracle

ZZ = Integers()
Z4 = IntegersModN(4)


def zmod(d):
    return FpModule.cyclic(ZZ, d)


def two_step():
    # Z --2--> Z in degrees 1, 0
    Z1 = FpModule.free(ZZ, 1)
    d = Matrix.from_rows(ZZ, [[2]])
    return ChainComplex(ZZ, {1: Z1, 0: Z1}, {1: d})


def test_homology_disk_sphere_twostep():
    D = disk(2, zmod(6))
    for n in range(-1, 4):
        assert homology(D, n).is_zero_module()
    S = sphere(3, zmod(4))
    assert homology(S, 3).invariant_factors() == (4,)
    assert homology(S, 2).is_zero_module()

    X = two_step()
    assert homology(X, 1).is_zero_module()
    assert homology(X, 0).invariant_factors() == (2,)
    Zc, _ = cycles(X, 0)
    Bc, _ = boundaries(X, 0)
    assert Zc.invariant_factors() == (0,)
    assert Bc.invariant_factors() == (0,)


def test_is_exact():
    assert is_exact(disk(5, zmod(12)))
    assert not is_exact(sphere(0, zmod(2)))
    assert not is_exact(two_step())
    assert is_exact(ChainComplex.zero(ZZ))


def test_dd_zero_validation():
    Z1 = FpModule.free(ZZ, 1)
    one = Matrix.from_rows(ZZ, [[1]])
    with pytest.raises(Exception):
        ChainComplex(ZZ, {2: Z1, 1: Z1, 0: Z1}, {2: one, 1: one})


def test_trimming_and_support():
    Z1 = FpModule.free(ZZ, 1)
    X = ChainComplex(ZZ, {2: FpModule.zero(ZZ), 1: Z1, 0: FpModule.cyclic(ZZ, 1)}, {})
    assert X.lo == X.hi == 1


def test_canonical_disk_sphere_sequence():
    i, p = disk_sphere_sequence(2, zmod(6))
    assert i.is_mono()
    assert p.is_epi()
    assert p.compose(i).is_zero_map()
    K, kincl = p.kernel_subcomplex()
    # kernel of D^2 -> S^2 is S^1
    assert K.lo == K.hi == 1
    assert homology(K, 1).invariant_factors() == (6,)


def test_tensor_unit_and_spheres():
    Y = two_step()
    U = sphere(0, FpModule.free(ZZ, 1))
    T = tensor_complexes(U, Y)
    assert [homology(T, n).invariant_factors() for n in (0, 1)] == \
        [homology(Y, n).invariant_factors() for n in (0, 1)]

    A = sphere(2, zmod(4))
    B = sphere(3, zmod(6))
    T2 = tensor_complexes(A, B)
    assert T2.lo == T2.hi == 5
    assert T2.module_at(5).is_isomorphic_to(tensor_modules(zmod(4), zmod(6)))


def test_tensor_d_squared_random():
    rng = random.Random(31)
    for ring in (ZZ, Z4, PrimeField(3)):
        hi = 4 if ring.modulus is None else ring.modulus
        for _ in range(5):
            X = _random_free_complex(rng, ring, hi)
            Y = _random_free_complex(rng, ring, hi)
            T = tensor_complexes(X, Y)  # constructor checks d o d = 0
            assert isinstance(T, ChainComplex)
            # Kunneth sanity in degree sum of two spheres
            # (covered separately; here d^2=0 is the point)


def _random_free_complex(rng, ring, hi, max_len=3, max_rank=2):
    from finhom.smith import kernel_basis

    lo = rng.randint(-1, 1)
    length = rng.randint(1, max_len)
    ranks = [rng.randint(0, max_rank) for _ in range(length)]
    objs = {}
    diffs = {}
    prev_d = None
    for k in range(length - 1, -1, -1):
        n = lo + k
        objs[n] = FpModule.free(ring, ranks[k])
    for k in range(length - 1, 0, -1):
        n = lo + k
        src, tgt = objs[n], objs[n - 1]
        if src.gens == 0 or tgt.gens == 0:
            prev_d = None
            continue
        if prev_d is None:
            m = Matrix(ring, tgt.gens, src.gens,
                       [[rng.randint(-2, 2) for _ in range(src.gens)]
                        for _ in range(tgt.gens)])
        else:
            # rows of the lower differential must kill the image of the
            # upper one: draw them from ker(prev_d^T)
            K = kernel_basis(prev_d.transpose())
            rows = []
            for _ in range(tgt.gens):
                combo = [0] * src.gens
                for j in range(K.cols):
                    c = rng.randint(-1, 1)
                    combo = [ring.add(a, ring.mul(c, K.entries[i][j]))
                             for i, a in enumerate(combo)]
                rows.append(combo)
            m = Matrix(ring, tgt.gens, src.gens, rows)
        diffs[n] = m
        prev_d = m
    # fix: differentials were chosen downward; rebuild honoring d o d = 0
    return ChainComplex(ring, objs, diffs)


def test_kunneth_sanity_degree_zero():
    rng = random.Random(8)
    for _ in range(5):
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        M, N = zmod(a), zmod(b)
        T = tensor_complexes(sphere(0, M), sphere(0, N))
        assert homology(T, 0).invariant_factors() == tensor_modules(M, N).invariant_factors()


def test_null_homotopy():
    D = disk(1, zmod(4))
    h = is_null_homotopic(ChainMap.identity(D))
    assert h is not None
    S = sphere(0, zmod(2))
    assert is_null_homotopic(ChainMap.identity(S)) is None
    z = ChainMap.zero_map(S, S)
    assert is_null_homotopic(z) is not None
    # stability under shift
    h2 = is_null_homotopic(ChainMap.identity(disk(3, zmod(4))))
    assert h2 is not None


def test_cone_and_quasi_iso():
    X = two_step()
    S = sphere(0, zmod(2))
    # the quotient map X -> S^0(Z/2) is a quasi-isomorphism
    q = ChainMap(X, S, {0: Matrix.from_rows(ZZ, [[1]])})
    assert is_quasi_iso(q)
    assert not is_quasi_iso(ChainMap.zero_map(X, S))


def test_cylinder_factorization_shape():
    X = two_step()
    Y = sphere(0, zmod(2))
    f = ChainMap(X, Y, {0: Matrix.from_rows(ZZ, [[1]])})
    data = cylinder(f)
    assert data.projection.compose(data.front).equals(f)
    assert data.front.is_mono()
    assert data.projection.is_epi()
    K, _ = data.projection.kernel_subcomplex()
    assert is_exact(K)
    C = data.front.cokernel_complex()
    assert C == cone(f) or all(
        C.module_at(n).is_isomorphic_to(cone(f).module_at(n)) for n in C.support)


def test_pushout_pullback():
    # pushout over the zero complex is the direct sum
    A = ChainComplex.zero(ZZ)
    B = sphere(0, zmod(4))
    C = sphere(1, zmod(2))
    P, ib, ic, univ = pushout_chainmaps(ChainMap.zero_map(A, B), ChainMap.zero_map(A, C))
    assert P.module_at(0).is_isomorphic_to(zmod(4))
    assert P.module_at(1).is_isomorphic_to(zmod(2))

    # pushout of the identity along g is the target of g
    X = two_step()
    g = ChainMap(X, sphere(0, zmod(2)),
                 {0: Matrix.from_rows(ZZ, [[1]])})
    P2, ib2, ic2, _ = pushout_chainmaps(ChainMap.identity(X), g)
    for n in P2.support:
        assert P2.module_at(n).is_isomorphic_to(g.target.module_at(n))

    # pushout of a mono is a mono, and cokernels are preserved
    i, p = disk_sphere_sequence(1, FpModule.free(ZZ, 1))
    along = ChainMap(i.source, sphere(0, zmod(3)),
                     {0: Matrix.from_rows(ZZ, [[1]])})
    P3, inj_b, inj_c, univ3 = pushout_chainmaps(i, along)
    assert inj_c.is_mono()
    Ccok = inj_c.cokernel_complex()
    Dcok = i.cokernel_complex()
    for n in set(Ccok.support) | set(Dcok.support):
        assert Ccok.module_at(n).is_isomorphic_to(Dcok.module_at(n))

    # pullback of epis stays epi on the relevant side
    q1 = ChainMap(B, sphere(0, zmod(2)),
                  {0: Matrix.from_rows(ZZ, [[1]])})
    q2 = ChainMap(sphere(0, FpModule.free(ZZ, 1)), sphere(0, zmod(2)),
                  {0: Matrix.from_rows(ZZ, [[1]])})
    PB, pb1, pb2, _ = pullback_chainmaps(q1, q2)
    assert pb2.is_epi()  # pullback of the epi q1


def test_subcomplex_from_gens_closure_check():
    X = two_step()
    with pytest.raises(Exception):
        # degree-1 generator whose boundary is not included below
        subcomplex_from_gens(X, {1: Matrix.from_rows(ZZ, [[1]])})
    S, incl = subcomplex_from_gens(
        X, {1: Matrix.from_rows(ZZ, [[1]]), 0: Matrix.from_rows(ZZ, [[1]])})
    assert incl.is_mono()
    assert S.module_at(1).is_isomorphic_to(FpModule.free(ZZ, 1))


def test_subcomplex_from_gens_checks_dd():
    # X is Z --1--> Z --1--> Z in degrees 2, 1, 0, built unchecked with
    # d o d != 0: the subcomplex on degrees 1, 0 is a complex, the one
    # on all three degrees is refused
    Z1 = FpModule.free(ZZ, 1)
    one = Matrix.from_rows(ZZ, [[1]])
    X = ChainComplex(ZZ, {2: Z1, 1: Z1, 0: Z1}, {2: one, 1: one}, check=False)
    gens = {1: Matrix.from_rows(ZZ, [[1]]), 0: Matrix.from_rows(ZZ, [[1]])}
    S1, _ = subcomplex_from_gens(X, gens)
    assert set(S1.differentials) == {1}
    with pytest.raises(ValidationError, match="d o d"):
        subcomplex_from_gens(X, {**gens, 2: Matrix.from_rows(ZZ, [[1]])})


def test_disk_cover():
    X = two_step()
    P, c = disk_cover(X)
    assert c.is_epi()
    assert is_exact(P)
    for n in P.support:
        assert P.module_at(n).relations.cols == 0  # literally free


def test_chain_hom_module_disk():
    # chain maps D^1(Z) -> D^1(Z) = Z (determined by top generator image)
    D = disk(1, FpModule.free(ZZ, 1))
    H, gens = chain_hom_module(D, D)
    assert H.invariant_factors() == (0,)
    # maps S^0(Z/2) -> S^0(Z/2)
    S = sphere(0, zmod(2))
    H2, gens2 = chain_hom_module(S, S)
    assert H2.invariant_factors() == (2,)


@pytest.mark.parametrize("ring", [ZZ, Z4, PrimeField(3)], ids=str)
def test_chain_hom_gens_are_the_module_generators(ring):
    sampler = DeterministicSampler(5)
    for _ in range(8):
        X, Y = sampler.free_complex(ring), sampler.free_complex(ring)
        assert chain_hom_gens(X, Y) == chain_hom_module(X, Y)[1]


def _with_relations(ring):
    """A nonzero module with a relation over any ring: R^2 / (2, 2)."""
    return FpModule(ring, 2, Matrix.from_rows(ring, [[2], [2]]))


@settings(max_examples=120)
@given(ring=st.sampled_from([ZZ, Z4, IntegersModN(12), PrimeField(3)]),
       seed=st.integers(0, 10**6), related=st.booleans())
def test_chain_hom_gens_match_the_oracle(ring, seed, related):
    sampler = DeterministicSampler(seed)
    X, Y = sampler.free_complex(ring), sampler.free_complex(ring)
    if related:
        # maps into a module with relations are zero-tested by columns_vanish
        Y = ChainComplex.direct_sum(Y, sphere(Y.lo, _with_relations(ring)))
    got, want = chain_hom_gens(X, Y), chain_hom_gens_oracle(X, Y)
    assert [g.components for g in got] == [g.components for g in want]


def test_sampled_chain_map_builds_one_chain_map(monkeypatch):
    built = []
    init = ChainMap.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChainMap, "__init__", counting)
    gen_counts = set()
    for seed in range(24):
        sampler = DeterministicSampler(seed)
        X, Y = sampler.free_complex(Z4), sampler.free_complex(Z4)
        if seed % 2:
            Y = ChainComplex.direct_sum(Y, sphere(Y.lo, _with_relations(Z4)))
        gen_counts.add(len(chain_hom_gens(X, Y)))
        del built[:]
        sampler.chain_map(X, Y)
        assert len(built) == 1
    assert max(gen_counts) >= 8


def _commutes_reference(X, Y, comps):
    """Every square f_{n-1} d_n = d'_n f_n, with zero maps built for the
    missing components and differentials."""
    f = ChainMap(X, Y, comps, check=False)
    return all(f.component_at(n - 1).compose(X.diff(n))
               .equals(Y.diff(n).compose(f.component_at(n)))
               for n in range(min(X.lo, Y.lo), max(X.hi, Y.hi) + 1))


# a matrix where a map M -> Z is due, M = Z or Z/2, and the error it must raise
_BAD_MATRICES = {
    "shape": (FpModule.free(ZZ, 1), Matrix.from_rows(ZZ, [[1], [1]]), DimensionMismatchError),
    "ring": (FpModule.free(ZZ, 1), Matrix.from_rows(Z4, [[1]]), DimensionMismatchError),
    "relations": (zmod(2), Matrix.from_rows(ZZ, [[1]]), ValidationError),
}


@pytest.mark.parametrize("kind", sorted(_BAD_MATRICES))
def test_checked_constructors_reject_a_bad_matrix(kind):
    M, bad, error = _BAD_MATRICES[kind]
    R1 = FpModule.free(ZZ, 1)
    with pytest.raises(error):
        ChainComplex(ZZ, {1: M, 0: R1}, {1: bad})
    with pytest.raises(error):
        ChainMap(sphere(0, M), sphere(0, R1), {0: bad})
    with pytest.raises(error):
        Homotopy(ChainMap.zero_map(sphere(0, M), disk(1, R1)), {0: bad})


def _matrices_of(*values):
    """Every differential, component and homotopy map the values hold,
    looking inside complexes, chain maps, dataclasses (cell chains and
    their cells, cylinders, homotopies), lists and tuples."""
    for v in values:
        if isinstance(v, ChainComplex):
            yield from v.differentials.values()
        elif isinstance(v, ChainMap):
            yield from v.components.values()
            yield from _matrices_of(v.source, v.target)
        elif isinstance(v, Homotopy):
            yield from v.maps.values()
        elif isinstance(v, (list, tuple)):
            yield from _matrices_of(*v)
        elif dataclasses.is_dataclass(v):
            yield from _matrices_of(*(getattr(v, f.name) for f in dataclasses.fields(v)))


def _quotient_by_two():
    return ChainMap(two_step(), sphere(0, zmod(2)), {0: Matrix.from_rows(ZZ, [[1]])})


def _pushout():
    f = _quotient_by_two()
    P, ib, ic, universal = pushout_chainmaps(ChainMap.identity(f.source), f)
    return P, ib, ic, universal(f, ChainMap.identity(f.target))


def _pullback():
    f = _quotient_by_two()
    P, pb, pc, universal = pullback_chainmaps(f, ChainMap.identity(f.target))
    return P, pb, pc, universal(ChainMap.identity(f.source), f)


def _sampled():
    sampler = DeterministicSampler(3)
    X, Y = sampler.free_complex(Z4), sampler.free_complex(Z4)
    return X, Y, sampler.chain_map(X, Y)


_BUILDERS = {
    "direct-sum": lambda: ChainComplex.direct_sum(two_step(), disk(1, zmod(4))),
    "cone": lambda: cone(_quotient_by_two()),
    "cylinder": lambda: cylinder(_quotient_by_two()),
    "tensor": lambda: tensor_complexes(two_step(), disk(1, zmod(4))),
    "subcomplex": lambda: subcomplex_from_gens(
        two_step(), {1: Matrix.from_rows(ZZ, [[1]]), 0: Matrix.from_rows(ZZ, [[1]])}),
    "kernel": lambda: _quotient_by_two().kernel_subcomplex(),
    "cokernel": lambda: cylinder(_quotient_by_two()).front.cokernel_complex(),
    "pushout": _pushout,
    "pullback": _pullback,
    "disk-cover": lambda: disk_cover(two_step()),
    "ce": lambda: ce_trivial_fibration(sphere(0, zmod(2)),
                                       model_structure(PROJECTIVE_STRUCTURE, ZZ)),
    "cell-chain": lambda: factor_map(_quotient_by_two(), COF_THEN_TRIVFIB,
                                     model_structure(PROJECTIVE_STRUCTURE, ZZ)).cell_chain,
    "sampler": _sampled,
    "homotopy": lambda: is_null_homotopic(ChainMap.identity(disk(1, zmod(4)))),
}


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_builders_hold_matrices_by_degree(name):
    found = list(_matrices_of(_BUILDERS[name]()))
    assert found
    assert all(type(m) is Matrix for m in found), name


def test_chain_map_check_reads_one_sided_squares():
    R1 = FpModule.free(ZZ, 1)
    ident = Matrix.identity(ZZ, 1)
    # S^1(Z) -> D^1(Z), identity in degree 1: f_0 d_1 runs through the
    # missing differential of S^1, while d_1 f_1 = id is not zero
    with pytest.raises(ValidationError):
        ChainMap(sphere(1, R1), disk(1, R1), {1: ident})
    # D^1(Z) -> S^0(Z), identity in degree 0: d_1 f_1 runs through the
    # missing component f_1, while f_0 d_1 = id is not zero
    with pytest.raises(ValidationError):
        ChainMap(disk(1, R1), sphere(0, R1), {0: ident})
    # the one composite is zero modulo the target's relations: Z -> Z/2 by 2
    Z2 = zmod(2)
    ChainMap(sphere(1, R1), disk(1, Z2), {1: Matrix.from_rows(ZZ, [[2]])})
    # both composites run through missing maps: S^0 -> D^1 and D^1 -> S^1
    i, p = disk_sphere_sequence(1, R1)
    assert i.components and p.components


def _homotopy_reference(f, maps):
    """Whether f = d s + s d, summed as module maps with zero maps built
    for the missing ones."""
    X, Y = f.source, f.target
    for n in range(min(X.lo, Y.lo) - 1, max(X.hi, Y.hi) + 2):
        total = zero_map(X.module_at(n), Y.module_at(n))
        if n in maps:
            total = total + Y.diff(n + 1).compose(maps[n])
        if n - 1 in maps:
            total = total + maps[n - 1].compose(X.diff(n))
        if not total.equals(f.component_at(n)):
            return False
    return True


def _random_map(rng, S, T):
    return ModuleMap(S, T, Matrix(S.ring, T.gens, S.gens, [
        [rng.randint(-1, 1) for _ in range(S.gens)] for _ in range(T.gens)]))


@pytest.mark.parametrize("ring", [ZZ, Z4], ids=str)
def test_homotopy_check_matches_the_reference(ring):
    # f = d s + s d for a random s, then s redrawn in one degree
    sampler = DeterministicSampler(13)
    rng = random.Random(f"homotopy-check-{ring}")
    verdicts = set()
    for k in range(40):
        X, Y = sampler.free_complex(ring), sampler.free_complex(ring)
        if k % 2:
            Y = ChainComplex.direct_sum(Y, sphere(Y.lo + 1, _with_relations(ring)))
        maps = {n: _random_map(rng, X.module_at(n), Y.module_at(n + 1))
                for n in X.support if Y.module_at(n + 1).gens}
        comps = {}
        for n in X.support:
            part = zero_map(X.module_at(n), Y.module_at(n))
            if n in maps:
                part = part + Y.diff(n + 1).compose(maps[n])
            if n - 1 in maps:
                part = part + maps[n - 1].compose(X.diff(n))
            comps[n] = part.matrix
        f = ChainMap(X, Y, comps)
        Homotopy(f, {n: s.matrix for n, s in maps.items()})
        if maps:
            n = rng.choice(sorted(maps))
            maps[n] = _random_map(rng, X.module_at(n), Y.module_at(n + 1))
        want = _homotopy_reference(f, maps)
        verdicts.add(want)
        try:
            Homotopy(f, {n: s.matrix for n, s in maps.items()})
            got = True
        except ValidationError:
            got = False
        assert got == want
    assert verdicts == {True, False}


def test_homotopy_wrong_in_one_degree_raises():
    # id on D^1(Z) (+) D^2(Z) is null-homotopic; s doubled in one degree
    R1 = FpModule.free(ZZ, 1)
    X = ChainComplex.direct_sum(disk(1, R1), disk(2, R1))
    h = is_null_homotopic(ChainMap.identity(X))
    assert sorted(h.maps) == [0, 1]
    for n in h.maps:
        maps = {k: (s.scale(2) if k == n else s) for k, s in h.maps.items()}
        with pytest.raises(ValidationError, match=f"degree {n}"):
            Homotopy(h.underlying, maps)


@pytest.mark.parametrize("ring", [ZZ, Z4, PrimeField(3)], ids=str)
def test_chain_map_check_matches_the_squares(ring):
    # sampled chain maps with a component dropped or replaced at random
    sampler = DeterministicSampler(11)
    rng = random.Random(f"chain-map-check-{ring}")
    verdicts = set()
    for _ in range(40):
        X, Y = sampler.free_complex(ring), sampler.free_complex(ring)
        comps = dict(sampler.chain_map(X, Y).components)
        for n in set(X.support) & set(Y.support):
            S, T = X.module_at(n), Y.module_at(n)
            if not (S.gens and T.gens) or rng.random() < 0.5:
                continue
            if rng.random() < 0.5:
                comps.pop(n, None)
            else:
                comps[n] = Matrix(ring, T.gens, S.gens, [
                    [rng.randint(-1, 1) for _ in range(S.gens)] for _ in range(T.gens)])
        want = _commutes_reference(X, Y, comps)
        verdicts.add(want)
        try:
            ChainMap(X, Y, comps)
            got = True
        except ValidationError:
            got = False
        assert got == want
    assert verdicts == {True, False}


def reference_chain_map(sampler, X, Y):
    """``DeterministicSampler.chain_map`` as it was written before the one-pass
    combination: one ``scale`` and one ``__add__`` per drawn generator."""
    ring = X.ring
    gens = chain_hom_gens(X, Y)
    if not gens:
        return ChainMap.zero_map(X, Y)
    hi = 3 if ring.modulus is None else ring.modulus - 1
    out = ChainMap.zero_map(X, Y)
    for g in gens:
        c = sampler.rng.randint(0, hi)
        if c:
            out = out + g.scale(c)
    return out


@pytest.mark.parametrize("ring", [ZZ, Z4, IntegersModN(12), PrimeField(3)], ids=str)
def test_sampled_chain_map_matches_reference(ring):
    torsion = FpModule.cyclic(ring, 2) if ring.modulus in (None, 4, 12) else None
    for seed in range(60):
        ours, ref = DeterministicSampler(seed), DeterministicSampler(seed)
        X, Y = ours.free_complex(ring), ours.free_complex(ring)
        assert (X, Y) == (ref.free_complex(ring), ref.free_complex(ring))
        if torsion is not None and seed % 2:
            Y = ChainComplex.direct_sum(Y, sphere(Y.lo, torsion))
        got, want = ours.chain_map(X, Y), reference_chain_map(ref, X, Y)
        assert sorted(got.components) == sorted(want.components)
        assert all(got.components[n] == want.components[n] for n in got.components)
        assert ours.rng.random() == ref.rng.random()


def test_ext1_complexes_examples():
    # disks on frees are projective: Ext^1 vanishes
    D = disk(1, FpModule.free(ZZ, 1))
    Y = disk(1, zmod(4))
    assert ext1_complexes(D, Y).is_zero_module()

    # sphere-reduction identity: Ext^1(S^0(Z/2), D^1(Z)) = Ext^1(Z/2, Z) = Z/2
    S = sphere(0, zmod(2))
    E = ext1_complexes(S, disk(1, FpModule.free(ZZ, 1)))
    assert E.invariant_factors() == (2,)
    assert ext_n(zmod(2), FpModule.free(ZZ, 1), 1).invariant_factors() == (2,)


def test_ext1_sphere_to_shifted_sphere_two_ways():
    # extensions of S^0(Z/2) by S^1(Z) force a zero differential (the
    # sub must be closed under d), so they all split: Ext^1 = 0.
    # Computed through the disk resolution and through a redundant
    # presentation of Z/2; both must agree with that analysis.
    S1 = sphere(1, FpModule.free(ZZ, 1))
    assert ext1_complexes(sphere(0, zmod(2)), S1).is_zero_module()
    M2 = cokernel_presentation(Matrix.from_rows(ZZ, [[2, 4]]))
    assert ext1_complexes(sphere(0, M2), S1).is_zero_module()


def test_ext1_sphere_reduction_on_exact_targets():
    rng = random.Random(12)
    # exact bounded target: disks; Ext^1_Ch(S^n(A), Y) = Ext^1(A, Z_n Y)
    for a in (2, 4, 6):
        A = zmod(a)
        for n in (0, 1):
            Y = disk(n + 1, FpModule.free(ZZ, 1))
            zy = cycles(Y, n)[0]
            lhs = ext1_complexes(sphere(n, A), Y).invariant_factors()
            rhs = ext_n(A, zy, 1).invariant_factors()
            assert lhs == rhs


def test_tensor_chain_maps_functorial():
    i, _ = disk_sphere_sequence(1, FpModule.free(ZZ, 1))
    f = ChainMap.identity(sphere(0, zmod(2)))
    t = tensor_chain_maps(i, f)
    assert t.source.module_at(0).is_isomorphic_to(zmod(2))
    assert t.is_mono() or True  # structural smoke: composition checked by ctor
