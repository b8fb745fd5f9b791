import importlib.util
import random
import signal
import time
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from finhom import Integers, IntegersModN, Matrix, PrimeField
from finhom.errors import PreconditionFailedError, UnsupportedRingError
from finhom.functors import (
    ext_n,
    free_resolution,
    is_flat,
    is_injective,
    is_projective,
    lift_through,
    tensor_modules,
    tor_n,
)
from finhom.modules import FpModule, ModuleMap, ShortExactSeq
from helpers import cokernel_presentation, element_in_submodule, tensor_maps, tensor_unit_iso
from oracles import all_module_maps, ext_oracle, split_epi_projective, tor_oracle

ZZ = Integers()
Z4 = IntegersModN(4)
Z6 = IntegersModN(6)
F3 = PrimeField(3)


def zmod(d):
    return FpModule.cyclic(ZZ, d)


def check_resolution_exact(M, res):
    # image of each map equals kernel of the previous one
    for idx in range(1, len(res)):
        d = res[idx]
        prev = res[idx - 1]
        assert prev.compose(d).is_zero_map()
        kg = prev.kernel_gens()
        for j in range(kg.cols):
            assert element_in_submodule(prev.source, d.matrix, kg.col(j)) is not None


def test_free_resolution_z2_over_integers():
    res = free_resolution(zmod(2), 3)
    assert [m.source.gens for m in res] == [1, 1, 0, 0]
    assert res[1].matrix == Matrix.from_rows(ZZ, [[2]])
    check_resolution_exact(zmod(2), res)


def test_free_resolution_free_module():
    res = free_resolution(FpModule.free(ZZ, 2), 2)
    assert res[1].source.gens == 0


def test_free_resolution_periodic_over_z4():
    M = FpModule.cyclic(Z4, 2)  # Z/2 over Z/4
    res = free_resolution(M, 4)
    # periodic: every syzygy is again one generator with relation 2
    for d in res[1:]:
        assert d.source.gens == 1
        assert d.matrix.entries[0][0] in (2,)
    check_resolution_exact(M, res)


def test_ext_examples():
    assert ext_n(zmod(2), FpModule.free(ZZ, 1), 1).invariant_factors() == (2,)
    assert ext_n(FpModule.cyclic(Z6, 2), FpModule.cyclic(Z6, 3), 1).is_zero_module()
    # Ext^0 = Hom
    assert ext_n(zmod(4), zmod(6), 0).invariant_factors() == (2,)
    assert ext_n(FpModule.free(ZZ, 2), zmod(5), 1).is_zero_module()
    assert ext_n(FpModule.free(ZZ, 2), zmod(5), 2).is_zero_module()


def test_tor_examples():
    assert tor_n(zmod(4), zmod(6), 1).invariant_factors() == (2,)
    assert tor_n(zmod(4), zmod(6), 0).invariant_factors() == (2,)
    assert tor_n(FpModule.free(ZZ, 3), zmod(9), 1).is_zero_module()


def test_tor_symmetry_and_resolution_independence():
    rng = random.Random(4)
    for ring in (ZZ, Z6, Z4):
        hi = 5 if ring.modulus is None else ring.modulus
        for _ in range(6):
            g1, g2 = rng.randint(1, 2), rng.randint(1, 2)
            M = cokernel_presentation(
                Matrix(ring, g1, 2, [[rng.randrange(hi) for _ in range(2)] for _ in range(g1)])
            )
            N = cokernel_presentation(
                Matrix(ring, g2, 1, [[rng.randrange(hi)] for _ in range(g2)])
            )
            for n in (0, 1):
                assert tor_n(M, N, n).invariant_factors() == tor_n(N, M, n).invariant_factors()
            # permuted-generator presentation must not change ext/tor
            if g1 == 2:
                perm = Matrix.from_rows(ring, [[0, 1], [1, 0]])
                M2 = cokernel_presentation(perm * M.relations)
                assert ext_n(M, N, 1).invariant_factors() == ext_n(M2, N, 1).invariant_factors()
                assert tor_n(M, N, 1).invariant_factors() == tor_n(M2, N, 1).invariant_factors()


def test_ext1_agrees_with_extension_count_over_z6():
    # over Z/6 every module is projective (semisimple ring), so Ext^1 = 0
    for a in (1, 2, 3, 6):
        for b in (1, 2, 3, 6):
            assert ext_n(FpModule.cyclic(Z6, a), FpModule.cyclic(Z6, b), 1).is_zero_module()


def test_tensor_examples():
    T = tensor_modules(zmod(4), zmod(6))
    assert T.invariant_factors() == (2,)
    M = cokernel_presentation(Matrix.from_rows(ZZ, [[2, 0], [0, 0]]))
    u = tensor_unit_iso(M)
    assert u.is_iso()
    Zero = FpModule.zero(ZZ)
    assert tensor_modules(M, Zero).is_zero_module()


def test_tensor_functorial():
    f = ModuleMap(zmod(4), zmod(2), Matrix.from_rows(ZZ, [[1]]))
    g = ModuleMap(zmod(6), zmod(3), Matrix.from_rows(ZZ, [[1]]))
    fg = tensor_maps(f, g)
    assert fg.source.is_isomorphic_to(zmod(2))
    assert fg.target.is_isomorphic_to(FpModule.zero(ZZ).direct_sum(zmod(1), zmod(6)) if False else tensor_modules(zmod(2), zmod(3)))
    assert fg.is_epi()


def test_projective_flat_injective():
    assert is_projective(FpModule.free(ZZ, 2))
    assert not is_projective(zmod(2))
    assert is_projective(FpModule.cyclic(Z6, 2))  # Z/2 is a summand of Z/6
    assert not is_projective(FpModule.cyclic(Z4, 2))

    assert is_flat(FpModule.free(ZZ, 1))
    assert not is_flat(zmod(2))
    assert is_flat(FpModule.cyclic(Z6, 3))

    assert is_injective(FpModule.free(Z4, 1))
    assert not is_injective(FpModule.cyclic(Z4, 2))
    with pytest.raises(UnsupportedRingError):
        is_injective(zmod(2))


def test_flat_iff_projective_sampled():
    rng = random.Random(9)
    for ring in (ZZ, Z4, Z6, F3):
        hi = 5 if ring.modulus is None else ring.modulus
        for _ in range(8):
            g = rng.randint(0, 2)
            r = rng.randint(0, 2)
            M = cokernel_presentation(
                Matrix(ring, g, r, [[rng.randrange(hi) for _ in range(r)] for _ in range(g)])
            )
            assert is_flat(M) == is_projective(M)


PROJECTIVE_RINGS = [ZZ, Z4, Z6, IntegersModN(8), IntegersModN(12), IntegersModN(36), F3]


@st.composite
def _presentations(draw):
    """A module on 0-3 generators with 0-3 relations over Z (entries in
    [-2, 2]), Z/4, Z/6, Z/8, Z/12, Z/36 or F_3."""
    ring = draw(st.sampled_from(PROJECTIVE_RINGS))
    gens, rels = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entries = st.integers(-2, 2) if ring.modulus is None else st.integers(0, ring.modulus - 1)
    rows = draw(st.lists(st.lists(entries, min_size=rels, max_size=rels),
                         min_size=gens, max_size=gens))
    return FpModule(ring, gens, Matrix(ring, gens, rels, rows))


@given(_presentations())
@example(FpModule.direct_sum(FpModule.cyclic(Z6, 2), FpModule.cyclic(Z6, 3)))
@example(FpModule.direct_sum(FpModule.cyclic(IntegersModN(12), 4),
                             FpModule.cyclic(IntegersModN(12), 6)))
def test_is_projective_matches_the_split_epi_oracle(M):
    # Z/2 + Z/3 over Z/6 is projective and not free; Z/4 + Z/6 over Z/12
    # is not projective, as Z/6 is no summand of Z/12
    assert is_projective(M) == split_epi_projective(M)


def test_is_projective_over_z_answers_at_once():
    # det = 71: M is Z/71, not free, so not projective; the split-epi
    # solve of this presentation runs for seconds
    M = FpModule(ZZ, 4, Matrix.from_rows(ZZ, [[2, -1, -1, -2], [3, -3, 2, -2],
                                              [2, 2, -1, 0], [-2, 2, -3, -3]]))
    start = time.perf_counter()
    assert not is_projective(M)
    assert time.perf_counter() - start < 1.0


def make_ses(M, gens):
    return ShortExactSeq.from_submodule(M, gens)


def test_lift_through_identity_case_over_z6():
    # A = Z/3 -> B = Z/6 -> C = Z/2 and the same bottom row;
    # f multiplies into L by 2 (the inclusion image), g is reduction.
    B = FpModule.cyclic(Z6, 6)  # Z/6 over itself (free rank 1 with modulus relation)
    row = make_ses(B, Matrix.from_rows(Z6, [[2]]))  # sub = 2Z/6 iso Z/3
    A = row.sub
    C = row.quotient_module
    f = row.i  # A -> B=L
    g = row.p  # B -> M=C
    h = lift_through(f, g, row, row)
    assert h.compose(row.i).equals(f)
    assert row.p.compose(h).equals(g)
    assert h.is_identity()


def test_lift_through_preconditions():
    B = FpModule.cyclic(Z4, 4)
    row = make_ses(B, Matrix.from_rows(Z4, [[2]]))  # Z/2 -> Z/4 -> Z/2
    # Ext^1(Z/2, Z/2) over Z/4 is nonzero: precondition must fail
    with pytest.raises(PreconditionFailedError):
        lift_through(row.i, row.p, row, row)


def test_lift_through_matches_exhaustive_search():
    rng = random.Random(21)
    B = FpModule.cyclic(Z6, 6)
    L = FpModule.direct_sum(FpModule.cyclic(Z6, 2), FpModule.cyclic(Z6, 6))
    top = make_ses(B, Matrix.from_rows(Z6, [[3]]))
    bottom = make_ses(L, Matrix.from_rows(Z6, [[1], [3]]))
    A, C = top.sub, top.quotient_module
    K, Mq = bottom.sub, bottom.quotient_module
    # sample commuting squares (f, g) by drawing h0: B -> L and projecting
    found_any = False
    for _ in range(10):
        maps = list(all_module_maps(B, L))
        h0 = maps[rng.randrange(len(maps))]
        f = h0.compose(top.i)
        g = bottom.p.compose(h0)
        h = lift_through(f, g, top, bottom)
        assert h.compose(top.i).equals(f)
        assert bottom.p.compose(h).equals(g)
        # existence must agree with brute force
        brute = any(
            cand.compose(top.i).equals(f) and bottom.p.compose(cand).equals(g)
            for cand in all_module_maps(B, L)
        )
        assert brute
        found_any = True
    assert found_any


def _module(ring, max_gens, max_rels):
    """A module on 0..max_gens generators with 0..max_rels relations,
    entries in [-3, 3] over Z and residues over Z/n."""
    entries = st.integers(-3, 3) if ring.modulus is None else st.integers(0, ring.modulus - 1)

    @st.composite
    def draw_module(draw):
        gens, rels = draw(st.integers(0, max_gens)), draw(st.integers(0, max_rels))
        rows = draw(st.lists(st.lists(entries, min_size=rels, max_size=rels),
                             min_size=gens, max_size=gens))
        return FpModule(ring, gens, Matrix(ring, gens, rels, rows))

    return draw_module()


@st.composite
def _pairs(draw, rings, max_gens, max_rels):
    """Two modules over one ring drawn from ``rings``."""
    ring = draw(st.sampled_from(rings))
    return draw(_module(ring, max_gens, max_rels)), draw(_module(ring, max_gens, max_rels))


DIFFERENTIAL_RINGS = [ZZ, IntegersModN(12), IntegersModN(8), IntegersModN(9), F3, PrimeField(5)]


@given(_pairs(DIFFERENTIAL_RINGS, 3, 3))
def test_ext_tor_match_the_resolution_oracle(pair):
    # ext_n/tor_n read invariant factors; the oracle resolves M's own
    # presentation and builds Hom(F, N) and F (x) N as Kronecker systems
    M, N = pair
    for n in range(4):
        assert ext_n(M, N, n).invariant_factors() == ext_oracle(M, N, n).invariant_factors()
        assert tor_n(M, N, n).invariant_factors() == tor_oracle(M, N, n).invariant_factors()


def _load_bench_oracle():
    path = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_ORACLE = _load_bench_oracle()


@given(_pairs([ZZ], 4, 5))
def test_ext_tor_over_z_match_the_sympy_closed_forms(pair):
    M, N = pair
    A, B = (BENCH_ORACLE.decompose(X.gens, [list(r) for r in X.relations.entries])
            for X in pair)
    for kind, fn in (("ext", ext_n), ("tor", tor_n)):
        for n in (0, 1):
            facs = fn(M, N, n).invariant_factors()
            text = " + ".join("Z" if d == 0 else f"Z/{d}" for d in facs) or "0"
            assert BENCH_ORACLE.parse_group(text) == BENCH_ORACLE.expected(kind, n, A, B)


@given(_pairs([ZZ, IntegersModN(12), IntegersModN(36), IntegersModN(8), F3], 6, 7))
def test_tor_is_symmetric(pair):
    M, N = pair
    for n in range(4):
        assert tor_n(M, N, n).invariant_factors() == tor_n(N, M, n).invariant_factors()


@given(st.sampled_from([IntegersModN(12), IntegersModN(36)]).flatmap(
    lambda ring: _module(ring, 4, 4)))
def test_is_flat_matches_is_projective_and_the_tor_oracle(M):
    # is_flat certifies itself against Tor_1(R/(d), M) on M's presentation;
    # the oracle resolves each R/(d) by syzygies instead
    ring = M.ring
    by_tor = all(tor_oracle(FpModule.cyclic(ring, d), M, 1).is_zero_module()
                 for d in ring.divisors())
    assert is_flat(M) == is_projective(M) == by_tor


def _past_deadline(signum, frame):
    raise TimeoutError("the pair ran past its 0.5 s deadline")


def test_ext_tor_on_dense_integer_pairs_answer_at_once():
    # Tor_1 and Ext^1 of random integer pairs on g generators with g-1 to
    # g+1 relations, entries in [-3, 3]: the resolution oracle runs past
    # 2 s on most of these pairs at g = 5 and 6.  A timer interrupts a
    # pair at its deadline, so a slow pair fails at once
    rng = random.Random(7)

    def draw(g):
        r = rng.randint(g - 1, g + 1)
        return FpModule(ZZ, g, Matrix(ZZ, g, r, [[rng.randint(-3, 3) for _ in range(r)]
                                                  for _ in range(g)]))

    previous = signal.signal(signal.SIGALRM, _past_deadline)
    try:
        for g in (4, 5, 6):
            for _ in range(40):
                M, N = draw(g), draw(g)
                signal.setitimer(signal.ITIMER_REAL, 0.5)
                try:
                    tor_n(M, N, 1)
                    ext_n(M, N, 1)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
