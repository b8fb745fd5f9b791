import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finhom import Integers, IntegersModN, Matrix, PrimeField
from finhom.errors import NotInClassError, ValidationError
from finhom.modules import FpModule, submodule_coordinates
from finhom.quiver import (
    QuiverEdge,
    QuiverRep,
    QuiverRepModule,
    base_change,
    is_flat_rep_module,
    is_quasi_coherent,
    quasi_coherence_bruteforce,
    quiver_kaplansky_witness,
    rep_cardinality,
    ring_map_exists,
)
from helpers import cokernel_presentation
from oracles import greedy_quiver_witness

ZZ = Integers()
Z6 = IntegersModN(6)
Z2 = IntegersModN(2)
Z4 = IntegersModN(4)
Z12 = IntegersModN(12)


def line_rep(src_ring, tgt_ring):
    return QuiverRep(("v", "w"), {"v": src_ring, "w": tgt_ring},
                     (QuiverEdge("e", "v", "w"),))


def test_ring_map_existence():
    assert ring_map_exists(ZZ, Z6)
    assert ring_map_exists(Z6, Z2)
    assert ring_map_exists(Z4, Z2)
    assert not ring_map_exists(Z6, Z4)
    assert not ring_map_exists(Z2, ZZ)
    with pytest.raises(ValidationError):
        line_rep(Z2, Z6)


def test_quasi_coherence_examples():
    rep = line_rep(ZZ, Z6)
    # M(v) = Z, M(w) = Z/6, edge = reduction: quasi-coherent
    M = QuiverRepModule(rep,
                        {"v": FpModule.free(ZZ, 1), "w": FpModule.free(Z6, 1)},
                        {"e": Matrix.from_rows(ZZ, [[1]])})
    ok, witness = is_quasi_coherent(M)
    assert ok and witness is None

    # same edge but M(w) = Z/3: fails on the edge
    M2 = QuiverRepModule(rep,
                         {"v": FpModule.free(ZZ, 1), "w": FpModule.cyclic(Z6, 3)},
                         {"e": Matrix.from_rows(ZZ, [[1]])})
    ok2, witness2 = is_quasi_coherent(M2)
    assert not ok2 and witness2 == "e"

    # no edges: vacuous
    lonely = QuiverRep(("v",), {"v": Z6}, ())
    M3 = QuiverRepModule(lonely, {"v": FpModule.cyclic(Z6, 2)}, {})
    assert is_quasi_coherent(M3) == (True, None)


def test_edge_linearity_validation():
    rep = line_rep(Z6, Z2)
    # fine: Z/6 -> Z/2 reduction on free rank 1 modules
    QuiverRepModule(rep, {"v": FpModule.free(Z6, 1), "w": FpModule.free(Z2, 1)},
                    {"e": Matrix.from_rows(ZZ, [[1]])})
    # the relation 3x = 0 is not killed by the unit map into Z/2
    with pytest.raises(ValidationError):
        QuiverRepModule(rep, {"v": FpModule.cyclic(Z6, 3), "w": FpModule.free(Z2, 1)},
                        {"e": Matrix.from_rows(ZZ, [[1]])})


def test_flatness_and_cardinality():
    rep = line_rep(ZZ, Z6)
    M = QuiverRepModule(rep,
                        {"v": FpModule.free(ZZ, 1), "w": FpModule.free(Z6, 1)},
                        {"e": Matrix.from_rows(ZZ, [[1]])})
    assert is_flat_rep_module(M)
    assert rep_cardinality(M) is None  # Z is infinite

    lonely = QuiverRep(("v", "w"), {"v": Z2, "w": IntegersModN(3)}, ())
    M2 = QuiverRepModule(lonely, {"v": FpModule.free(Z2, 1),
                                  "w": FpModule.free(IntegersModN(3), 1)}, {})
    assert rep_cardinality(M2) == 5

    M3 = QuiverRepModule(lonely, {"v": FpModule.cyclic(Z2, 1),
                                  "w": FpModule.cyclic(IntegersModN(3), 1)}, {})
    assert rep_cardinality(M3) == 0

    # torsion over Z at a vertex: not flat
    rep_z = QuiverRep(("v",), {"v": ZZ}, ())
    M4 = QuiverRepModule(rep_z, {"v": FpModule.cyclic(ZZ, 2)}, {})
    assert not is_flat_rep_module(M4)

    assert not rep.edge_is_flat(rep.edges[0])  # Z/6 is not flat over Z
    rep62 = line_rep(Z6, Z2)
    assert rep62.edge_is_flat(rep62.edges[0])  # Z/2 is projective over Z/6
    rep42 = line_rep(Z4, Z2)
    assert not rep42.edge_is_flat(rep42.edges[0])


def test_bruteforce_agreement():
    edges = [(Z6, Z2), (Z4, Z2)]
    for src, tgt in edges:
        rep = line_rep(src, tgt)
        fixtures = [
            QuiverRepModule(rep, {"v": FpModule.free(src, 1),
                                  "w": FpModule.free(tgt, 1)},
                            {"e": Matrix.from_rows(ZZ, [[1]])}),
            QuiverRepModule(rep, {"v": FpModule.cyclic(src, 2),
                                  "w": FpModule.cyclic(tgt, 2)},
                            {"e": Matrix.from_rows(ZZ, [[1]])}),
            QuiverRepModule(rep, {"v": FpModule.free(src, 1),
                                  "w": FpModule.cyclic(tgt, 2)},
                            {"e": Matrix.from_rows(ZZ, [[0]])}),
        ]
        for M in fixtures:
            assert is_quasi_coherent(M)[0] == quasi_coherence_bruteforce(M)[0]


def test_quiver_witness_single_vertex():
    rep = QuiverRep(("v",), {"v": Z6}, ())
    big = FpModule.direct_sum(FpModule.free(Z6, 1), FpModule.free(Z6, 1))
    M = QuiverRepModule(rep, {"v": big}, {})
    # seed: the diagonal-ish element of the first summand
    seeds = {"v": Matrix.from_rows(Z6, [[1], [0]])}
    w = quiver_kaplansky_witness(M, seeds)
    assert w.revalidate(M)
    assert w.cardinality is not None and w.cardinality <= 36

    # zero seed: witness nonzero
    w2 = quiver_kaplansky_witness(M, {})
    assert w2.cardinality and w2.cardinality > 0

    # full seed: witness is everything
    seeds3 = {"v": Matrix.identity(Z6, 2)}
    w3 = quiver_kaplansky_witness(M, seeds3)
    assert w3.quotient.module_at("v").is_zero_module()


def test_quiver_witness_preconditions():
    rep = QuiverRep(("v",), {"v": Z4}, ())
    M2 = QuiverRepModule(rep, {"v": FpModule.cyclic(Z4, 2)}, {})
    with pytest.raises(NotInClassError):
        quiver_kaplansky_witness(M2, {})


def test_base_change():
    M = cokernel_presentation(Matrix.from_rows(ZZ, [[6, 2]]))
    B = base_change(M, Z6)
    assert B.ring == Z6
    assert B.gens == M.gens


# -- witnesses by saturation, pushes and lifts ------------------------------------------


def _free_line(src, tgt, k, edge=None):
    """v -> w with M(v) and M(w) free of rank k and the identity edge map
    unless ``edge`` is given."""
    return QuiverRepModule(line_rep(src, tgt),
                           {"v": FpModule.free(src, k), "w": FpModule.free(tgt, k)},
                           {"e": edge or Matrix.identity(ZZ, k)})


def _check_witness(M, seeds, w):
    assert w.revalidate(M)
    for v, s in seeds.items():
        assert submodule_coordinates(M.module_at(v), w.gens[v], s) is not None


def test_witness_revalidates_only_against_its_ambient():
    M = _free_line(ZZ, Z6, 2)
    w = quiver_kaplansky_witness(M, {"v": Matrix.from_rows(ZZ, [[1], [0]])})
    assert w.revalidate(M)
    # the same shape, but 3 kills the first generator at w: there the
    # witness's generators span Z/3, not Z/6
    torsion = QuiverRepModule(M.rep, {"v": M.module_at("v"),
                                      "w": FpModule(Z6, 2, Matrix.from_rows(Z6, [[3], [0]]))},
                              M.edge_maps)
    assert not w.revalidate(torsion)
    # an edge that carries the generators outside their span, and
    # generators of the wrong length: False, not an error
    assert not w.revalidate(_free_line(ZZ, Z6, 2, edge=Matrix.from_rows(ZZ, [[0, 1], [1, 0]])))
    assert not w.revalidate(_free_line(ZZ, Z6, 3))


def test_witness_of_a_large_line_is_bounded_by_its_seed():
    # the element walk took 20 s here and returned all of M
    M = _free_line(Z12, Z4, 6)
    seeds = {"v": Matrix.column(Z12, [2, 0, 0, 0, 0, 0])}
    start = time.perf_counter()
    w = quiver_kaplansky_witness(M, seeds)
    assert time.perf_counter() - start < 1.0
    _check_witness(M, seeds, w)
    assert all(g.cols <= 2 for g in w.gens.values())
    assert w.cardinality == 12 + 4


def test_witness_on_a_self_loop():
    shear = Matrix.from_rows(ZZ, [[1, 1], [0, 1]])
    for ring in (Z4, Z12):
        rep = QuiverRep(("v",), {"v": ring}, (QuiverEdge("s", "v", "v"),))
        M = QuiverRepModule(rep, {"v": FpModule.free(ring, 2)}, {"s": shear})
        # the shear fixes the first coordinate line
        w = quiver_kaplansky_witness(M, {})
        _check_witness(M, {}, w)
        assert w.cardinality == ring.modulus
        # and moves the second
        seeds = {"v": Matrix.column(ring, [0, 2])}
        w2 = quiver_kaplansky_witness(M, seeds)
        _check_witness(M, seeds, w2)
        assert w2.quotient.module_at("v").is_zero_module()


def test_witness_on_a_two_cycle():
    rep = QuiverRep(("v", "w"), {"v": Z12, "w": Z12},
                    (QuiverEdge("e", "v", "w"), QuiverEdge("f", "w", "v")))
    free = FpModule.free(Z12, 2)
    shear = Matrix.from_rows(ZZ, [[1, 1], [0, 1]])
    # f undoes e: every line at w comes back to itself
    M = QuiverRepModule(rep, {"v": free, "w": free},
                        {"e": shear, "f": Matrix.from_rows(ZZ, [[1, 11], [0, 1]])})
    # 3 e_1 spans the Z/4 part of the line e fixes
    seeds = {"v": Matrix.column(Z12, [3, 0])}
    w = quiver_kaplansky_witness(M, seeds)
    _check_witness(M, seeds, w)
    assert w.cardinality == 4 + 4
    seeds = {"w": Matrix.column(Z12, [0, 1])}
    w = quiver_kaplansky_witness(M, seeds)
    _check_witness(M, seeds, w)
    assert w.cardinality == 12 + 12
    # f swaps: the composite x -> (x_2, x_1 + x_2) fixes no line mod 2 or 3
    M = QuiverRepModule(rep, {"v": free, "w": free},
                        {"e": shear, "f": Matrix.from_rows(ZZ, [[0, 1], [1, 0]])})
    seeds = {"v": Matrix.column(Z12, [3, 0])}
    w = quiver_kaplansky_witness(M, seeds)
    _check_witness(M, seeds, w)
    assert w.cardinality == 16 + 16


def test_witness_with_integer_vertices():
    rep = QuiverRep(("v",), {"v": ZZ}, ())
    M = QuiverRepModule(rep, {"v": FpModule.free(ZZ, 1)}, {})
    w = quiver_kaplansky_witness(M, {})
    _check_witness(M, {}, w)
    assert w.cardinality is None and w.quotient.module_at("v").is_zero_module()

    for tgt in (Z6, ZZ):
        M = _free_line(ZZ, tgt, 2)
        # 2 (1, 2) saturates to (1, 2), which the edge carries along
        seeds = {"v": Matrix.column(ZZ, [2, 4])}
        w = quiver_kaplansky_witness(M, seeds)
        _check_witness(M, seeds, w)
        assert [g.cols for g in w.gens.values()] == [1, 1]
        # a seed at the target is lifted to the source
        seeds = {"w": Matrix.column(tgt, [2, 3])}
        w = quiver_kaplansky_witness(M, seeds)
        _check_witness(M, seeds, w)
        assert [g.cols for g in w.gens.values()] == [1, 1]
        assert w.cardinality is None


def test_witness_lifts_one_column_at_a_time():
    # lifting e_1 alone makes the image of v span e_3 too: rank 2, not 3
    M = _free_line(Z4, Z2, 3)
    seeds = {"v": Matrix.column(Z4, [3, 2, 1]),
             "w": Matrix.from_rows(Z2, [[1, 0], [0, 0], [0, 1]])}
    w = quiver_kaplansky_witness(M, seeds)
    _check_witness(M, seeds, w)
    assert [g.cols for g in w.gens.values()] == [2, 2]


def test_witness_lifts_without_the_part_the_edge_kills():
    # the lift of (1, 1) from Z/4 to Z/12 carries no Z/3 component
    M = _free_line(Z12, Z4, 2)
    seeds = {"w": Matrix.column(Z4, [1, 1])}
    w = quiver_kaplansky_witness(M, seeds)
    _check_witness(M, seeds, w)
    assert w.cardinality == 4 + 4


def test_witness_saturates_one_vertex_at_a_time():
    # a summand around a span is a choice over Z/4; saturating every
    # vertex at once let two vertices choose apart, and the witness grew
    # to rank 2 at the Z/4 vertices where rank 1 suffices
    P = FpModule.direct_sum(FpModule.cyclic(Z12, 4), FpModule.cyclic(Z12, 4))
    rep = QuiverRep(("v", "w", "u"), {"v": Z12, "w": Z4, "u": Z4},
                    (QuiverEdge("e", "v", "w"), QuiverEdge("f", "w", "u")))
    M = QuiverRepModule(rep, {"v": P, "w": base_change(P, Z4), "u": base_change(P, Z4)},
                        {"e": Matrix.identity(ZZ, 2), "f": Matrix.identity(ZZ, 2)})
    # (2, 2) = 2 (1, 3) at u: the line (1, 3) from v holds both seeds
    seeds = {"v": Matrix.column(Z12, [1, 3]), "u": Matrix.column(Z4, [2, 2])}
    w = quiver_kaplansky_witness(M, seeds)
    _check_witness(M, seeds, w)
    assert [g.cols for g in w.gens.values()] == [1, 1, 1]
    assert w.cardinality == 4 + 4 + 4

    M = _free_line(Z12, Z4, 2, Matrix.from_rows(ZZ, [[11, 7], [2, 5]]))
    seeds = {"v": Matrix.column(Z12, [0, 2])}
    w = quiver_kaplansky_witness(M, seeds)
    _check_witness(M, seeds, w)
    assert w.cardinality == 12 + 4


# sources and targets of the ring maps the differential test draws from
RING_PAIRS = [(Z12, Z4), (Z12, IntegersModN(3)), (Z6, Z2), (Z4, Z2),
              (PrimeField(3), PrimeField(3))]
# each shape: its vertices (s for the source ring, t for the target ring)
# and its edges
SHAPES = {
    "line": ({"v": "s", "w": "t"}, [("e", "v", "w")]),
    "fork": ({"v": "s", "w": "t", "u": "t"}, [("e", "v", "w"), ("f", "v", "u")]),
    "join": ({"v": "s", "u": "s", "w": "t"}, [("e", "v", "w"), ("f", "u", "w")]),
    "chain": ({"v": "s", "w": "t", "u": "t"}, [("e", "v", "w"), ("f", "w", "u")]),
}


@st.composite
def _automorphism(draw, P: FpModule):
    """A product of 0-3 elementary automorphisms of P, a sum of cyclics
    Z/d_i: g_j -> u g_j for a unit u, or g_j -> g_j + c g_i with d_i
    dividing c d_j, so that the relation d_j g_j = 0 still holds."""
    n = P.ring.modulus
    orders = [row[i] or n for i, row in enumerate(P.relations.entries)]
    E = [[int(i == j) for j in range(P.gens)] for i in range(P.gens)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, P.gens - 1)), draw(st.integers(0, P.gens - 1))
        if i == j:
            u = draw(st.sampled_from([u for u in range(1, n) if math.gcd(u, n) == 1]))
            for row in E:
                row[j] *= u
        else:
            c = draw(st.integers(1, n - 1)) * (orders[i] // math.gcd(orders[i], orders[j]))
            for row in E:
                row[j] += c * row[i]
    return Matrix.from_rows(ZZ, [[x % n for x in row] for row in E])


@st.composite
def _quiver_data(draw):
    """A flat quasi-coherent module over a drawn shape and ring pair, of
    at most 3,000 elements in all, and seeds of 0-2 columns per vertex.

    The source vertices carry one sum P of projective cyclics, the
    target vertices its base change, and every edge map is a drawn
    automorphism of P on generators."""
    src, tgt = draw(st.sampled_from(RING_PAIRS))
    kinds, edges = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    n = src.modulus
    orders = [d for d in src.divisors() if d > 1 and math.gcd(d, n // d) == 1]
    rings = {v: src if k == "s" else tgt for v, k in kinds.items()}
    summands = []
    for d in draw(st.lists(st.sampled_from(orders), min_size=1, max_size=4)):
        P = FpModule.direct_sum(*summands, FpModule.cyclic(src, d))
        mods = {v: P if k == "s" else base_change(P, tgt) for v, k in kinds.items()}
        if sum(m.size() for m in mods.values()) > 3000:
            break
        summands.append(FpModule.cyclic(src, d))
    P = FpModule.direct_sum(*summands)
    mods = {v: P if k == "s" else base_change(P, tgt) for v, k in kinds.items()}
    rep = QuiverRep(tuple(kinds), rings, tuple(QuiverEdge(*e) for e in edges))
    M = QuiverRepModule(rep, mods, {e[0]: draw(_automorphism(P)) for e in edges})
    seeds = {}
    for v, ring in rings.items():
        width = draw(st.integers(0, 2))
        entries = st.integers(0, ring.modulus - 1)
        if width:
            seeds[v] = Matrix(ring, P.gens, width, draw(st.lists(
                st.lists(entries, min_size=width, max_size=width),
                min_size=P.gens, max_size=P.gens)))
    return M, seeds


@given(_quiver_data())
def test_witness_is_never_larger_than_the_walk(data):
    M, seeds = data
    w = quiver_kaplansky_witness(M, seeds)
    oracle = greedy_quiver_witness(M, seeds, steps=400)
    assert w.revalidate(M) and oracle.revalidate(M)
    _check_witness(M, seeds, w)
    for v in M.rep.vertices:
        assert w.gens[v].cols <= oracle.gens[v].cols
    assert w.cardinality <= oracle.cardinality
