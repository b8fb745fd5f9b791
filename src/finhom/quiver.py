"""Quasi-coherent modules over ring-valued quiver representations.

A representation assigns one of the supported rings to each vertex of a
finite directed graph and a unital ring map to each edge; since every
supported ring is generated by 1, an edge map exists exactly when the
target modulus divides the source's (with Z allowed as a source), and
is then unique.

A module over a representation carries a finitely presented module per
vertex and an additive, source-linear map per edge.  Quasi-coherence is
the condition that every edge's base-change map

    R(w) tensor_{R(v)} M(v)  ->  M(w)

is an isomorphism; the first failing edge is returned as a witness.
Flatness is tested vertexwise.  The cardinality of a module is the sum
of its vertex module sizes (the size of the disjoint union).

A Kaplansky witness around per-vertex seeds is a flat quasi-coherent
submodule with flat quasi-coherent quotient.  One fixed-point rule finds
it over Z, Z/n and F_p alike: push the vertex spans along the edges,
lift into each source what its edges miss, and saturate the spans to
summands one vertex at a time (``quiver_kaplansky_witness``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .errors import NotInClassError, UnsupportedRingError, ValidationError
from .functors import is_flat
from .kaplansky import saturated_gens
from .matrix import Matrix
from .modules import (
    FpModule,
    ModuleMap,
    _certify,
    quotient,
    submodule,
    submodule_coordinates,
    subquotient_vanishes,
)
from .rings import Ring


def ring_map_exists(src: Ring, tgt: Ring) -> bool:
    """A unital ring map src -> tgt exists iff 1 keeps its additive
    order: always from Z, and from Z/n exactly onto Z/m with m | n."""
    if src.modulus is None:
        return True
    if tgt.modulus is None:
        return False
    return src.modulus % tgt.modulus == 0


@dataclass(frozen=True)
class QuiverEdge:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class QuiverRep:
    """A functor from a finite quiver to the supported commutative rings."""

    vertices: Tuple[str, ...]
    vertex_rings: Dict[str, Ring]
    edges: Tuple[QuiverEdge, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertex names")
        for v in self.vertices:
            if v not in self.vertex_rings:
                raise ValidationError(f"vertex {v} has no ring")
        names = set()
        for e in self.edges:
            if e.name in names:
                raise ValidationError(f"duplicate edge name {e.name}")
            names.add(e.name)
            if e.source not in self.vertex_rings or e.target not in self.vertex_rings:
                raise ValidationError(f"edge {e.name} touches an unknown vertex")
            if not ring_map_exists(self.ring_at(e.source), self.ring_at(e.target)):
                raise ValidationError(
                    f"edge {e.name}: no unital ring map "
                    f"{self.ring_at(e.source)} -> {self.ring_at(e.target)}")

    def ring_at(self, v: str) -> Ring:
        return self.vertex_rings[v]

    def edge_is_flat(self, e: QuiverEdge) -> bool:
        """Whether the target ring is flat as a module over the source."""
        src, tgt = self.ring_at(e.source), self.ring_at(e.target)
        as_module = _ring_as_module_over(tgt, src)
        return is_flat(as_module)


def _ring_as_module_over(tgt: Ring, src: Ring) -> FpModule:
    """The target ring as a cyclic module over the source ring."""
    if tgt.modulus is None:
        return FpModule.free(src, 1)
    return FpModule.cyclic(src, tgt.modulus)


def base_change(M: FpModule, tgt_ring: Ring) -> FpModule:
    """tgt tensor_{src} M for the unique ring map: reduce the relation
    matrix into the target ring (right exactness of tensor)."""
    rel = M.relations.change_ring(tgt_ring)
    return FpModule(tgt_ring, M.gens, rel)


@dataclass
class QuiverRepModule:
    rep: QuiverRep
    vertex_modules: Dict[str, FpModule]
    edge_maps: Dict[str, Matrix]  # generator-coordinate matrices, additive maps

    def __post_init__(self):
        for v in self.rep.vertices:
            M = self.vertex_modules.get(v)
            if M is None or M.ring != self.rep.ring_at(v):
                raise ValidationError(f"vertex {v}: missing or wrong-ring module")
        for e in self.rep.edges:
            m = self.edge_maps.get(e.name)
            Mv = self.vertex_modules[e.source]
            Mw = self.vertex_modules[e.target]
            if m is None:
                raise ValidationError(f"edge {e.name} has no map")
            if (m.rows, m.cols) != (Mw.gens, Mv.gens):
                raise ValidationError(f"edge {e.name}: map has the wrong shape")
            # source-linearity on generators: relations of M(v) must die,
            # which also forces n x = 0 compatibility for Z/n sources
            lifted = m.lift_to_integers()
            rel = Mv.relations.lift_to_integers()
            if not Mw.columns_vanish((lifted * rel).change_ring(Mw.ring)):
                raise ValidationError(
                    f"edge {e.name}: map does not kill source relations")
            src_ring = self.rep.ring_at(e.source)
            if src_ring.modulus is not None and not Mw.columns_vanish(
                    lifted.scale(src_ring.modulus).change_ring(Mw.ring)):
                raise ValidationError(f"edge {e.name}: map is not linear over {src_ring}")

    def module_at(self, v: str) -> FpModule:
        return self.vertex_modules[v]

    def edge_matrix(self, e: QuiverEdge) -> Matrix:
        return self.edge_maps[e.name]


def is_quasi_coherent(M: QuiverRepModule) -> Tuple[bool, Optional[str]]:
    """Whether every edge base-change map is an isomorphism; returns the
    first failing edge name as witness."""
    for e in M.rep.edges:
        tgt_ring = M.rep.ring_at(e.target)
        Mv = M.module_at(e.source)
        Mw = M.module_at(e.target)
        B = base_change(Mv, tgt_ring)
        canonical = ModuleMap(B, Mw, M.edge_matrix(e).change_ring(tgt_ring),
                              check=False)
        if not canonical.is_iso():
            return False, e.name
    return True, None


def quasi_coherence_bruteforce(M: QuiverRepModule) -> Tuple[bool, Optional[str]]:
    """Independent oracle: check bijectivity of each canonical map by
    enumerating elements (finite vertex rings only)."""
    for e in M.rep.edges:
        tgt_ring = M.rep.ring_at(e.target)
        if not tgt_ring.is_finite:
            raise UnsupportedRingError("brute-force check needs finite vertex rings")
        Mv = M.module_at(e.source)
        Mw = M.module_at(e.target)
        B = base_change(Mv, tgt_ring)
        mat = M.edge_matrix(e).change_ring(tgt_ring)
        images = {Mw.canonical_element(mat.apply(x)) for x in B.elements()}
        all_elements = set(Mw.elements())
        injective = len({B.canonical_element(x) for x in B.elements()}) == len(images)
        surjective = images == all_elements
        if not (injective and surjective):
            return False, e.name
    return True, None


def is_flat_rep_module(M: QuiverRepModule) -> bool:
    return all(is_flat(M.module_at(v)) for v in M.rep.vertices)


def rep_cardinality(M: QuiverRepModule) -> Optional[int]:
    """Sum of the vertex module sizes; None stands for infinite.

    The zero representation module reports 0 rather than the number of
    vertices (each contributing its singleton zero)."""
    if all(M.module_at(v).is_zero_module() for v in M.rep.vertices):
        return 0
    total = 0
    for v in M.rep.vertices:
        s = M.module_at(v).size()
        if s is None:
            return None
        total += s
    return total


def sub_rep_module(M: QuiverRepModule, gens: Dict[str, Matrix]) -> QuiverRepModule:
    """The sub-representation-module generated degreewise; requires the
    generator spans to be closed under the edge maps."""
    mods = {}
    incls = {}
    for v in M.rep.vertices:
        S, incl = submodule(M.module_at(v), gens[v])
        mods[v] = S
        incls[v] = incl
    emaps = {}
    for e in M.rep.edges:
        Mw = M.module_at(e.target)
        moved = M.edge_matrix(e).change_ring(Mw.ring) * \
            incls[e.source].matrix.lift_to_integers().change_ring(Mw.ring)
        emap = submodule_coordinates(Mw, incls[e.target].matrix, moved)
        if emap is None:
            raise ValidationError("sub-module generators are not edge-closed")
        emaps[e.name] = emap
    return QuiverRepModule(M.rep, mods, emaps)


def quotient_rep_module(M: QuiverRepModule, gens: Dict[str, Matrix]) -> QuiverRepModule:
    mods = {v: quotient(M.module_at(v), gens[v]) for v in M.rep.vertices}
    emaps = {e.name: M.edge_maps[e.name] for e in M.rep.edges}
    return QuiverRepModule(M.rep, mods, emaps)


@dataclass
class QuiverWitness:
    sub: QuiverRepModule
    quotient: QuiverRepModule
    gens: Dict[str, Matrix]
    cardinality: Optional[int]

    def revalidate(self, ambient: QuiverRepModule) -> bool:
        """Whether ``sub`` and ``quotient`` are the span of ``gens`` in
        ``ambient`` and the ambient modulo it, and both are flat and
        quasi-coherent.  False, not an error, where ``gens`` does not fit
        the ambient: other vertices, rings or lengths, or spans that its
        edges carry outside them."""
        if set(self.gens) != set(ambient.rep.vertices) or any(
                g.ring != ambient.rep.ring_at(v) or g.rows != ambient.module_at(v).gens
                for v, g in self.gens.items()):
            return False
        try:
            sub = sub_rep_module(ambient, self.gens)
        except ValidationError:
            return False
        if sub != self.sub or quotient_rep_module(ambient, self.gens) != self.quotient:
            return False
        ok_sub = is_flat_rep_module(self.sub) and is_quasi_coherent(self.sub)[0]
        ok_quot = is_flat_rep_module(self.quotient) and \
            is_quasi_coherent(self.quotient)[0]
        return ok_sub and ok_quot


def quiver_kaplansky_witness(M: QuiverRepModule,
                             seeds: Dict[str, Matrix]) -> QuiverWitness:
    """Grow per-vertex seeds into a flat quasi-coherent submodule S of M
    with flat quasi-coherent quotient M/S.

    The ambient must itself be flat and quasi-coherent; the vertex rings
    may be Z, Z/n or F_p.  Seeds that all vanish are replaced by the
    first canonical generator of the first nonzero vertex, so S is
    nonzero whenever M is.  Two steps repeat until every vertex span is
    saturated:

    1. the spans are closed under the edges (``_close``): every edge
       v -> w pushes the span at v into w, and lifts into v, one column
       at a time, each column at w that the image of the span at v
       misses.  M is quasi-coherent and every ring map is onto, so the
       edge map is onto and the lift exists (certified).  The lift is
       scaled by the prime-power parts of R(v)'s modulus prime to
       R(w)'s: a unit in R(w), zero where the edge kills everything;
    2. the first vertex whose span is not a summand of M(v) is saturated
       (``kaplansky.saturated_gens``).  One vertex at a time: a summand
       that contains a span is not unique over Z/p^k, and the closure
       carries each choice to the neighbours before they make theirs.

    At the end each S(v) is a summand of M(v), so S(v) and M(v)/S(v) are
    projective, hence flat.  For every edge v -> w, R(w) (x) S(v) is a
    summand of R(w) (x) M(v) = M(w), so it maps injectively, and the
    closure makes its image S(w): S is quasi-coherent, and M/S with it,
    as R(w) (x) - is right exact.  The argument is edge by edge, so
    vertices with several in-edges and loops need nothing more.  Spans
    only grow, inside finitely generated modules over Noetherian rings,
    so every loop ends.
    """
    rep = M.rep
    if not is_flat_rep_module(M):
        raise NotInClassError("ambient representation module is not flat")
    qc, bad = is_quasi_coherent(M)
    if not qc:
        raise NotInClassError(f"ambient is not quasi-coherent (edge {bad})")

    gens = {v: seeds.get(v, Matrix.zero(rep.ring_at(v), M.module_at(v).gens, 0))
            for v in rep.vertices}
    if all(M.module_at(v).columns_vanish(gens[v]) for v in rep.vertices):
        for v in rep.vertices:
            Mv = M.module_at(v)
            if not Mv.is_zero_module():
                fro = Mv.canonical_form()[2].matrix
                gens[v] = fro.submatrix(range(Mv.gens), [0])
                break

    while True:
        _close(M, gens)
        sat = {v: saturated_gens(M.module_at(v), gens[v]) for v in rep.vertices}
        grown = [v for v in rep.vertices
                 if not subquotient_vanishes(M.module_at(v), sat[v], gens[v])]
        if not grown:
            break
        gens[grown[0]] = sat[grown[0]]

    sub = sub_rep_module(M, sat)
    w = QuiverWitness(sub, quotient_rep_module(M, sat), sat, rep_cardinality(sub))
    _certify(w.revalidate(M), "quiver_kaplansky_witness: the witness and its quotient "
             "are flat and quasi-coherent")
    _certify(all(subquotient_vanishes(M.module_at(v), s, sat[v]) for v, s in seeds.items()),
             "quiver_kaplansky_witness: the seeds lie inside the witness")
    return w


def _close(M: QuiverRepModule, gens: Dict[str, Matrix]):
    """Push the spans along the edges and lift what the edges miss
    (``_lift_missing``) until neither adds anything."""
    moved = True
    while moved:
        moved = False
        for e in M.rep.edges:
            image = _push(M, e, gens[e.source])
            if not subquotient_vanishes(M.module_at(e.target), image, gens[e.target]):
                gens[e.target] = gens[e.target].hstack(image)
                moved = True
        for e in M.rep.edges:
            moved = _lift_missing(M, e, gens) or moved


def _push(M: QuiverRepModule, e: QuiverEdge, gens: Matrix) -> Matrix:
    """The image under the edge map of e of columns at its source."""
    ring = M.rep.ring_at(e.target)
    return M.edge_matrix(e).change_ring(ring) * gens.lift_to_integers().change_ring(ring)


def _lift_missing(M: QuiverRepModule, e: QuiverEdge, gens: Dict[str, Matrix]) -> bool:
    """Lift into the source of e, one at a time, the columns of the span
    at its target that the image of the source span misses; whether any
    was lifted."""
    Mv, Mw = M.module_at(e.source), M.module_at(e.target)
    edge = M.edge_matrix(e).change_ring(Mw.ring)
    scale = math.prod(q for q in Mv.ring._prime_power_parts()
                      if math.gcd(q, Mw.ring.modulus or 0) == 1)
    target = gens[e.target]
    lifted = False
    for j in range(target.cols):
        col = target.submatrix(range(target.rows), [j])
        if subquotient_vanishes(Mw, col, _push(M, e, gens[e.source])):
            continue
        y = submodule_coordinates(Mw, edge, col)
        _certify(y is not None, "quiver_kaplansky_witness: every edge map is onto")
        gens[e.source] = gens[e.source].hstack(
            y.lift_to_integers().change_ring(Mv.ring).scale(scale))
        lifted = True
    return lifted
