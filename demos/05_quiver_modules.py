"""Modules over ring-valued quiver representations: quasi-coherence as
an edge-wise base-change isomorphism, vertexwise flatness, cardinality,
and Kaplansky witness subobjects."""

from finhom import Integers, IntegersModN, Matrix
from finhom.modules import FpModule
from finhom.quiver import (
    QuiverEdge,
    QuiverRep,
    QuiverRepModule,
    is_flat_rep_module,
    is_quasi_coherent,
    quasi_coherence_bruteforce,
    quiver_kaplansky_witness,
    rep_cardinality,
)

ZZ = Integers()
Z6 = IntegersModN(6)

print("== A representation on one edge: Z -> Z/6 ==")
rep = QuiverRep(("v", "w"), {"v": ZZ, "w": Z6}, (QuiverEdge("e", "v", "w"),))
print("edge ring map exists (reduction mod 6); the edge is",
      "flat" if rep.edge_is_flat(rep.edges[0]) else "not flat",
      "(Z/6 has torsion over Z)")

M = QuiverRepModule(rep, {"v": FpModule.free(ZZ, 1), "w": FpModule.free(Z6, 1)},
                    {"e": Matrix.from_rows(ZZ, [[1]])})
print("M(v) = Z, M(w) = Z/6, M(e) = reduction:")
print("  quasi-coherent:", is_quasi_coherent(M))
print("  flat:", is_flat_rep_module(M))
print("  cardinality:", rep_cardinality(M), "(None = infinite: Z at a vertex)")

bad = QuiverRepModule(rep, {"v": FpModule.free(ZZ, 1), "w": FpModule.cyclic(Z6, 3)},
                      {"e": Matrix.from_rows(ZZ, [[1]])})
print("with M(w) = Z/3 instead:", is_quasi_coherent(bad),
      " (the base change Z/6 (x) Z is Z/6, not Z/3)")

print("\n== Brute-force agreement on a finite edge ==")
Z2 = IntegersModN(2)
rep2 = QuiverRep(("v", "w"), {"v": Z6, "w": Z2}, (QuiverEdge("e", "v", "w"),))
N = QuiverRepModule(rep2, {"v": FpModule.free(Z6, 1), "w": FpModule.free(Z2, 1)},
                    {"e": Matrix.from_rows(ZZ, [[1]])})
print("algebraic test:", is_quasi_coherent(N)[0],
      "| element-enumeration oracle:", quasi_coherence_bruteforce(N)[0])

print("\n== Kaplansky witness subobjects ==")
single = QuiverRep(("v",), {"v": Z6}, ())
big = QuiverRepModule(single,
                      {"v": FpModule.direct_sum(FpModule.free(Z6, 1),
                                                FpModule.free(Z6, 1))}, {})
seeds = {"v": Matrix.from_rows(Z6, [[1], [0]])}
w = quiver_kaplansky_witness(big, seeds)
print("witness around the first-summand generator:",
      "cardinality", w.cardinality,
      "| sub and quotient flat + quasi-coherent:", w.revalidate(big))
