"""Model structures on bounded complexes: classification, deterministic
factorization with cell certificates, lifting, replacements, the derived
tensor product, and the executable axiom checkers."""

from finhom import Integers, IntegersModN, Matrix
from finhom.checks import check_model_axioms, check_monoidal
from finhom.complexes import ChainComplex, ChainMap, disk, homology_table, sphere
from finhom.cotorsion import check_compatibility, deliberately_wrong_pair, flat_pair
from finhom.functors import tor_n
from finhom.model import (
    COF_THEN_TRIVFIB,
    FLAT_STRUCTURE,
    PROJECTIVE_STRUCTURE,
    TRIVCOF_THEN_FIB,
    classify_map,
    cofibrant_replacement,
    derived_tensor,
    factor_map,
    model_structure,
)
from finhom.modules import FpModule

ZZ = Integers()
Z4 = IntegersModN(4)

print("== Classification ==")
spec = model_structure(PROJECTIVE_STRUCTURE, ZZ)
d = ChainMap.zero_map(ChainComplex.zero(ZZ), disk(1, FpModule.free(ZZ, 1)))
flags = classify_map(d, spec)
print("0 -> D^1(Z):", flags.as_dict(), " (a trivial cofibration)")

s = ChainMap.zero_map(ChainComplex.zero(ZZ), sphere(0, FpModule.cyclic(ZZ, 2)))
print("0 -> S^0(Z/2):", classify_map(s, spec).as_dict(),
      " (Z/2 is not projective: not a cofibration)")

print("\n== Cofibrant replacement = resolution ==")
Q, p, fact = cofibrant_replacement(sphere(0, FpModule.cyclic(ZZ, 2)), spec)
print("Q(S^0(Z/2)) is the complex Z --2--> Z:",
      {n: Q.module_at(n).invariant_factors() for n in Q.support})
print("its cell certificate has", len(fact.cell_chain.cells),
      "cells and re-verifies:", fact.cell_chain.verify())

print("\n== Factorization in both modes ==")
X = ChainComplex(ZZ, {1: FpModule.free(ZZ, 1), 0: FpModule.free(ZZ, 1)},
                 {1: Matrix.from_rows(ZZ, [[2]])})
f = ChainMap(X, sphere(0, FpModule.cyclic(ZZ, 2)), {0: Matrix.from_rows(ZZ, [[1]])})
for mode in (COF_THEN_TRIVFIB, TRIVCOF_THEN_FIB):
    fact = factor_map(f, mode, spec)
    print(f"{mode}: composite equals f: {fact.p.compose(fact.i).equals(f)}, "
          f"certificates re-validate: {fact.revalidate(spec)}")

print("\n== Derived tensor product = Tor ==")
fspec = model_structure(FLAT_STRUCTURE, ZZ)
table, _ = derived_tensor(sphere(0, FpModule.cyclic(ZZ, 4)),
                          sphere(0, FpModule.cyclic(ZZ, 6)), fspec)
print("S^0(Z/4) (x)^L S^0(Z/6):", table)
print("Tor_0, Tor_1:", tor_n(FpModule.cyclic(ZZ, 4), FpModule.cyclic(ZZ, 6), 0),
      ",", tor_n(FpModule.cyclic(ZZ, 4), FpModule.cyclic(ZZ, 6), 1))

print("\n== Axiom checkers (small sample runs) ==")
rep = check_model_axioms(model_structure(PROJECTIVE_STRUCTURE, Z4), seed=1, samples=4)
print(f"model axioms over Z/4: {rep.pass_count} checks pass, {rep.fail_count} fail")
rep2 = check_monoidal(fspec, seed=1, samples=6)
print(f"monoidal conditions over Z: {rep2.pass_count} pass, {rep2.fail_count} fail")

rep3 = check_compatibility(flat_pair(ZZ), sample_budget=8, seed=1)
print("compatibility of the flat pair over Z:", ", ".join(rep3.lines()))
rep4 = check_compatibility(deliberately_wrong_pair(ZZ), sample_budget=8, seed=1)
print("the deliberately wrong pair fails:",
      [line for line in rep4.lines() if "FAIL" in line])
