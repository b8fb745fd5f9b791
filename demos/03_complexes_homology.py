"""Bounded chain complexes: homology, spheres and disks, tensor
products, null-homotopies, pushouts, and Ext^1 of complexes."""

from finhom import Integers, Matrix
from finhom.complexes import (
    ChainComplex,
    ChainMap,
    disk,
    disk_sphere_sequence,
    ext1_complexes,
    homology,
    homology_table,
    is_exact,
    is_null_homotopic,
    pushout_chainmaps,
    sphere,
    tensor_complexes,
)
from finhom.functors import ext_n
from finhom.modules import FpModule

ZZ = Integers()
Z1 = FpModule.free(ZZ, 1)

print("== Homology ==")
X = ChainComplex(ZZ, {1: Z1, 0: Z1}, {1: Matrix.from_rows(ZZ, [[2]])})
print("the two-step complex Z --2--> Z has homology", homology_table(X))
print("disks are contractible:", homology_table(disk(3, FpModule.cyclic(ZZ, 12))))
print("spheres concentrate their module:", homology_table(sphere(2, FpModule.cyclic(ZZ, 4))))

print("\n== The canonical disk/sphere sequence ==")
i, p = disk_sphere_sequence(1, FpModule.cyclic(ZZ, 6))
print("S^0(Z/6) -> D^1(Z/6) -> S^1(Z/6):",
      "mono" if i.is_mono() else "?", "+", "epi" if p.is_epi() else "?")

print("\n== Tensor products with the Koszul sign ==")
T = tensor_complexes(X, X)
print("H_*(X (x) X) =", homology_table(T))
U = tensor_complexes(sphere(0, Z1), X)
print("tensoring with the unit sphere preserves homology:",
      homology_table(U) == homology_table(X))

print("\n== Null-homotopies ==")
print("id on a disk is null-homotopic:",
      is_null_homotopic(ChainMap.identity(disk(1, FpModule.cyclic(ZZ, 4)))) is not None)
print("id on S^0(Z/2) is not:",
      is_null_homotopic(ChainMap.identity(sphere(0, FpModule.cyclic(ZZ, 2)))) is None)

print("\n== Pushouts ==")
A = ChainComplex.zero(ZZ)
P, ib, ic, univ = pushout_chainmaps(
    ChainMap.zero_map(A, sphere(0, FpModule.cyclic(ZZ, 4))),
    ChainMap.zero_map(A, sphere(1, FpModule.cyclic(ZZ, 2))))
print("pushout over 0 is the direct sum:", homology_table(P))

print("\n== Ext^1 of complexes via disk resolutions ==")
E = ext1_complexes(sphere(0, FpModule.cyclic(ZZ, 2)), disk(1, Z1))
print("Ext^1_Ch(S^0(Z/2), D^1(Z)) =", E)
print("sphere reduction: equals Ext^1(Z/2, Z) =",
      ext_n(FpModule.cyclic(ZZ, 2), Z1, 1))
