"""Bounded chain complexes of finitely presented modules.

A complex stores its modules on a finite support interval [lo, hi] with
differentials d_n: X_n -> X_{n-1}; d o d = 0 is checked on construction
and zero ends are trimmed so equal supports are canonical.  Outside the
support every degree is the zero module.

Exactness is decided without building homology: ``is_exact`` asks in
each degree whether the cycles lie in the boundaries plus the relations,
one ``subquotient_vanishes`` membership test, and so decides
``is_quasi_iso`` (exactness of the cone).  ``homology`` still builds the
subquotient where the module itself is wanted.

Alongside the basic calculus (homology, spheres and disks, tensor
products with the Koszul sign, kernels and cokernels of chain maps)
this module provides pushouts and pullbacks, the mapping cone and
cylinder, disk covers, the module of chain maps between two complexes,
null-homotopy solving, and Ext^1 of complexes via resolutions by disks
on free modules (projective objects of the bounded complex category).

Both bifunctors are written out in one place each.  ``graded_map_solver``
holds the equations h d - (-1)^k d h = rhs of a degree-k graded map;
chain maps, null-homotopies and the lifts of ``model.solve_lifting``
are its solutions.  ``_tensor_layout`` alone knows the order, offsets
and widths of the pieces X_i ox Y_j of X ox Y; the differential, the
tensor of chain maps and the symmetry and associativity isomorphisms
place their blocks by it.

The complexes put together from whole complexes, shifted and side by
side, are built by one block rule, ``_sum_complex``: each piece puts its
modules in the sum, shifted, with its own differential, signed, on its
diagonal block, and each link adds a signed chain map from one piece to
the piece one degree below it.  Direct sums, the mapping cone and
cylinder, disk covers and the Cartan-Eilenberg total complex of
``model.ce_trivial_fibration`` are all built so.

Pushouts and pullbacks are a cokernel and a kernel through the direct
sum: the pushout of B <- A -> C is the cokernel of (f, -g): A -> B (+) C,
the pullback of B -> D <- C the kernel of (f, -g): B (+) C -> D.
``_stacked_map`` builds every map into or out of a direct sum by stacking
component matrices: the glue, the injections and projections, the
universal maps, and the disk padding of ``model.factor_map``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from .errors import DimensionMismatchError, PreconditionFailedError, ValidationError
from .linsolve import MatrixEquationSolver
from .matrix import Matrix
from .modules import (
    FpModule,
    ModuleMap,
    _certify,
    combination_system,
    kernel_columns,
    quotient,
    submodule,
    submodule_coordinates,
    subquotient,
    subquotient_vanishes,
)
from .rings import Ring
from .smith import kernel_basis, solve_linear


@functools.cache
def _zero_module(ring: Ring) -> FpModule:
    """The zero module over ``ring``, one per ring: FpModule is immutable."""
    return FpModule.zero(ring)


def _check_complex(ring: Ring, objects: Dict[int, FpModule],
                   diffs: Dict[int, ModuleMap], dd_degrees) -> None:
    """Raise ValidationError unless every module is over ``ring``, every
    differential runs between the modules of its degrees, and
    d_n o d_{n+1} = 0 for each n in ``dd_degrees``."""
    for n in sorted(objects):
        if objects[n].ring != ring:
            raise ValidationError(f"degree {n} module is over the wrong ring")
    for n, d in diffs.items():
        if d.source != objects[n] or d.target != objects[n - 1]:
            raise ValidationError(f"differential at degree {n} has wrong endpoints")
    for n in dd_degrees:
        dn = diffs.get(n)
        dn1 = diffs.get(n + 1)
        if dn is not None and dn1 is not None:
            if not dn.compose(dn1).is_zero_map():
                raise ValidationError(f"d o d is nonzero at degree {n + 1}")


class ChainComplex:
    __slots__ = ("ring", "lo", "hi", "objects", "differentials")

    def __init__(self, ring: Ring, objects: Dict[int, FpModule],
                 differentials: Dict[int, ModuleMap], check: bool = True):
        objects = {n: M for n, M in objects.items() if not M.is_zero_module()}
        if objects:
            lo = min(objects)
            hi = max(objects)
        else:
            lo, hi = 0, -1
        diffs = {}
        for n, d in differentials.items():
            if lo < n <= hi and n in objects and (n - 1) in objects:
                diffs[n] = d
        if check:
            _check_complex(ring, objects, diffs, range(lo, hi + 1))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "objects", dict(objects))
        object.__setattr__(self, "differentials", diffs)

    def __setattr__(self, *a):
        raise AttributeError("ChainComplex is immutable")

    # -- access -----------------------------------------------------------

    def module_at(self, n: int) -> FpModule:
        m = self.objects.get(n)
        return m if m is not None else _zero_module(self.ring)

    def diff(self, n: int) -> ModuleMap:
        d = self.differentials.get(n)
        if d is not None:
            return d
        return ModuleMap.zero_map(self.module_at(n), self.module_at(n - 1))

    def diff_matrix(self, n: int) -> Matrix:
        """The matrix of d_n, a zero matrix where there is no differential;
        unlike ``diff`` it builds no ModuleMap."""
        d = self.differentials.get(n)
        if d is not None:
            return d.matrix
        return Matrix.zero(self.ring, self.module_at(n - 1).gens, self.module_at(n).gens)

    @property
    def support(self):
        return range(self.lo, self.hi + 1)

    def is_zero_complex(self) -> bool:
        return not self.objects

    def __eq__(self, other):
        return (
            isinstance(other, ChainComplex)
            and self.ring == other.ring
            and self.objects == other.objects
            and {n: d.matrix for n, d in self.differentials.items()}
            == {n: d.matrix for n, d in other.differentials.items()}
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.objects.items())),
                     tuple(sorted((n, d.matrix) for n, d in self.differentials.items()))))

    def __repr__(self):
        if self.is_zero_complex():
            return f"ChainComplex({self.ring}, 0)"
        parts = [f"{n}:{self.module_at(n)!r}" for n in self.support]
        return f"ChainComplex({'; '.join(parts)})"

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "ChainComplex":
        return ChainComplex(ring, {}, {}, check=False)

    @staticmethod
    def concentrated(n: int, M: FpModule) -> "ChainComplex":
        return ChainComplex(M.ring, {n: M}, {}, check=False)

    @staticmethod
    def direct_sum(*summands: "ChainComplex") -> "ChainComplex":
        return _sum_complex(summands[0].ring, [(X, 0, 1) for X in summands])


def sphere(n: int, M: FpModule) -> ChainComplex:
    """S^n(M): M concentrated in degree n."""
    return ChainComplex.concentrated(n, M)


def disk(n: int, M: FpModule) -> ChainComplex:
    """D^n(M): M in degrees n and n-1 with identity differential."""
    if M.is_zero_module():
        return ChainComplex.zero(M.ring)
    return ChainComplex(
        M.ring, {n: M, n - 1: M}, {n: ModuleMap.identity(M)}, check=False
    )


def sphere_into_disk(n: int, M: FpModule) -> ChainMap:
    """The canonical mono S^{n-1}(M) -> D^n(M), checked as a chain map."""
    return ChainMap(sphere(n - 1, M), disk(n, M), {n - 1: ModuleMap.identity(M)})


def disk_sphere_sequence(n: int, M: FpModule):
    """The canonical short exact sequence S^{n-1}(M) -> D^n(M) -> S^n(M)."""
    i = sphere_into_disk(n, M)
    p = ChainMap(i.target, sphere(n, M), {n: ModuleMap.identity(M)})
    return i, p


class ChainMap:
    __slots__ = ("source", "target", "components")

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 components: Dict[int, ModuleMap], check: bool = True):
        comps = {}
        for n, f in components.items():
            if f.source.is_zero_module() or f.target.is_zero_module():
                continue
            comps[n] = f
        if check:
            for n, f in comps.items():
                if f.source != source.module_at(n) or f.target != target.module_at(n):
                    raise ValidationError(f"component at degree {n} has wrong endpoints")
            lo = min(source.lo, target.lo)
            hi = max(source.hi, target.hi)
            for n in range(lo, hi + 1):
                # f_{n-1} d_n = d'_n f_n; a composite through a missing
                # component or differential is zero, and none is built
                f1, d = comps.get(n - 1), source.differentials.get(n)
                d1, f = target.differentials.get(n), comps.get(n)
                left = f1.compose(d) if f1 is not None and d is not None else None
                right = d1.compose(f) if d1 is not None and f is not None else None
                if left is None and right is None:
                    continue
                if left is None:
                    ok = right.is_zero_map()
                elif right is None:
                    ok = left.is_zero_map()
                else:
                    ok = left.equals(right)
                if not ok:
                    raise ValidationError(f"chain map does not commute with d at degree {n}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, *a):
        raise AttributeError("ChainMap is immutable")

    @property
    def ring(self) -> Ring:
        return self.source.ring

    def component_at(self, n: int) -> ModuleMap:
        f = self.components.get(n)
        if f is not None:
            return f
        return ModuleMap.zero_map(self.source.module_at(n), self.target.module_at(n))

    def matrix_at(self, n: int) -> Matrix:
        """The matrix of f_n, a zero matrix where there is no component;
        unlike ``component_at`` it builds no ModuleMap."""
        f = self.components.get(n)
        if f is not None:
            return f.matrix
        return Matrix.zero(self.ring, self.target.module_at(n).gens,
                           self.source.module_at(n).gens)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(X: ChainComplex) -> "ChainMap":
        return ChainMap(X, X, {n: ModuleMap.identity(X.module_at(n)) for n in X.support},
                        check=False)

    @staticmethod
    def zero_map(X: ChainComplex, Y: ChainComplex) -> "ChainMap":
        return ChainMap(X, Y, {}, check=False)

    # -- value / morphism semantics ----------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, ChainMap)
            and self.source == other.source
            and self.target == other.target
            and {n: f.matrix for n, f in self.components.items()}
            == {n: f.matrix for n, f in other.components.items()}
        )

    def __hash__(self):
        return hash((self.source, self.target,
                     tuple(sorted((n, f.matrix) for n, f in self.components.items()))))

    def equals(self, other: "ChainMap") -> bool:
        """Equality as chain maps; a component only one side has must be zero."""
        if self.source != other.source or self.target != other.target:
            return False
        mine, theirs = self.components, other.components
        if not all(f.equals(theirs[n]) if n in theirs else f.is_zero_map()
                   for n, f in mine.items()):
            return False
        return all(f.is_zero_map() for n, f in theirs.items() if n not in mine)

    def is_zero_map(self) -> bool:
        return all(f.is_zero_map() for f in self.components.values())

    def compose(self, first: "ChainMap") -> "ChainMap":
        """self o first; a degree where either map has no component is zero."""
        if first.target != self.source:
            raise DimensionMismatchError("chain map composition mismatch")
        comps = {n: self.components[n].compose(f) for n, f in first.components.items()
                 if n in self.components}
        return ChainMap(first.source, self.target, comps, check=False)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        if self.source != other.source or self.target != other.target:
            raise DimensionMismatchError("chain map addition mismatch")
        comps = dict(self.components)
        for n, f in other.components.items():
            comps[n] = comps[n] + f if n in comps else f
        return ChainMap(self.source, self.target, comps, check=False)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        return self + other.scale(-1)

    def scale(self, c: int) -> "ChainMap":
        return ChainMap(self.source, self.target,
                        {n: f.scale(c) for n, f in self.components.items()}, check=False)

    # -- structural tests -----------------------------------------------------------

    def is_mono(self) -> bool:
        # a missing component out of a nonzero module is zero, so not mono
        return all(n in self.components and self.components[n].is_mono()
                   for n in self.source.objects)

    def is_epi(self) -> bool:
        return all(n in self.components and self.components[n].is_epi()
                   for n in self.target.objects)

    def is_iso(self) -> bool:
        return self.is_mono() and self.is_epi()

    # -- kernel / cokernel ----------------------------------------------------------

    def kernel_subcomplex(self):
        """(K, incl) with K the degreewise kernel and induced differentials."""
        gens = {n: kernel_columns(self.matrix_at(n), self.target.module_at(n))
                for n in self.source.support}
        return subcomplex_from_gens(self.source, gens)

    def cokernel_complex(self) -> ChainComplex:
        """The degreewise cokernel, presented on the target's generators
        in each degree, so the projection from the target is the identity
        matrix degree by degree."""
        ring = self.ring
        objs = {n: quotient(self.target.module_at(n), self.matrix_at(n))
                for n in self.target.support}
        diffs = {}
        for n in self.target.support:
            if n in objs and (n - 1) in objs and not objs[n].is_zero_module() \
                    and not objs[n - 1].is_zero_module():
                diffs[n] = ModuleMap(objs[n], objs[n - 1], self.target.diff_matrix(n),
                                     check=False)
        return ChainComplex(ring, objs, diffs, check=False)


# -- homology -----------------------------------------------------------------


def _cycle_gens(X: ChainComplex, n: int) -> Matrix:
    """Generators of the kernel of d_n, read as zero where X has no
    differential, as ``ModuleMap.kernel_gens`` gives them."""
    return kernel_columns(X.diff_matrix(n), X.module_at(n - 1))


def cycles(X: ChainComplex, n: int):
    """(Z_n, inclusion into X_n)."""
    return submodule(X.module_at(n), _cycle_gens(X, n))


def boundaries(X: ChainComplex, n: int):
    """(B_n, inclusion into X_n)."""
    return submodule(X.module_at(n), X.diff_matrix(n + 1))


def homology(X: ChainComplex, n: int) -> FpModule:
    """H_n(X) = Z_n / B_n."""
    if n < X.lo - 1 or n > X.hi + 1:
        return FpModule.zero(X.ring)
    return subquotient(X.module_at(n), _cycle_gens(X, n), X.diff_matrix(n + 1))


def is_exact(X: ChainComplex) -> bool:
    """Whether every homology module vanishes: in each degree the cycles
    lie in the boundaries plus the relations (``subquotient_vanishes``).
    A missing d_n leaves all of X_n as cycles, a missing d_{n+1} no
    boundaries.  d o d = 0 is taken as given, as ``ChainComplex`` checks
    it: unlike ``homology``, nothing here raises on a non-complex."""
    for n, Xn in X.objects.items():
        d, up = X.differentials.get(n), X.differentials.get(n + 1)
        zgens = d.kernel_gens() if d is not None else Matrix.identity(X.ring, Xn.gens)
        if not (Xn.columns_vanish(zgens) if up is None
                else subquotient_vanishes(Xn, zgens, up.matrix)):
            return False
    return True


def homology_table(X: ChainComplex) -> dict:
    """Invariant factors of every nonzero homology module."""
    out = {}
    for n in X.support:
        h = homology(X, n)
        if not h.is_zero_module():
            out[n] = h.invariant_factors()
    return out


# -- tensor product -------------------------------------------------------------


def _tensor_layout(X: ChainComplex, Y: ChainComplex):
    """The block layout of X ox Y, the one place that knows it: for each
    total degree k, ({(i, j): (offset, width)}, total width) over the
    pieces X_i ox Y_j of degree k in increasing i.  A piece's generators
    are the pairs (a, b) in row-major order, a*gens(Y_j) + b."""
    layout = {}
    for k in range(X.lo + Y.lo, X.hi + Y.hi + 1):
        offs = {}
        pos = 0
        for i in X.support:
            if (k - i) in Y.support:
                w = X.module_at(i).gens * Y.module_at(k - i).gens
                offs[(i, k - i)] = (pos, w)
                pos += w
        layout[k] = (offs, pos)
    return layout


def _place_blocks(ring: Ring, rows: int, cols: int, blocks) -> Matrix:
    """The rows x cols sum of the given blocks (row offset, column offset,
    Matrix), each padded with zeros."""
    data = [[0] * cols for _ in range(rows)]
    for roff, coff, block in blocks:
        for a, row in enumerate(block.entries):
            out = data[roff + a]
            for b, x in enumerate(row):
                if x:
                    out[coff + b] += x
    return Matrix(ring, rows, cols, data)


def _sum_complex(ring: Ring, pieces, links=()) -> ChainComplex:
    """The complex whose degree-n module is the direct sum, in the given
    order, of its pieces' modules, built unchecked.

    A piece (X, shift, sign) puts X_{n-shift} in degree n and sign * d_X
    on its own blocks.  A link (a, b, g, sign) adds sign * g, for g a
    chain map from piece a's complex to piece b's, where piece a sits one
    degree above piece b.  A missing differential or component is an
    absent block, and every other block is zero."""
    objs, offsets = {}, {}
    for n in sorted({k + s for X, s, _ in pieces for k in X.objects}):
        mods = [X.module_at(n - s) for X, s, _ in pieces]
        objs[n] = FpModule.direct_sum(*mods)
        offsets[n] = list(itertools.accumulate((M.gens for M in mods), initial=0))

    # a piece's own differential is a map from the piece to itself
    edges = [(k, k, X.differentials, sign) for k, (X, _, sign) in enumerate(pieces)]
    edges += [(a, b, g.components, sign) for a, b, g, sign in links]

    def blocks(n):
        for a, b, maps, sign in edges:
            m = maps.get(n - pieces[a][1])
            if m is not None:
                yield (offsets[n - 1][b], offsets[n][a],
                       m.matrix if sign == 1 else m.matrix.scale(sign))

    diffs = {n: ModuleMap(objs[n], objs[n - 1],
                          _place_blocks(ring, objs[n - 1].gens, objs[n].gens, blocks(n)),
                          check=False)
             for n in objs if (n - 1) in objs}
    return ChainComplex(ring, objs, diffs, check=False)


def _blockwise_chain_map(src: ChainComplex, tgt: ChainComplex, blocks_at) -> ChainMap:
    """The chain map src -> tgt whose degree-k matrix is the sum of the
    blocks ``blocks_at(k)`` yields, checked to commute with d."""
    comps = {}
    for k in src.support:
        S, T = src.module_at(k), tgt.module_at(k)
        if S.gens and T.gens:
            comps[k] = ModuleMap(S, T, _place_blocks(src.ring, T.gens, S.gens, blocks_at(k)),
                                 check=False)
    return ChainMap(src, tgt, comps)


def tensor_complexes(X: ChainComplex, Y: ChainComplex) -> ChainComplex:
    """Total complex of the double complex X_i ox Y_j with the Koszul
    sign: d(x ox y) = dx ox y + (-1)^i x ox dy."""
    from .functors import tensor_modules

    if X.ring != Y.ring:
        raise PreconditionFailedError("complexes must share a ring")
    ring = X.ring
    if X.is_zero_complex() or Y.is_zero_complex():
        return ChainComplex.zero(ring)
    layout = _tensor_layout(X, Y)
    objs = {k: FpModule.direct_sum(*[tensor_modules(X.module_at(i), Y.module_at(j))
                                     for i, j in offs])
            for k, (offs, _) in layout.items()}

    def blocks(k):
        below = layout[k - 1][0]
        for (i, j), (coff, _) in layout[k][0].items():
            if (i - 1, j) in below:
                yield below[(i - 1, j)][0], coff, X.diff_matrix(i).kronecker(
                    Matrix.identity(ring, Y.module_at(j).gens))
            if (i, j - 1) in below:
                yield below[(i, j - 1)][0], coff, Matrix.identity(
                    ring, X.module_at(i).gens).kronecker(Y.diff_matrix(j)).scale(
                    -1 if i % 2 else 1)

    diffs = {k: ModuleMap(objs[k], objs[k - 1],
                          _place_blocks(ring, objs[k - 1].gens, objs[k].gens, blocks(k)),
                          check=False)
             for k in objs if (k - 1) in objs}
    return ChainComplex(ring, objs, diffs)


def tensor_unit_iso_complex(X: ChainComplex) -> ChainMap:
    """The canonical isomorphism S^0(R) ox X -> X."""
    ring = X.ring
    src = tensor_complexes(sphere(0, FpModule.free(ring, 1)), X)
    out = _blockwise_chain_map(
        src, X, lambda n: [(0, 0, Matrix.identity(ring, X.module_at(n).gens))])
    _certify(out.is_iso(), "tensor_unit_iso_complex: the unit map is an isomorphism")
    return out


def tensor_symmetry_iso(X: ChainComplex, Y: ChainComplex) -> ChainMap:
    """The braiding X ox Y -> Y ox X with the Koszul sign (-1)^{ij} on
    the (i, j) piece; built explicitly and verified to be a chain map
    and an isomorphism."""
    ring = X.ring
    lsrc = _tensor_layout(X, Y)
    ltgt = _tensor_layout(Y, X)

    def blocks(k):
        for (i, j), (coff, w) in lsrc[k][0].items():
            gi, gj = X.module_at(i).gens, Y.module_at(j).gens
            # the generator pair (a, b) goes to (b, a)
            swap = Matrix.identity(ring, w).submatrix(
                range(w), [b * gi + a for a in range(gi) for b in range(gj)])
            yield ltgt[k][0][(j, i)][0], coff, swap.scale(-1 if (i * j) % 2 else 1)

    out = _blockwise_chain_map(tensor_complexes(X, Y), tensor_complexes(Y, X), blocks)
    _certify(out.is_iso(), "tensor_symmetry_iso: the braiding is an isomorphism")
    return out


def tensor_assoc_iso(X: ChainComplex, Y: ChainComplex, Z: ChainComplex) -> ChainMap:
    """The associator (X ox Y) ox Z -> X ox (Y ox Z): a block permutation
    with no signs, verified to be a chain isomorphism."""
    ring = X.ring
    XY, YZ = tensor_complexes(X, Y), tensor_complexes(Y, Z)
    lxy, lyz = _tensor_layout(X, Y), _tensor_layout(Y, Z)
    lsrc, ltgt = _tensor_layout(XY, Z), _tensor_layout(X, YZ)

    def blocks(k):
        # the piece X_i ox Y_j ox Z_c of (X ox Y)_m ox Z_c lands in
        # X_i ox (Y ox Z)_{j+c} by id ox (inclusion of the piece Y_j ox Z_c);
        # a zero module dropped from X ox Y or Y ox Z has no generators there
        for (m, c), (coff, w) in lsrc[k][0].items():
            if not w:
                continue
            gc = Z.module_at(c).gens
            for (i, j), (xyoff, _) in lxy[m][0].items():
                if not YZ.module_at(j + c).gens:
                    continue
                yzoff, gjc = lyz[j + c][0][(j, c)]
                inclusion = _place_blocks(ring, YZ.module_at(j + c).gens, gjc,
                                          [(yzoff, 0, Matrix.identity(ring, gjc))])
                yield (ltgt[k][0][(i, j + c)][0], coff + xyoff * gc,
                       Matrix.identity(ring, X.module_at(i).gens).kronecker(inclusion))

    out = _blockwise_chain_map(tensor_complexes(XY, Z), tensor_complexes(X, YZ), blocks)
    _certify(out.is_iso(), "tensor_assoc_iso: the associator is an isomorphism")
    return out


def tensor_chain_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    """f ox g for degree-zero chain maps (no sign corrections needed)."""
    lsrc = _tensor_layout(f.source, g.source)
    ltgt = _tensor_layout(f.target, g.target)

    def blocks(k):
        tgt_offs = ltgt.get(k, ({}, 0))[0]
        for (i, j), (coff, _) in lsrc[k][0].items():
            if (i, j) in tgt_offs:
                yield (tgt_offs[(i, j)][0], coff,
                       f.matrix_at(i).kronecker(g.matrix_at(j)))

    return _blockwise_chain_map(tensor_complexes(f.source, g.source),
                                tensor_complexes(f.target, g.target), blocks)


# -- cones, cylinders ---------------------------------------------------------------


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone: C_n = X_{n-1} (+) Y_n, d(x', y) = (-dx', f x' + dy)."""
    C = _sum_complex(f.ring, [(f.source, 1, -1), (f.target, 0, 1)], [(0, 1, f, 1)])
    _check_complex(C.ring, C.objects, C.differentials, C.support)
    return C


def is_quasi_iso(f: ChainMap) -> bool:
    """Whether f induces isomorphisms on all homology (cone acyclicity)."""
    return is_exact(cone(f))


@dataclass(frozen=True)
class CylinderData:
    complex: ChainComplex
    front: ChainMap      # X -> Cyl, a degreewise split mono
    projection: ChainMap  # Cyl -> Y with contractible kernel


def cylinder(f: ChainMap) -> CylinderData:
    """Mapping cylinder Cyl_n = X_n (+) X_{n-1} (+) Y_n.

    d(x, x', y) = (dx - x', -dx', f x' + dy); the front inclusion has
    cokernel the cone of f and the projection (x, x', y) -> f(x) + y is
    an epi quasi-isomorphism whose kernel is contractible with cycle
    modules isomorphic to the X_n.
    """
    X, Y = f.source, f.target
    ring = f.ring
    cyl = _sum_complex(ring, [(X, 0, 1), (X, 1, -1), (Y, 0, 1)],
                       [(1, 0, ChainMap.identity(X), -1), (1, 2, f, 1)])
    _check_complex(ring, cyl.objects, cyl.differentials, cyl.support)
    # X_{n-1} in degree n: only its modules are read, as block sizes
    Xs = ChainComplex(ring, {n + 1: M for n, M in X.objects.items()}, {}, check=False)
    front = _stacked_map(X, cyl, [ChainMap.identity(X), ChainMap.zero_map(X, Xs),
                                  ChainMap.zero_map(X, Y)], into_sum=True)
    proj = _stacked_map(cyl, Y, [f, ChainMap.zero_map(Xs, Y), ChainMap.identity(Y)],
                        into_sum=False)
    return CylinderData(cyl, front, proj)


# -- subcomplexes ----------------------------------------------------------------


def subcomplex_from_gens(X: ChainComplex, gens: Dict[int, Matrix],
                         extends: Optional["ChainMap"] = None):
    """(S, incl) for the subcomplex generated degreewise by the given
    element columns; requires closure under the differential.

    ``extends`` may be the inclusion of a subcomplex of X that this
    function built before, such as the previous stage of a cell chain.
    A degree whose generator matrix equals that inclusion's component
    keeps the earlier module and inclusion; a differential is kept only
    when both of its degrees are.  Everything else is built as without
    ``extends``, so the result is the same either way.  The modules and
    differentials of S are checked as ``ChainComplex`` checks them, but
    d o d = 0 only where at least one of the two differentials is new: a
    pair of kept ones was checked on the same modules when the earlier
    stage was built.
    """
    ring = X.ring
    if extends is not None and extends.target != X:
        raise PreconditionFailedError("the extended subcomplex must lie in X")
    kept = set()
    objs = {}
    incls = {}
    for n, g in gens.items():
        if extends is not None and extends.matrix_at(n) == g:
            kept.add(n)
            incl = extends.components.get(n)
        else:
            incl = submodule(X.module_at(n), g)[1]
        if incl is not None and not incl.source.is_zero_module():
            objs[n] = incl.source
            incls[n] = incl
    diffs = {}
    kept_diffs = set()
    for n in sorted(objs):
        if n in kept and (n - 1) in kept:
            # closure and the differential were settled when built before
            if (n - 1) in objs:
                diffs[n] = extends.source.differentials[n]
                kept_diffs.add(n)
            continue
        moved = X.diff_matrix(n) * incls[n].matrix
        if (n - 1) not in objs:
            # closure: image of d on the sub must be zero in X_{n-1}
            if not X.module_at(n - 1).columns_vanish(moved):
                raise ValidationError("generators are not closed under d")
            continue
        coords = submodule_coordinates(X.module_at(n - 1), incls[n - 1].matrix, moved)
        if coords is None:
            raise ValidationError("generators are not closed under d")
        diffs[n] = ModuleMap(objs[n], objs[n - 1], coords, check=False)
    S = ChainComplex(ring, objs, diffs, check=False)
    _check_complex(ring, S.objects, S.differentials,
                   [n for n in S.support if not {n, n + 1} <= kept_diffs])
    incl = ChainMap(S, X, incls, check=False)
    return S, incl


# -- pushouts and pullbacks --------------------------------------------------------


def _stacked_map(source: ChainComplex, target: ChainComplex, parts, *, into_sum: bool,
                 check: bool = True) -> ChainMap:
    """The chain map source -> target whose degree-n matrix stacks the
    degree-n matrices of the chain maps ``parts``: one above another for
    a map into a direct sum, side by side for a map out of one.  The sum
    end may be a quotient presented on the sum's generators, as a pushout
    is; ``check`` checks the components and the result."""
    comps = {}
    for n in source.support:
        S, T = source.module_at(n), target.module_at(n)
        if S.gens and T.gens:
            blocks = [p.components[n].matrix if n in p.components else
                      Matrix.zero(source.ring, p.target.module_at(n).gens,
                                  p.source.module_at(n).gens) for p in parts]
            m = functools.reduce(Matrix.vstack if into_sum else Matrix.hstack, blocks)
            comps[n] = ModuleMap(S, T, m, check=check)
    return ChainMap(source, target, comps, check=check)


def pushout_chainmaps(f: ChainMap, g: ChainMap):
    """Pushout of B <- A -> C: the cokernel of (f, -g): A -> B (+) C, so
    P_n is presented on the generators of B_n (+) C_n by the relations
    [R_B (+) R_C | glue].

    Returns (P, inj_B, inj_C, universal) where universal(u, v) produces
    the induced map P -> D from u: B -> D, v: C -> D with u f = v g.
    """
    if f.source != g.source:
        raise PreconditionFailedError("pushout needs a common source")
    A, B, C = f.source, f.target, g.target
    S = ChainComplex.direct_sum(B, C)
    P = _stacked_map(A, S, [f, g.scale(-1)], into_sum=True, check=False).cokernel_complex()
    _check_complex(P.ring, P.objects, P.differentials, P.support)
    # P shares its generators with B (+) C, so the sum's injections land in P
    inj_b = _stacked_map(B, P, [ChainMap.identity(B), ChainMap.zero_map(B, C)],
                         into_sum=True, check=False)
    inj_c = _stacked_map(C, P, [ChainMap.zero_map(C, B), ChainMap.identity(C)],
                         into_sum=True, check=False)
    if f.is_mono():
        _certify(inj_c.is_mono(), "pushout_chainmaps: the pushout of a mono is a mono")

    def universal(u: ChainMap, v: ChainMap) -> ChainMap:
        if not u.compose(f).equals(v.compose(g)):
            raise PreconditionFailedError("cocone does not commute")
        return _stacked_map(P, u.target, [u, v], into_sum=False)

    return P, inj_b, inj_c, universal


def pullback_chainmaps(f: ChainMap, g: ChainMap):
    """Pullback of B -> D <- C: the kernel of (f, -g): B (+) C -> D.

    Returns (P, proj_B, proj_C, universal).
    """
    if f.target != g.target:
        raise PreconditionFailedError("pullback needs a common target")
    B, C = f.source, g.source
    S = ChainComplex.direct_sum(B, C)
    P, incl = _stacked_map(S, f.target, [f, g.scale(-1)], into_sum=False,
                           check=False).kernel_subcomplex()
    proj_b = _stacked_map(S, B, [ChainMap.identity(B), ChainMap.zero_map(C, B)],
                          into_sum=False, check=False).compose(incl)
    proj_c = _stacked_map(S, C, [ChainMap.zero_map(B, C), ChainMap.identity(C)],
                          into_sum=False, check=False).compose(incl)

    def universal(u: ChainMap, v: ChainMap) -> ChainMap:
        if not f.compose(u).equals(g.compose(v)):
            raise PreconditionFailedError("cone does not commute")
        uv_map = _stacked_map(u.source, S, [u, v], into_sum=True, check=False)
        comps = {}
        for n, uv in uv_map.components.items():
            if n in P.objects:
                mat = submodule_coordinates(S.module_at(n), incl.components[n].matrix,
                                            uv.matrix)
                _certify(mat is not None, "pullback_chainmaps: the cone lands in the pullback")
                comps[n] = ModuleMap(uv.source, P.objects[n], mat)
        return ChainMap(u.source, P, comps)

    return P, proj_b, proj_c, universal


# -- homotopies ---------------------------------------------------------------------


@dataclass(frozen=True)
class Homotopy:
    """s with f = d s + s d, checked on construction."""

    underlying: ChainMap
    maps: Dict[int, ModuleMap]  # s_n: X_n -> Y_{n+1}

    def __post_init__(self):
        f = self.underlying
        X, Y = f.source, f.target
        for n in range(min(X.lo, Y.lo) - 1, max(X.hi, Y.hi) + 2):
            sn = self.maps.get(n)
            sn1 = self.maps.get(n - 1)
            total = ModuleMap.zero_map(X.module_at(n), Y.module_at(n))
            if sn is not None:
                total = total + Y.diff(n + 1).compose(sn)
            if sn1 is not None:
                total = total + sn1.compose(X.diff(n))
            if not total.equals(f.component_at(n)):
                raise ValidationError(f"homotopy identity fails at degree {n}")


def graded_map_solver(X: ChainComplex, Y: ChainComplex, degree: int,
                      rhs: Optional[ChainMap] = None):
    """The equations of a graded map h of the given degree from X to Y.

    Returns (solver, handles): one unknown map h_n: X_n -> Y_{n+degree}
    per degree n of X where both modules are nonzero, and for every n the
    equation  h_{n-1} d_n - (-1)^degree d h_n = rhs_n  into
    Y_{n-1+degree}, modulo Y's relations.  With degree 0 and no rhs the
    solutions are the chain maps; with degree 1 and rhs a chain map f
    they are the homotopies s with d s + s d = f.  Callers may add
    further equations before solving.
    """
    ring = X.ring
    solver = MatrixEquationSolver(ring)
    handles = {}
    for n in X.support:
        if X.module_at(n).gens and Y.module_at(n + degree).gens:
            handles[n] = solver.add_unknown_map(X.module_at(n), Y.module_at(n + degree))
    sign = -1 if degree % 2 == 0 else 1
    for n in X.support:
        src, tgt = X.module_at(n), Y.module_at(n - 1 + degree)
        if src.gens == 0 or tgt.gens == 0:
            continue  # the equation holds trivially into or out of zero
        terms = []
        if (n - 1) in handles:
            terms.append((1, None, handles[n - 1], X.diff_matrix(n)))
        if n in handles:
            terms.append((sign, Y.diff_matrix(n + degree), handles[n], None))
        if rhs is None:
            if terms:
                solver.add_equation(terms, Matrix.zero(ring, tgt.gens, src.gens),
                                    mod_relations=tgt.relations)
        elif terms or not rhs.component_at(n).is_zero_map():
            # with no unknowns, a nonzero rhs leaves the system unsolvable
            solver.add_equation(terms, rhs.matrix_at(n),
                                mod_relations=tgt.relations)
    return solver, handles


def is_null_homotopic(f: ChainMap) -> Optional[Homotopy]:
    """A verified homotopy witnessing f ~ 0, or None."""
    solver, handles = graded_map_solver(f.source, f.target, 1, rhs=f)
    sol = solver.solve()
    if sol is None:
        return None
    return Homotopy(f, {n: sol[h] for n, h in handles.items()})


def chain_hom_gens(X: ChainComplex, Y: ChainComplex) -> list:
    """ChainMaps generating the module of chain maps X -> Y as an
    R-module: the solution basis of the commuting squares, zero maps
    dropped.  ``chain_hom_module`` presents the module they generate."""
    solver, handles = graded_map_solver(X, Y, 0)
    gens = [ChainMap(X, Y, {n: b[h] for n, h in handles.items()}, check=False)
            for b in solver.solution_basis()]
    return [g for g in gens if not g.is_zero_map()]


def _combination_system(gens, X: ChainComplex, Y: ChainComplex, degrees) -> Matrix:
    """``combination_system`` for the chain maps gens X -> Y over the
    given degrees, their components flattened degree after degree."""
    return combination_system(
        X.ring, [[x for n in degrees for x in g.matrix_at(n).vec()] for g in gens],
        [Y.module_at(n).relations for n in degrees for _ in range(X.module_at(n).gens)])


def chain_hom_module(X: ChainComplex, Y: ChainComplex):
    """The module of chain maps X -> Y.

    Returns (H, gens) where gens, from ``chain_hom_gens``, are ChainMaps
    generating Hom as an R-module and H presents it (relations:
    combinations equal to the zero chain map).
    """
    ring = X.ring
    gens = chain_hom_gens(X, Y)
    if not gens:
        return FpModule.zero(ring), []
    K = kernel_basis(_combination_system(gens, X, Y, X.support))
    return FpModule(ring, len(gens), K.submatrix(range(len(gens)), range(K.cols))), gens


def chain_map_coords(gens, handles_degrees, phi: ChainMap):
    """Coefficients expressing phi in a generating family, or None."""
    ring = phi.ring
    if not gens:
        return Matrix.zero(ring, 0, 1) if phi.is_zero_map() else None
    degrees = sorted(handles_degrees)
    target = Matrix.column(ring, [x for n in degrees for x in phi.matrix_at(n).vec()])
    sol = solve_linear(_combination_system(gens, phi.source, phi.target, degrees), target)
    if sol is None:
        return None
    return sol.submatrix(range(len(gens)), [0])


# -- disk covers and Ext^1 of complexes -----------------------------------------------


def disk_cover(X: ChainComplex):
    """(P, c) with P a finite direct sum of disks on free modules and
    c: P ->> X a degreewise epi; P is a projective object among bounded
    complexes."""
    ring = X.ring
    if X.is_zero_complex():
        Z = ChainComplex.zero(ring)
        return Z, ChainMap.zero_map(Z, X)
    # P_n = [tops of D^n | bottoms of D^{n+1}]; the tops cover X_n, the
    # bottoms map by d_{n+1}
    P = ChainComplex.direct_sum(*[disk(n, FpModule.free(ring, X.module_at(n).gens))
                                  for n in X.support])

    def blocks(n):
        yield 0, 0, Matrix.identity(ring, X.module_at(n).gens)
        if (n + 1) in X.differentials:
            yield 0, X.module_at(n).gens, X.differentials[n + 1].matrix

    c = _blockwise_chain_map(P, X, blocks)
    _certify(c.is_epi(), "disk_cover: the cover is degreewise epi")
    return P, c


def ext1_complexes(X: ChainComplex, Y: ChainComplex) -> FpModule:
    """Ext^1 in the category of bounded complexes, via a length-2
    resolution of X by sums of disks on free modules."""
    if X.ring != Y.ring:
        raise PreconditionFailedError("complexes must share a ring")
    P0, c0 = disk_cover(X)
    K0, k0 = c0.kernel_subcomplex()
    P1, c1 = disk_cover(K0)
    d1 = k0.compose(c1)
    K1, k1 = c1.kernel_subcomplex()
    P2, c2 = disk_cover(K1)
    d2 = k1.compose(c2)

    h0, g0 = chain_hom_module(P0, Y)
    h1, g1 = chain_hom_module(P1, Y)
    h2, g2 = chain_hom_module(P2, Y)

    def induced(gens_src, hom_tgt, gens_tgt, d, src_cx):
        cols = []
        degs = [n for n in src_cx.support]
        for g in gens_src:
            phi = g.compose(d)
            coords = chain_map_coords(gens_tgt, degs, phi)
            _certify(coords is not None,
                     "ext1_complexes: precomposition lands in the hom module")
            cols.append(tuple(coords.col(0)))
        if not cols:
            return Matrix.zero(X.ring, hom_tgt.gens, 0)
        return Matrix(X.ring, hom_tgt.gens, len(cols), [list(r) for r in zip(*cols)])

    delta1_matrix = induced(g0, h1, g1, d1, P1)   # Hom(P0,Y) -> Hom(P1,Y)
    delta1 = ModuleMap(h0, h1, delta1_matrix, check=False)
    delta2_matrix = induced(g1, h2, g2, d2, P2)   # Hom(P1,Y) -> Hom(P2,Y)
    delta2 = ModuleMap(h1, h2, delta2_matrix, check=False)
    _certify(delta2.compose(delta1).is_zero_map(), "ext1_complexes: delta2 o delta1 = 0")
    return subquotient(h1, delta2.kernel_gens(), delta1.matrix)
