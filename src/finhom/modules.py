"""Finitely presented modules and their morphisms.

An ``FpModule`` over a base ring R is the cokernel of a relation matrix:
it has ``gens`` generators and one relation per column of ``relations``
(a ``gens`` x r matrix).  A ``ModuleMap`` is a matrix on generators that
carries source relations into the target's relation span; this is checked
at construction, so every ModuleMap in circulation is well defined.

Everything is an immutable value; operations never mutate their inputs,
so values can be shared freely and independent calls evaluated in any
order.

Elements of a module are coset representatives: length-``gens`` integer
tuples modulo the column span of the relations (plus n Z^g over Z/n).
Canonical representatives come from the Smith normal form of the relation
lattice, which also yields the invariant-factor fingerprint used for all
isomorphism tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .errors import DimensionMismatchError, UnsupportedRingError, ValidationError
from .matrix import Matrix
from .rings import Ring
from .smith import invariant_factors_of, inverse, kernel_basis, snf, solve_linear


class FpModule:
    __slots__ = ("ring", "gens", "relations", "_cache")

    def __init__(self, ring: Ring, gens: int, relations: Matrix):
        if relations.ring != ring or relations.rows != gens:
            raise DimensionMismatchError(
                f"relations must be a {gens}-row matrix over {ring}"
            )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, *a):
        raise AttributeError("FpModule is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def free(ring: Ring, rank: int) -> "FpModule":
        return FpModule(ring, rank, Matrix.zero(ring, rank, 0))

    @staticmethod
    def zero(ring: Ring) -> "FpModule":
        return FpModule(ring, 0, Matrix.zero(ring, 0, 0))

    @staticmethod
    def cyclic(ring: Ring, d: int) -> "FpModule":
        """R/(d): the cokernel of multiplication by d on R."""
        return FpModule(ring, 1, Matrix.from_rows(ring, [[d]]))

    @staticmethod
    def cokernel_presentation(A: Matrix) -> "FpModule":
        """The module presented by relation matrix A (one relation per column)."""
        return FpModule(A.ring, A.rows, A)

    @staticmethod
    def direct_sum(*summands: "FpModule") -> "FpModule":
        if not summands:
            raise ValueError("need at least one summand")
        ring = summands[0].ring
        rel = Matrix.block_diagonal(ring, [m.relations for m in summands])
        return FpModule(ring, sum(m.gens for m in summands), rel)

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FpModule)
            and self.ring == other.ring
            and self.gens == other.gens
            and self.relations == other.relations
        )

    def __hash__(self):
        return hash((self.ring, self.gens, self.relations))

    def __repr__(self):
        facs = self.invariant_factors()
        if not facs:
            return f"FpModule({self.ring}, 0)"
        parts = []
        for d in facs:
            parts.append(f"{self.ring}" if d == 0 else f"{self.ring}/{d}")
        return f"FpModule({' + '.join(parts)})"

    # -- canonical invariants ---------------------------------------------------

    def invariant_factors(self) -> tuple:
        """Presentation-independent fingerprint of the underlying group.

        Over Z these are the invariant factors of the cokernel; unit
        factors dropped, each 0 standing for a free summand.  Over Z/n and
        F_p the relation n = 0 is adjoined first, so the result describes
        the module as a finite abelian group (equivalently as an R-module:
        additive maps between Z/n-modules are automatically Z/n-linear).
        """
        if "invfac" not in self._cache:
            self._cache["invfac"] = invariant_factors_of(self.relations)
        return self._cache["invfac"]

    def is_zero_module(self) -> bool:
        return not self.invariant_factors()

    def is_isomorphic_to(self, other: "FpModule") -> bool:
        return self.ring == other.ring and self.invariant_factors() == other.invariant_factors()

    def size(self) -> Optional[int]:
        """Number of elements, or None when infinite."""
        out = 1
        for d in self.invariant_factors():
            if d == 0:
                return None
            out *= d
        return out

    # -- coset arithmetic ---------------------------------------------------

    def _smith_data(self):
        """(U, U^{-1}, diag) describing the relation lattice in Smith
        coordinates; diag holds the pivots of the relations, one per
        generator: 0 for free directions over Z, divisors of n (n itself
        for unconstrained generators) over residue rings."""
        if "smith" not in self._cache:
            form = snf(self.relations)
            self._cache["smith"] = (form.U, inverse(form.U), form.pivots(self.gens))
        return self._cache["smith"]

    def canonical_element(self, v: Sequence[int]) -> tuple:
        """Canonical coset representative of a generator-coordinate vector."""
        if len(v) != self.gens:
            raise DimensionMismatchError("element length mismatch")
        U, Uinv, diag = self._smith_data()
        u = U.apply([int(x) for x in v])
        red = [ui % d if d != 0 else ui for ui, d in zip(u, diag)]
        out = Uinv.apply(red)
        return tuple(self.ring.normalize(x) for x in out)

    def element_is_zero(self, v) -> bool:
        return all(x == 0 for x in self.canonical_element(v))

    def elements(self):
        """All coset representatives in canonical order.  Finite modules only."""
        U, Uinv, diag = self._smith_data()
        if any(d == 0 for d in diag):
            raise UnsupportedRingError("cannot enumerate an infinite module")
        for combo in product(*[range(d) for d in diag]):
            out = Uinv.apply(list(combo))
            yield tuple(self.ring.normalize(x) for x in out)

    # -- canonical decomposition ------------------------------------------------

    def canonical_form(self):
        """(canonical module, to: self -> canon, fro: canon -> self).

        The canonical module is presented diagonally by the invariant
        factors; both directions are verified isomorphisms.
        """
        if "canon" in self._cache:
            return self._cache["canon"]
        U, Uinv, diag = self._smith_data()
        survive = [i for i, d in enumerate(diag) if d != 1]
        facs = [diag[i] for i in survive]
        canon = FpModule(
            self.ring,
            len(survive),
            Matrix.diagonal(self.ring, len(survive), len(survive), facs),
        )
        to_m = U.submatrix(survive, range(self.gens))
        fro_m = Uinv.submatrix(range(self.gens), survive)
        to = ModuleMap(self, canon, to_m)
        fro = ModuleMap(canon, self, fro_m)
        assert to.compose(fro).is_identity() and fro.compose(to).is_identity()
        self._cache["canon"] = (canon, to, fro)
        return self._cache["canon"]


def element_in_colspan(A: Matrix, v: Sequence[int]) -> Optional[Matrix]:
    """Coefficients expressing v in the column span of A, or None."""
    return solve_linear(A, Matrix.column(A.ring, list(v)))


class ModuleMap:
    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FpModule, target: FpModule, matrix: Matrix, check: bool = True):
        if matrix.rows != target.gens or matrix.cols != source.gens:
            raise DimensionMismatchError(
                f"map matrix must be {target.gens}x{source.gens}, got {matrix.rows}x{matrix.cols}"
            )
        if source.ring != target.ring or matrix.ring != source.ring:
            raise DimensionMismatchError("module map ring mismatch")
        if check and not _carries_relations(source, target, matrix):
            raise ValidationError("matrix does not carry source relations into target relations")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, *a):
        raise AttributeError("ModuleMap is immutable")

    @property
    def ring(self) -> Ring:
        return self.source.ring

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(M: FpModule) -> "ModuleMap":
        return ModuleMap(M, M, Matrix.identity(M.ring, M.gens), check=False)

    @staticmethod
    def zero_map(source: FpModule, target: FpModule) -> "ModuleMap":
        return ModuleMap(source, target, Matrix.zero(source.ring, target.gens, source.gens), check=False)

    # -- value semantics ---------------------------------------------------------

    def __eq__(self, other):
        """Strict representation equality (same matrices); for equality as
        morphisms use :meth:`equals`."""
        return (
            isinstance(other, ModuleMap)
            and self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    def __repr__(self):
        return f"ModuleMap({self.source} -> {self.target})"

    def equals(self, other: "ModuleMap") -> bool:
        """Equality as morphisms: matrices agree modulo target relations."""
        if self.source != other.source or self.target != other.target:
            return False
        diff = self.matrix - other.matrix
        return _columns_in_relspan(self.target, diff)

    def is_zero_map(self) -> bool:
        return _columns_in_relspan(self.target, self.matrix)

    def is_identity(self) -> bool:
        if self.source != self.target:
            return False
        return self.equals(ModuleMap.identity(self.source))

    # -- algebra ---------------------------------------------------------------

    def compose(self, first: "ModuleMap") -> "ModuleMap":
        """self o first (apply ``first``, then ``self``)."""
        if first.target != self.source:
            raise DimensionMismatchError("composition source/target mismatch")
        return ModuleMap(first.source, self.target, self.matrix * first.matrix, check=False)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        if self.source != other.source or self.target != other.target:
            raise DimensionMismatchError("map addition mismatch")
        return ModuleMap(self.source, self.target, self.matrix + other.matrix, check=False)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        return self + other.scale(-1)

    def scale(self, c: int) -> "ModuleMap":
        return ModuleMap(self.source, self.target, self.matrix.scale(c), check=False)

    def apply(self, v: Sequence[int]) -> tuple:
        return self.matrix.apply(list(v))

    # -- kernel / image / cokernel ------------------------------------------------

    def kernel_gens(self) -> Matrix:
        """Generator columns (in source coordinates) of ker(self)."""
        sys = self.matrix.hstack(self.target.relations)
        K = kernel_basis(sys)
        return K.submatrix(range(self.source.gens), range(K.cols))

    def kernel(self):
        """(K, incl) with incl a mono onto the kernel submodule."""
        return submodule(self.source, self.kernel_gens())

    def image(self):
        """(I, incl into target) for the image submodule."""
        return submodule(self.target, self.matrix)

    def cokernel(self):
        """(C, proj) with proj the canonical epi from the target."""
        C = FpModule(self.ring, self.target.gens, self.target.relations.hstack(self.matrix))
        proj = ModuleMap(self.target, C, Matrix.identity(self.ring, self.target.gens), check=False)
        return C, proj

    def is_mono(self) -> bool:
        K = self.kernel_gens()
        return _columns_in_relspan(self.source, K)

    def is_epi(self) -> bool:
        C, _ = self.cokernel()
        return C.is_zero_module()

    def is_iso(self) -> bool:
        return self.is_mono() and self.is_epi()

    def inverse(self) -> "ModuleMap":
        """Two-sided inverse of an isomorphism (solved linearly)."""
        inv = find_map_with(
            self.target, self.source,
            post_compose=(self, ModuleMap.identity(self.target)),
        )
        if inv is None:
            raise ValidationError("map is not invertible")
        assert inv.compose(self).is_identity()
        return inv


def _carries_relations(source: FpModule, target: FpModule, matrix: Matrix) -> bool:
    moved = matrix * source.relations
    return _columns_in_relspan(target, moved)


def _columns_in_relspan(M: FpModule, cols: Matrix) -> bool:
    for j in range(cols.cols):
        if not M.element_is_zero(cols.col(j)):
            return False
    return True


# -- submodules, quotients, subquotients ------------------------------------------


def submodule(M: FpModule, gens: Matrix):
    """The submodule of M generated by the given element columns.

    Returns (S, incl) where S is presented on exactly those generators
    (relations = all coefficient vectors that die in M) and incl is the
    tautological mono S -> M.
    """
    if gens.rows != M.gens:
        raise DimensionMismatchError("submodule generators must live in M")
    sys = gens.hstack(M.relations)
    K = kernel_basis(sys)
    rel = K.submatrix(range(gens.cols), range(K.cols))
    S = FpModule(M.ring, gens.cols, rel)
    incl = ModuleMap(S, M, gens, check=False)
    return S, incl


def quotient(M: FpModule, gens: Matrix):
    """(M / <gens>, projection)."""
    Q = FpModule(M.ring, M.gens, M.relations.hstack(gens))
    proj = ModuleMap(M, Q, Matrix.identity(M.ring, M.gens), check=False)
    return Q, proj


def subquotient(M: FpModule, zgens: Matrix, bgens: Matrix) -> FpModule:
    """(submodule generated by zgens) / (submodule generated by bgens).

    Requires span(bgens) <= span(zgens) + relations; homology of complexes
    reduces to this.
    """
    Z, _ = submodule(M, zgens)
    # express each b-generator in Z coordinates
    cols = []
    for j in range(bgens.cols):
        coeff = element_in_colspan(zgens.hstack(M.relations), bgens.col(j))
        if coeff is None:
            raise ValidationError("boundaries do not lie inside cycles")
        cols.append(tuple(coeff.col(0))[: zgens.cols])
    if cols:
        binz = Matrix(M.ring, zgens.cols, len(cols), [list(r) for r in zip(*cols)])
    else:
        binz = Matrix.zero(M.ring, zgens.cols, 0)
    return FpModule(M.ring, zgens.cols, Z.relations.hstack(binz))


def intersection_gens(M: FpModule, A: Matrix, B: Matrix) -> Matrix:
    """Generators of the intersection of span(A) and span(B) inside M."""
    sys = A.hstack(B.scale(-1)).hstack(M.relations)
    K = kernel_basis(sys)
    alphas = K.submatrix(range(A.cols), range(K.cols))
    return A * alphas


def preimage_gens(f: ModuleMap, wgens: Matrix) -> Matrix:
    """Generators of f^{-1}(span(wgens)) in the source of f."""
    sys = f.matrix.hstack(wgens).hstack(f.target.relations)
    K = kernel_basis(sys)
    return K.submatrix(range(f.source.gens), range(K.cols))


def element_in_submodule(M: FpModule, gens: Matrix, v: Sequence[int]) -> Optional[Matrix]:
    """Coordinates of v in span(gens) modulo M's relations, or None."""
    coeff = element_in_colspan(gens.hstack(M.relations), v)
    if coeff is None:
        return None
    return coeff.submatrix(range(gens.cols), [0])


def map_factorization(f: ModuleMap):
    """Kernel, image and cokernel of f with exactness verified.

    Returns (kernel_incl, image_module, cokernel_proj); the composite
    source -> image -> target equals f and source -> image is epi.
    """
    K, kincl = f.kernel()
    I, iincl = f.image()
    C, cproj = f.cokernel()
    # corestriction source -> image is the tautological map on generators
    corestr = ModuleMap(
        f.source, I, Matrix.identity(f.ring, f.source.gens), check=False
    )
    assert iincl.compose(corestr).equals(f)
    assert corestr.is_epi()
    assert kincl.is_mono()
    assert cproj.is_epi()
    assert f.compose(kincl).is_zero_map()
    assert cproj.compose(f).is_zero_map()
    return kincl, I, cproj


# -- solving for maps under linear side conditions ----------------------------------


def find_map_with(source: FpModule, target: FpModule,
                  post_compose=None, pre_compose=None):
    """Find h: source -> target with optional one-sided conditions.

    ``post_compose=(g, c)`` demands g o h = c; ``pre_compose=(g, c)``
    demands h o g = c.  Returns a verified ModuleMap or None.  This is a
    thin convenience over the general equation solver for the common
    section/retraction searches.
    """
    from .linsolve import MatrixEquationSolver

    solver = MatrixEquationSolver(source.ring)
    h = solver.add_unknown_map(source, target)
    if post_compose is not None:
        g, c = post_compose
        solver.require_composite_equals(g, h, c)
    if pre_compose is not None:
        g, c = pre_compose
        solver.require_composite_equals(h, g, c)
    sol = solver.solve()
    if sol is None:
        return None
    out = sol[h]
    if post_compose is not None:
        assert post_compose[0].compose(out).equals(post_compose[1])
    if pre_compose is not None:
        assert out.compose(pre_compose[0]).equals(pre_compose[1])
    return out


def find_section(p: ModuleMap) -> Optional[ModuleMap]:
    """s with p o s = id on the target, or None (p splits iff found)."""
    return find_map_with(p.target, p.source,
                         post_compose=(p, ModuleMap.identity(p.target)))


def find_retraction(i: ModuleMap) -> Optional[ModuleMap]:
    """r with r o i = id on the source, or None."""
    return find_map_with(i.target, i.source,
                         pre_compose=(i, ModuleMap.identity(i.source)))


def hom_module(M: FpModule, N: FpModule):
    """Hom_R(M, N) as an FpModule together with its generating maps.

    Returns (H, maps) where H is the Hom module presented on len(maps)
    generators and maps[i] is the ModuleMap generator i stands for.
    """
    ring = M.ring
    # well-definedness is linear in the matrix entries: S * rel in relspan(N)
    from .linsolve import MatrixEquationSolver

    solver = MatrixEquationSolver(ring)
    s = solver.add_unknown_map(M, N)
    basis = solver.solution_basis()
    gens_maps = [b[s] for b in basis]
    if not gens_maps:
        return FpModule.zero(ring), []
    # relations: coefficient vectors making the combination the zero map
    vecs = Matrix.hstack_all(
        ring, N.gens * M.gens, [Matrix.column(ring, list(g.matrix.vec())) for g in gens_maps]
    )
    # zero as a map means: each column of the combination lies in relspan(N)
    relblock = Matrix.block_diagonal(ring, [N.relations] * M.gens)
    K = kernel_basis(vecs.hstack(relblock))
    rel = K.submatrix(range(len(gens_maps)), range(K.cols))
    H = FpModule(ring, len(gens_maps), rel)
    return H, gens_maps


@dataclass(frozen=True)
class ShortExactSeq:
    """A -> B -> C with i mono, p epi and image(i) = kernel(p), all checked."""

    i: ModuleMap
    p: ModuleMap

    def __post_init__(self):
        if self.i.target != self.p.source:
            raise ValidationError("middle objects of the sequence differ")
        if not self.i.is_mono():
            raise ValidationError("first map is not a monomorphism")
        if not self.p.is_epi():
            raise ValidationError("second map is not an epimorphism")
        if not self.p.compose(self.i).is_zero_map():
            raise ValidationError("composite of the sequence is not zero")
        # kernel of p must be contained in the image of i
        kg = self.p.kernel_gens()
        B = self.i.target
        for j in range(kg.cols):
            if element_in_submodule(B, self.i.matrix, kg.col(j)) is None:
                raise ValidationError("kernel of the epi is larger than the image of the mono")

    @property
    def sub(self) -> FpModule:
        return self.i.source

    @property
    def middle(self) -> FpModule:
        return self.i.target

    @property
    def quotient_module(self) -> FpModule:
        return self.p.target

    @staticmethod
    def from_submodule(M: FpModule, gens: Matrix) -> "ShortExactSeq":
        S, incl = submodule(M, gens)
        Q, proj = quotient(M, gens)
        return ShortExactSeq(incl, proj)
