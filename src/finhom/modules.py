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
isomorphism tests.  Whether elements are zero is read from the left
transform U and the pivots alone (``FpModule.columns_vanish``), which
decides map equality, zero maps, monos and well-definedness, and, through
``subquotient_vanishes``, whether a homology or Ext/Tor group is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul
from typing import Optional, Sequence

from .errors import DimensionMismatchError, UnsupportedRingError, ValidationError
from .matrix import Matrix
from .rings import Ring
from .smith import invariant_factors_of, inverse, kernel_basis, snf, solve_linear


def _certify(holds: bool, certificate: str) -> None:
    """Raise ValidationError naming ``certificate`` unless it holds; unlike
    ``assert``, the check also runs under ``python -O``."""
    if not holds:
        raise ValidationError(f"certificate failed: {certificate}")


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
        A presentation with no relations is read directly, without a
        Smith form: R^g gives n repeated g times over Z/n (none over Z/1),
        and 0 repeated g times over Z.
        """
        if "invfac" not in self._cache:
            if self.relations.cols:
                facs = invariant_factors_of(self.relations)
            else:
                n = self.ring.modulus
                facs = () if n == 1 else (n or 0,) * self.gens
            self._cache["invfac"] = facs
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
        """(U, diag) describing the relation lattice in Smith coordinates:
        U is the left transform of the Smith form of the relations, and
        diag holds its pivots, one per generator: 0 for free directions
        over Z, divisors of n (n itself for unconstrained generators) over
        residue rings.  Membership reads only these; U^{-1}, a second
        Smith form, is taken by ``_smith_inverse`` when a representative
        or a lift of the Smith basis is asked for."""
        if "smith" not in self._cache:
            form = snf(self.relations)
            self._cache["smith"] = (form.U, form.pivots(self.gens))
        return self._cache["smith"]

    def _smith_inverse(self) -> Matrix:
        """U^{-1} for the U of ``_smith_data``."""
        if "uinv" not in self._cache:
            self._cache["uinv"] = inverse(self._smith_data()[0])
        return self._cache["uinv"]

    def columns_vanish(self, A: Matrix) -> bool:
        """Whether every column of A (generator coordinates) is zero in
        the module, i.e. lies in the relation span.

        With U R V = D the Smith form of the relations R and d_i its
        pivots, v lies in the span exactly when (U v)_i = 0 mod d_i for
        every i: mod n where the pivot is zero over Z/n, exactly where it
        is zero over Z, and always where d_i = 1.  Each row of U meets
        every column of A once; the first failure returns False.  With
        no relations no Smith form is taken: entries are in normal form,
        so a column is zero in the module exactly when it is zero.
        """
        if A.ring != self.ring or A.rows != self.gens:
            raise DimensionMismatchError(
                f"columns must have {self.gens} entries over {self.ring}")
        if not self.relations.cols:
            return not any(map(any, A.entries))
        U, diag = self._smith_data()
        cols = list(zip(*A.entries))
        for urow, d in zip(U.entries, diag):
            if d == 1:
                continue
            for col in cols:
                x = sum(map(mul, urow, col))
                if x % d if d else x:
                    return False
        return True

    def canonical_element(self, v: Sequence[int]) -> tuple:
        """Canonical coset representative of a generator-coordinate vector."""
        if len(v) != self.gens:
            raise DimensionMismatchError("element length mismatch")
        U, diag = self._smith_data()
        u = U.apply([int(x) for x in v])
        red = [ui % d if d != 0 else ui for ui, d in zip(u, diag)]
        out = self._smith_inverse().apply(red)
        return tuple(self.ring.normalize(x) for x in out)

    def elements(self):
        """All coset representatives in canonical order.  Finite modules only."""
        _, diag = self._smith_data()
        if any(d == 0 for d in diag):
            raise UnsupportedRingError("cannot enumerate an infinite module")
        Uinv = self._smith_inverse()
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
        U, diag = self._smith_data()
        survive = [i for i, d in enumerate(diag) if d != 1]
        facs = [diag[i] for i in survive]
        canon = FpModule(
            self.ring,
            len(survive),
            Matrix.diagonal(self.ring, len(survive), len(survive), facs),
        )
        to_m = U.submatrix(survive, range(self.gens))
        fro_m = self._smith_inverse().submatrix(range(self.gens), survive)
        to = ModuleMap(self, canon, to_m)
        fro = ModuleMap(canon, self, fro_m)
        _certify(to.compose(fro).is_identity() and fro.compose(to).is_identity(),
                 "canonical_form: to and fro are mutually inverse")
        self._cache["canon"] = (canon, to, fro)
        return self._cache["canon"]


class ModuleMap:
    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FpModule, target: FpModule, matrix: Matrix, check: bool = True):
        if matrix.rows != target.gens or matrix.cols != source.gens:
            raise DimensionMismatchError(
                f"map matrix must be {target.gens}x{source.gens}, got {matrix.rows}x{matrix.cols}"
            )
        if source.ring != target.ring or matrix.ring != source.ring:
            raise DimensionMismatchError("module map ring mismatch")
        if check and not target.columns_vanish(matrix * source.relations):
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
        return self.target.columns_vanish(diff)

    def is_zero_map(self) -> bool:
        return self.target.columns_vanish(self.matrix)

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
        return kernel_columns(self.matrix, self.target)

    def kernel(self):
        """(K, incl) with incl a mono onto the kernel submodule."""
        return submodule(self.source, self.kernel_gens())

    def image(self):
        """(I, incl into target) for the image submodule."""
        return submodule(self.target, self.matrix)

    def cokernel(self):
        """(C, proj) with proj the canonical epi from the target."""
        C = quotient(self.target, self.matrix)
        return C, ModuleMap(self.target, C, Matrix.identity(self.ring, self.target.gens),
                            check=False)

    def is_mono(self) -> bool:
        K = self.kernel_gens()
        return self.source.columns_vanish(K)

    def is_epi(self) -> bool:
        return quotient(self.target, self.matrix).is_zero_module()

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
        _certify(inv.compose(self).is_identity(), "ModuleMap.inverse: inv o f = id")
        return inv


# -- submodules, quotients, subquotients ------------------------------------------


def submodule(M: FpModule, gens: Matrix):
    """The submodule of M generated by the given element columns.

    Returns (S, incl) where S is presented on exactly those generators
    (relations = all coefficient vectors that die in M) and incl is the
    tautological mono S -> M.
    """
    if gens.rows != M.gens:
        raise DimensionMismatchError("submodule generators must live in M")
    S = FpModule(M.ring, gens.cols, kernel_columns(gens, M))
    incl = ModuleMap(S, M, gens, check=False)
    return S, incl


def kernel_columns(A: Matrix, M: FpModule) -> Matrix:
    """Generator columns of {x : A x = 0 in M}, the kernel of the map
    into M with matrix A, in source coordinates; a zero matrix stands
    for a missing map."""
    K = kernel_basis(A.hstack(M.relations))
    return K.submatrix(range(A.cols), range(K.cols))


def quotient(M: FpModule, gens: Matrix) -> FpModule:
    """M / <gens>: the cokernel of the map into M with matrix gens,
    presented on M's generators (``ModuleMap.cokernel`` also gives the
    projection)."""
    return FpModule(M.ring, M.gens, M.relations.hstack(gens))


def subquotient(M: FpModule, zgens: Matrix, bgens: Matrix) -> FpModule:
    """(submodule generated by zgens) / (submodule generated by bgens).

    Requires span(bgens) <= span(zgens) + relations; homology of complexes
    reduces to this.
    """
    Z, _ = submodule(M, zgens)
    # the b-generators in Z coordinates
    binz = submodule_coordinates(M, zgens, bgens)
    if binz is None:
        raise ValidationError("boundaries do not lie inside cycles")
    return FpModule(M.ring, zgens.cols, Z.relations.hstack(binz))


def subquotient_vanishes(M: FpModule, zgens: Matrix, bgens: Matrix) -> bool:
    """Whether ``subquotient(M, zgens, bgens)`` is zero: every column of
    zgens lies in span(bgens) plus the relations of M.  One memoized
    Smith form of [relations | bgens] decides it; the containment of
    bgens in span(zgens) that ``subquotient`` checks is not checked."""
    return FpModule(M.ring, M.gens, M.relations.hstack(bgens)).columns_vanish(zgens)


def intersection_gens(M: FpModule, A: Matrix, B: Matrix) -> Matrix:
    """Generators of the intersection of span(A) and span(B) inside M."""
    sys = A.hstack(B.scale(-1)).hstack(M.relations)
    K = kernel_basis(sys)
    alphas = K.submatrix(range(A.cols), range(K.cols))
    return A * alphas


def submodule_coordinates(M: FpModule, gens: Matrix, cols: Matrix) -> Optional[Matrix]:
    """Coordinates of every column of ``cols`` in span(gens) modulo M's
    relations: the gens.cols x cols.cols matrix C with gens C = cols up
    to relations, or None when some column lies outside the span.

    The system [gens | relations] is built and solved once for all
    columns.
    """
    coeff = solve_linear(gens.hstack(M.relations), cols)
    if coeff is None:
        return None
    return coeff.submatrix(range(gens.cols), range(cols.cols))


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
    out = ModuleMap(source, target, solver.value(sol, h), check=False)
    if post_compose is not None:
        _certify(post_compose[0].compose(out).equals(post_compose[1]),
                 "find_map_with: g o h = c")
    if pre_compose is not None:
        _certify(out.compose(pre_compose[0]).equals(pre_compose[1]),
                 "find_map_with: h o g = c")
    return out


def find_section(p: ModuleMap) -> Optional[ModuleMap]:
    """s with p o s = id on the target, or None (p splits iff found)."""
    return find_map_with(p.target, p.source,
                         post_compose=(p, ModuleMap.identity(p.target)))


def combination_system(ring: Ring, vectors, relations) -> Matrix:
    """[vectors | block_diag(relations)]: one column per vector, then each
    relation matrix beside the rows of its block.  The vectors are maps
    flattened column by column, one relation matrix per column of a map,
    so a kernel vector gives coefficients whose combination of the maps
    is zero, with the multiples of the relations that show it."""
    cols = [Matrix.column(ring, list(v)) for v in vectors]
    return Matrix.hstack_all(ring, sum(r.rows for r in relations), cols).hstack(
        Matrix.block_diagonal(ring, relations))


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
    gens = [solver.value(b, s) for b in solver.solution_basis()]
    if not gens:
        return FpModule.zero(ring), []
    # relations: coefficient vectors making the combination the zero map
    K = kernel_basis(combination_system(ring, [g.vec() for g in gens],
                                        [N.relations] * M.gens))
    rel = K.submatrix(range(len(gens)), range(K.cols))
    H = FpModule(ring, len(gens), rel)
    return H, [ModuleMap(M, N, g, check=False) for g in gens]


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
        if submodule_coordinates(self.i.target, self.i.matrix, self.p.kernel_gens()) is None:
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
        return ShortExactSeq(incl, incl.cokernel()[1])
