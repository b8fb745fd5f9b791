"""Homological functors on finitely presented modules.

Free resolutions by syzygy iteration, Ext and Tor as (co)homology of the
induced complexes of Hom/tensor modules, the tensor product with its
functorial action on maps, decidable projectivity/flatness/injectivity,
and the explicit lift of a commutative square through a pair of short
exact sequences when the obstruction Ext group vanishes.

Over the integers resolutions stop after one step (submodules of free
modules are free); over Z/n they may be periodic and are truncated at the
requested length, which is all Ext^n/Tor_n up to that degree need.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import PreconditionFailedError, UnsupportedRingError
from .linsolve import MatrixEquationSolver
from .matrix import Matrix
from .modules import (
    FpModule,
    ModuleMap,
    ShortExactSeq,
    _certify,
    find_section,
    submodule,
    submodule_coordinates,
    subquotient,
    subquotient_vanishes,
)
from .rings import Ring
from .smith import kernel_basis


def free_resolution(M: FpModule, length: int):
    """Maps [aug, d_1, ..., d_length] of an exact sequence
    F_length -> ... -> F_1 -> F_0 -> M -> 0 with all F_i free.

    aug is F_0 -> M on the identity matrix; d_{i+1} is presented by
    generators of the kernel of d_i, so exactness holds by construction.
    """
    if length < 0:
        raise PreconditionFailedError("resolution length must be >= 0")
    ring = M.ring
    F0 = FpModule.free(ring, M.gens)
    maps = [ModuleMap(F0, M, Matrix.identity(ring, M.gens), check=False)]
    current = M.relations  # matrix of d_1
    if ring.kind == Ring.INTEGERS:
        current = column_span_basis(current)
    prev_free = F0
    for i in range(1, length + 1):
        Fi = FpModule.free(ring, current.cols)
        maps.append(ModuleMap(Fi, prev_free, current, check=False))
        prev_free = Fi
        current = kernel_basis(current)
        if ring.kind == Ring.INTEGERS and i >= 2:
            _certify(Fi.gens == 0, "free_resolution: resolutions over Z stop after one step")
    return maps


def column_span_basis(A: Matrix) -> Matrix:
    """A lattice basis of the integer column span of A (independent
    columns spanning the same sublattice)."""
    from .smith import snf

    form = snf(A)
    av = A * form.V
    return av.submatrix(range(A.rows), range(form.rank))


def _hom_into(N: FpModule, rank: int) -> FpModule:
    """Hom(R^rank, N) = N^rank."""
    if rank == 0:
        return FpModule.zero(N.ring)
    return FpModule.direct_sum(*[N] * rank)


def _hom_induced(d: ModuleMap, N: FpModule) -> ModuleMap:
    """Precomposition Hom(target(d), N) -> Hom(source(d), N)."""
    r_tgt = d.target.gens
    r_src = d.source.gens
    m = d.matrix.transpose().kronecker(Matrix.identity(N.ring, N.gens))
    return ModuleMap(_hom_into(N, r_tgt), _hom_into(N, r_src), m, check=False)


def _tensor_induced(d: ModuleMap, N: FpModule) -> ModuleMap:
    """d tensor id_N on free modules."""
    m = d.matrix.kronecker(Matrix.identity(N.ring, N.gens))
    return ModuleMap(_hom_into(N, d.source.gens), _hom_into(N, d.target.gens), m, check=False)


def _ext_data(M: FpModule, N: FpModule, n: int):
    """(Hom(F_n, N), cycle generators, boundary generators) of the
    cochain complex Hom(F, N) at degree n, F a free resolution of M."""
    if n < 0:
        raise PreconditionFailedError("ext degree must be >= 0")
    if M.ring != N.ring:
        raise PreconditionFailedError("modules must share a ring")
    res = free_resolution(M, n + 1)
    delta_next = _hom_induced(res[n + 1], N)  # Hom(F_n,N) -> Hom(F_{n+1},N)
    ambient = delta_next.source
    zgens = delta_next.kernel_gens()
    if n == 0:
        bgens = Matrix.zero(M.ring, ambient.gens, 0)
    else:
        bgens = _hom_induced(res[n], N).matrix
    return ambient, zgens, bgens


def ext_n(M: FpModule, N: FpModule, n: int) -> FpModule:
    """Ext^n(M, N) from a free resolution of M."""
    return subquotient(*_ext_data(M, N, n))


def ext_vanishes(M: FpModule, N: FpModule, n: int) -> bool:
    """Whether Ext^n(M, N) = 0, decided without building the group; for
    n >= 1 it is 0 when M has no relations, since free modules are projective."""
    if n >= 1 and M.relations.cols == 0 and M.ring == N.ring:
        return True
    return subquotient_vanishes(*_ext_data(M, N, n))


def _tor_data(M: FpModule, N: FpModule, n: int):
    """(F_n ox N, cycle generators, boundary generators) of the complex
    F ox N at degree n, F a free resolution of M."""
    if n < 0:
        raise PreconditionFailedError("tor degree must be >= 0")
    if M.ring != N.ring:
        raise PreconditionFailedError("modules must share a ring")
    res = free_resolution(M, n + 1)
    incoming = _tensor_induced(res[n + 1], N)  # F_{n+1} ox N -> F_n ox N
    ambient = incoming.target
    if n == 0:
        zgens = Matrix.identity(M.ring, ambient.gens)
    else:
        outgoing = _tensor_induced(res[n], N)
        zgens = outgoing.kernel_gens()
    return ambient, zgens, incoming.matrix


def tor_n(M: FpModule, N: FpModule, n: int) -> FpModule:
    """Tor_n(M, N) from a free resolution of M."""
    return subquotient(*_tor_data(M, N, n))


def tor_vanishes(M: FpModule, N: FpModule, n: int) -> bool:
    """Whether Tor_n(M, N) = 0, decided without building the group."""
    return subquotient_vanishes(*_tor_data(M, N, n))


def tensor_modules(M: FpModule, N: FpModule) -> FpModule:
    """M tensor N with the standard presentation: generator pairs (i, j)
    in row-major order, relations from both factors."""
    if M.ring != N.ring:
        raise PreconditionFailedError("modules must share a ring")
    ring = M.ring
    rel_m = M.relations.kronecker(Matrix.identity(ring, N.gens))
    rel_n = Matrix.identity(ring, M.gens).kronecker(N.relations)
    return FpModule(ring, M.gens * N.gens, rel_m.hstack(rel_n))


def tensor_maps(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    """The functorial map f tensor g between tensor products."""
    src = tensor_modules(f.source, g.source)
    tgt = tensor_modules(f.target, g.target)
    return ModuleMap(src, tgt, f.matrix.kronecker(g.matrix), check=False)


def tensor_unit_iso(M: FpModule) -> ModuleMap:
    """The canonical isomorphism M tensor R -> M."""
    R1 = FpModule.free(M.ring, 1)
    src = tensor_modules(M, R1)
    return ModuleMap(src, M, Matrix.identity(M.ring, M.gens), check=False)


@lru_cache(maxsize=1 << 14)
def is_projective(M: FpModule) -> bool:
    """Whether M is projective, read from its invariant factors.

    M is the sum of the cyclic modules R/(d) over its invariant factors
    d.  Over Z it is projective exactly when it is free: every factor is
    0.  Over Z/n (and F_p) R/(d) = Z/d is projective exactly when it is a
    summand of Z/n, that is when gcd(d, n/d) = 1."""
    n = M.ring.modulus
    if n is None:
        return all(d == 0 for d in M.invariant_factors())
    return all(math.gcd(d, n // d) == 1 for d in M.invariant_factors())


@lru_cache(maxsize=1 << 14)
def is_flat(M: FpModule) -> bool:
    """Flatness at finitely presented scale.

    Finitely presented flat modules over a commutative ring are
    projective, so this decides projectivity; on finite rings the answer
    is cross-checked against Tor_1(M, R/(d)) = 0 for every ideal (d).
    """
    result = is_projective(M)
    if M.ring.is_finite:
        tor_check = all(tor_vanishes(M, FpModule.cyclic(M.ring, d), 1)
                        for d in M.ring.divisors())
        _certify(tor_check == result, "is_flat: the flat and projective tests agree")
    return result


def is_injective(M: FpModule) -> bool:
    """Injectivity over quasi-Frobenius rings (projective = injective).

    Refused over Z: no nonzero finitely generated injective Z-module
    exists, so a boolean would be misleading.
    """
    if not M.ring.is_quasi_frobenius:
        raise UnsupportedRingError(
            "injectivity is only decided over quasi-Frobenius rings (Z/n, F_p)"
        )
    return is_projective(M)


def lift_through(f: ModuleMap, g: ModuleMap,
                 top_row: ShortExactSeq, bottom_row: ShortExactSeq) -> ModuleMap:
    """Lift h: B -> L with h i = f and q h = g.

    Data: top row A -> B -> C (maps i, p), bottom row K -> L -> M (maps
    j, q), f: A -> L and g: B -> M with q f = g i, and Ext^1(C, K) = 0.
    The construction is the explicit one behind the vanishing-Ext lifting
    lemma: pull back q along g, present the cokernel T of A -> Z, split
    K -> T -> C by a section found linearly, induce B -> Z by the
    pullback property, and project to L.
    """
    i, p = top_row.i, top_row.p
    j, q = bottom_row.i, bottom_row.p
    A, B, C = top_row.sub, top_row.middle, top_row.quotient_module
    K, L = bottom_row.sub, bottom_row.middle
    if f.source != A or f.target != L:
        raise PreconditionFailedError("f must map the top sub to the bottom middle")
    if g.source != B or g.target != bottom_row.quotient_module:
        raise PreconditionFailedError("g must map the top middle to the bottom quotient")
    if not q.compose(f).equals(g.compose(i)):
        raise PreconditionFailedError("square does not commute")
    if not ext_vanishes(C, K, 1):
        raise PreconditionFailedError("Ext^1 of (top quotient, bottom sub) does not vanish")

    ring = f.ring
    BL = FpModule.direct_sum(B, L)
    to_m = ModuleMap(BL, g.target, g.matrix.hstack(q.matrix.scale(-1)), check=False)
    zgens = to_m.kernel_gens()
    Z, zincl = submodule(BL, zgens)
    q_tilde = ModuleMap(Z, B, zincl.matrix.submatrix(range(B.gens), range(Z.gens)), check=False)
    g_tilde = ModuleMap(
        Z, L, zincl.matrix.submatrix(range(B.gens, B.gens + L.gens), range(Z.gens)), check=False
    )

    # iota: A -> Z sending a to (i(a), f(a))
    iota_m = submodule_coordinates(BL, zincl.matrix, i.matrix.vstack(f.matrix))
    _certify(iota_m is not None, "lift_through: (i, f) lands in the pullback")
    iota = ModuleMap(A, Z, iota_m, check=False)

    T, tproj = iota.cokernel()

    # k: K -> T via (0, j) and r: T -> C via p q~
    k_m = submodule_coordinates(BL, zincl.matrix,
                                Matrix.zero(ring, B.gens, K.gens).vstack(j.matrix))
    _certify(k_m is not None, "lift_through: (0, j) lands in the pullback")
    k_map = tproj.compose(ModuleMap(K, Z, k_m, check=False))
    r_map = ModuleMap(T, C, p.matrix * q_tilde.matrix)
    _certify(k_map.is_mono() and r_map.is_epi(), "lift_through: K -> T is mono and T -> C epi")
    _certify(r_map.compose(k_map).is_zero_map(), "lift_through: K -> T -> C is zero")

    section = find_section(r_map)
    _certify(section is not None, "lift_through: vanishing Ext splits the middle sequence")

    # n~: B -> Z with q~ n~ = id_B and tproj n~ = section p
    solver = MatrixEquationSolver(ring)
    h_tilde = solver.add_unknown_map(B, Z)
    solver.require_composite_equals(q_tilde, h_tilde, ModuleMap.identity(B))
    solver.require_composite_equals(tproj, h_tilde, section.compose(p))
    sol = solver.solve()
    _certify(sol is not None, "lift_through: the pullback property gives the induced map")
    n_tilde = sol[h_tilde]

    h = g_tilde.compose(n_tilde)
    _certify(h.compose(i).equals(f), "lift_through: the lift restricts to f")
    _certify(q.compose(h).equals(g), "lift_through: the lift projects to g")
    return h
