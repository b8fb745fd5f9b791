"""Homological functors on finitely presented modules.

Ext and Tor by one cyclic rule: both depend only on the isomorphism
classes of their arguments, so M is read as the sum of R/(d) over its
invariant factors d, and N as N', the diagonal module on its own.  Each
R/(d) has the free resolution R --c_k--> R with c_0 = 0, c_1 = d and
c_{k+1} = ann(c_k) (n/c over Z/n; over Z, 1 for c = 0 and 0 otherwise),
so Ext^n(M, N) is the sum of ker(c_{n+1} on N') / c_n N' and Tor_n(M, N)
the sum of ker(c_n on N') / c_{n+1} N'.  Alongside: free resolutions of a
presentation by syzygy iteration, the tensor product with its functorial
action on maps, decidable projectivity/flatness/injectivity, and the
explicit lift of a commutative square through a pair of short exact
sequences when the obstruction Ext group vanishes.

Over the integers syzygy resolutions stop after one step (submodules of
free modules are free); over Z/n they may be periodic and are truncated
at the requested length.
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
    kernel_columns,
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


def _annihilator(ring: Ring, c: int) -> int:
    """The generator of ann(c): n/gcd(c, n) over Z/n; over Z, 1 for c = 0
    and 0 otherwise (the rule of ``SmithForm.kernel_columns``)."""
    n = ring.modulus
    if n is None:
        return 1 if c == 0 else 0
    return n // math.gcd(c, n)


def _cyclic_data(M: FpModule, N: FpModule, n: int, ext: bool):
    """(N', cycle generators, boundary generators), one triple per
    invariant factor d of M, by the cyclic rule of the module docstring:
    their subquotients sum to Ext^n(M, N) or to Tor_n(M, N)."""
    if n < 0:
        raise PreconditionFailedError(f"{'ext' if ext else 'tor'} degree must be >= 0")
    if M.ring != N.ring:
        raise PreconditionFailedError("modules must share a ring")
    ring = M.ring
    facs = N.invariant_factors()
    Nd = FpModule(ring, len(facs), Matrix.diagonal(ring, len(facs), len(facs), facs))
    one = Matrix.identity(ring, Nd.gens)
    out = []
    for d in M.invariant_factors():
        c = [0, d]
        while len(c) < n + 2:
            c.append(_annihilator(ring, c[-1]))
        kill, bound = (c[n + 1], c[n]) if ext else (c[n], c[n + 1])
        out.append((Nd, kernel_columns(one.scale(kill), Nd), one.scale(bound)))
    return out


def _cyclic_sum(M: FpModule, N: FpModule, n: int, ext: bool) -> FpModule:
    parts = [subquotient(*t) for t in _cyclic_data(M, N, n, ext)]
    return FpModule.direct_sum(FpModule.zero(M.ring), *parts)


def ext_n(M: FpModule, N: FpModule, n: int) -> FpModule:
    """Ext^n(M, N) by the cyclic rule on invariant factors."""
    return _cyclic_sum(M, N, n, ext=True)


def ext_vanishes(M: FpModule, N: FpModule, n: int) -> bool:
    """Whether Ext^n(M, N) = 0, decided without building the group; for
    n >= 1 it is 0 when M has no relations, since free modules are projective."""
    if n >= 1 and M.relations.cols == 0 and M.ring == N.ring:
        return True
    return all(subquotient_vanishes(*t) for t in _cyclic_data(M, N, n, ext=True))


def tor_n(M: FpModule, N: FpModule, n: int) -> FpModule:
    """Tor_n(M, N) by the cyclic rule on invariant factors."""
    return _cyclic_sum(M, N, n, ext=False)


def _tor1_cyclic_vanishes(M: FpModule, d: int) -> bool:
    """Whether Tor_1(R/(d), M) = 0, read on M's own presentation: R/(d)
    is resolved by R --ann(d)--> R --d--> R, so Tor_1 is
    ker(d on M) / ann(d) M."""
    one = Matrix.identity(M.ring, M.gens)
    return subquotient_vanishes(M, kernel_columns(one.scale(d), M),
                                one.scale(_annihilator(M.ring, d)))


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
    is cross-checked against Tor_1(R/(d), M) = 0 for every ideal (d),
    read on M's own presentation and not on its invariant factors.
    """
    result = is_projective(M)
    if M.ring.is_finite:
        tor_check = all(_tor1_cyclic_vanishes(M, d) for d in M.ring.divisors())
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
    n_tilde = ModuleMap(B, Z, solver.value(sol, h_tilde), check=False)

    h = g_tilde.compose(n_tilde)
    _certify(h.compose(i).equals(f), "lift_through: the lift restricts to f")
    _certify(q.compose(h).equals(g), "lift_through: the lift projects to g")
    return h
