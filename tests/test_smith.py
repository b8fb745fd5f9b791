import math
import random
from itertools import product

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from finhom import Integers, IntegersModN, Matrix, PrimeField, kernel_basis, snf, solve_linear
from finhom.errors import PreconditionFailedError
from finhom.smith import determinant, invariant_factors_of, inverse

ZZ = Integers()


def gcd_of_k_minors(A, k):
    """Independent oracle: gcd of all k x k minors of an integer matrix."""
    rows = range(A.rows)
    cols = range(A.cols)
    g = 0
    from itertools import combinations

    for ri in combinations(rows, k):
        for ci in combinations(cols, k):
            sub = A.submatrix(ri, ci)
            g = math.gcd(g, determinant(sub))
    return g


def test_snf_invariant_factor_oracle():
    # d1 = gcd of entries, d1*d2 = gcd of 2x2 minors
    A = Matrix.from_rows(ZZ, [[2, 4], [6, 8]])
    form = snf(A)
    assert form.U * A * form.V == form.D
    d = form.diagonal
    assert d == (2, 4)
    assert d[0] == gcd_of_k_minors(A, 1)
    assert d[0] * d[1] == gcd_of_k_minors(A, 2)


def test_snf_identity_and_zero():
    I3 = Matrix.identity(ZZ, 3)
    form = snf(I3)
    assert form.D == I3
    Z23 = Matrix.zero(ZZ, 2, 3)
    assert snf(Z23).D == Z23


def test_snf_random_exactness_and_determinism():
    rng = random.Random(7)
    for _ in range(60):
        r = rng.randint(0, 5)
        c = rng.randint(0, 5)
        A = Matrix(ZZ, r, c, [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
        f1 = snf(A)
        f2 = snf(A)
        assert f1 == f2  # bit-identical rerun
        assert f1.U * A * f1.V == f1.D
        assert abs(determinant(f1.U)) == 1
        assert abs(determinant(f1.V)) == 1
        diag = f1.diagonal
        for i in range(len(diag) - 1):
            if diag[i] != 0:
                assert diag[i + 1] % diag[i] == 0
            else:
                assert diag[i + 1] == 0
        # off-diagonal must vanish
        for i in range(f1.D.rows):
            for j in range(f1.D.cols):
                if i != j:
                    assert f1.D.entries[i][j] == 0


@pytest.mark.parametrize("ring", [
    IntegersModN(4), IntegersModN(6), PrimeField(3), IntegersModN(1),
    IntegersModN(8), IntegersModN(9), IntegersModN(12), IntegersModN(30)])
def test_snf_residue_rings(ring):
    rng = random.Random(13)
    n = ring.modulus
    for _ in range(40):
        r = rng.randint(0, 6)
        c = rng.randint(0, 6)
        A = Matrix(ring, r, c, [[rng.randrange(n) for _ in range(c)] for _ in range(r)])
        form = snf(A)
        assert form.U * A * form.V == form.D
        assert math.gcd(determinant(form.U.lift_to_integers()), n) == 1
        assert math.gcd(determinant(form.V.lift_to_integers()), n) == 1
        # D is diagonal, with a chain of divisors of n (n stored as 0)
        assert form.D == Matrix.diagonal(ring, r, c, form.diagonal)
        chain = [d or n for d in form.diagonal] + [n]
        assert all(n % d == 0 for d in chain)
        assert all(b % a == 0 for a, b in zip(chain, chain[1:]))
        assert inverse(form.U) * form.U == Matrix.identity(ring, r)
        # independent oracle: the integer matrix [A | n I] presents the
        # same abelian group as A over Z/n
        if r:
            lifted = sympy.Matrix([list(row) + [n if i == k else 0 for k in range(r)]
                                   for i, row in enumerate(A.entries)])
            oracle = invariant_factors(lifted, domain=sympy.ZZ)
            assert invariant_factors_of(A) == tuple(int(d) for d in oracle if d != 1)
        else:
            assert invariant_factors_of(A) == ()


@pytest.mark.parametrize("ring", [ZZ, IntegersModN(4)])
def test_inverse_rejects_singular(ring):
    with pytest.raises(PreconditionFailedError):
        inverse(Matrix.from_rows(ring, [[2]]))


def test_solve_linear_basic():
    A = Matrix.from_rows(ZZ, [[2]])
    assert solve_linear(A, Matrix.column(ZZ, [4])) == Matrix.column(ZZ, [2])
    assert solve_linear(A, Matrix.column(ZZ, [3])) is None


def test_solve_linear_mod6_deterministic_choice():
    R = IntegersModN(6)
    A = Matrix.from_rows(R, [[2]])
    x = solve_linear(A, Matrix.column(R, [4]))
    assert x == Matrix.column(R, [2])
    # exhaustive oracle over Z/6
    sols = [t for t in range(6) if (2 * t) % 6 == 4]
    assert x.entries[0][0] in sols


@pytest.mark.parametrize("ring", [IntegersModN(4), IntegersModN(6), PrimeField(3)])
def test_solve_linear_exhaustive_agreement(ring):
    rng = random.Random(5)
    n = ring.modulus
    for _ in range(30):
        r = rng.randint(1, 3)
        c = rng.randint(1, 3)
        A = Matrix(ring, r, c, [[rng.randrange(n) for _ in range(c)] for _ in range(r)])
        b = Matrix.column(ring, [rng.randrange(n) for _ in range(r)])
        x = solve_linear(A, b)
        brute = None
        for cand in product(range(n), repeat=c):
            if Matrix.column(ring, list(cand)) and A.apply(cand) == tuple(b.col(0)):
                brute = cand
                break
        if x is None:
            assert brute is None
        else:
            assert A * x == b


def test_solve_linear_integers_bounded_box_agreement():
    rng = random.Random(11)
    for _ in range(25):
        r = rng.randint(1, 3)
        c = rng.randint(1, 3)
        A = Matrix(ZZ, r, c, [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
        b = Matrix.column(ZZ, [rng.randint(-3, 3) for _ in range(r)])
        x = solve_linear(A, b)
        if x is not None:
            assert A * x == b
        else:
            # exhaustive over a box: box must be large enough for small dims
            found = False
            for cand in product(range(-12, 13), repeat=c):
                if A.apply(cand) == tuple(b.col(0)):
                    found = True
                    break
            assert not found


def test_kernel_basis_examples():
    A = Matrix.from_rows(ZZ, [[1, 1]])
    K = kernel_basis(A)
    assert K.cols == 1
    t = K.col(0)
    assert t[0] == -t[1] and t[0] != 0

    F3 = PrimeField(3)
    B = Matrix.from_rows(F3, [[1, 2], [2, 4]])
    K3 = kernel_basis(B)
    assert K3.cols >= 1
    for j in range(K3.cols):
        assert all(x == 0 for x in B.apply(K3.col(j)))

    inv = Matrix.from_rows(ZZ, [[2, 1], [1, 1]])
    assert kernel_basis(inv).cols == 0


@pytest.mark.parametrize("ring", [IntegersModN(4), IntegersModN(6)])
def test_kernel_spans_every_solution(ring):
    rng = random.Random(3)
    n = ring.modulus
    for _ in range(20):
        r = rng.randint(1, 3)
        c = rng.randint(1, 3)
        A = Matrix(ring, r, c, [[rng.randrange(n) for _ in range(c)] for _ in range(r)])
        K = kernel_basis(A)
        for j in range(K.cols):
            assert all(x == 0 for x in A.apply(K.col(j)))
        # every exhaustive kernel vector is a combination of the basis
        for cand in product(range(n), repeat=c):
            if all(x == 0 for x in A.apply(cand)):
                sol = solve_linear(K, Matrix.column(ring, list(cand)))
                assert sol is not None, f"{cand} not in span of kernel basis"


def test_invariant_factors_helper():
    A = Matrix.from_rows(ZZ, [[2, 0], [0, 4]])
    assert invariant_factors_of(A) == (2, 4)
    B = Matrix.zero(ZZ, 2, 0)
    assert invariant_factors_of(B) == (0, 0)
    C = Matrix.from_rows(ZZ, [[1, 0], [0, 6]])
    assert invariant_factors_of(C) == (6,)
