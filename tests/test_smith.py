import math
import random
from itertools import product

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import invariant_factors

from finhom import (
    Integers, IntegersModN, Matrix, PrimeField, SmithForm, kernel_basis, snf, solve_linear)
from finhom.errors import PreconditionFailedError
from finhom.smith import (
    _snf_integer, _snf_modular, eliminate, eliminate_modular, invariant_factors_of, inverse)

ZZ = Integers()


def determinant(A):
    """Exact determinant of a square matrix (Bareiss over the integer
    lift), normalized in A's ring; a test-side oracle."""
    n = A.rows
    if n == 0:
        return A.ring.one
    m = [list(r) for r in A.lift_to_integers().entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return A.ring.normalize(sign * m[n - 1][n - 1])


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


NON_UNITS = {"Z": (2, 0, -6), "Z/4": (2, 0), "Z/12": (2, 3, 6, 0), "F3": (0, 3)}


@pytest.mark.parametrize("ring", [ZZ, IntegersModN(4), IntegersModN(12), PrimeField(3)])
def test_inverse_rejects_singular(ring):
    # inverse reads the pivots: any pivot other than 1 is singular, also
    # a non-unit pivot after a unit one ([[1, 1], [1, 1 + c]] has pivots
    # 1 and c); an invertible matrix still inverts
    for c in NON_UNITS[str(ring)]:
        for rows in ([[c]], [[1, 0], [0, c]], [[1, 1], [1, 1 + c]], [[c, 1], [0, 0]]):
            with pytest.raises(PreconditionFailedError):
                inverse(Matrix.from_rows(ring, rows))
    M = Matrix.from_rows(ring, [[1, 1], [1, 2]])
    assert inverse(M) * M == Matrix.identity(ring, 2)


@pytest.mark.parametrize("ring", [ZZ, IntegersModN(4), IntegersModN(12), PrimeField(3)], ids=str)
def test_smith_form_keeps_no_dense_D(ring):
    # a form holds U, the columns of V and the pivot row; D and the
    # row-major V are built when asked for
    assert "D" not in SmithForm.__slots__ and "V" not in SmithForm.__slots__
    rng = random.Random(f"no-dense-D-{ring}")
    for _ in range(20):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        A = Matrix(ring, r, c, [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
        form = snf(A)
        held = [getattr(form, name) for name in SmithForm.__slots__]
        assert [type(x) for x in held] == [Matrix, tuple, tuple]
        # the one Matrix held is U; V is held as its columns
        assert form.vcols == tuple(zip(*form.V.entries))
        assert len(form.pivot_row) == min(r, c)
        assert form.U * A * form.V == form.D
        assert (form.D.rows, form.D.cols) == (r, c)


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


def test_prime_power_parts_and_divisors_match_sympy():
    # the factorization taken once per ring against sympy's
    for n in range(1, 400):
        ring = IntegersModN(n)
        assert ring._prime_power_parts() == tuple(
            p ** k for p, k in sorted(sympy.factorint(n).items()))
        assert ring.divisors() == sympy.divisors(n)
    for p in (2, 3, 101, 10000019):
        assert PrimeField(p)._prime_power_parts() == (p,)
        assert PrimeField(p).divisors() == [1, p]
    assert ZZ._prime_power_parts() == ()


def _prime_factors(n):
    """The primes dividing n, smallest first; the library splits n into
    its prime-power parts by ``Ring._prime_power_parts``."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def dense_snf_modular(A):
    """The dense elimination ``_snf_modular`` replaced, kept as the
    reference: every pass updates every entry of every row, and U, D and V
    go through the public, reducing constructors.  Returns (U, D, V)."""
    ring = A.ring
    n = ring.modulus
    rows, cols = A.rows, A.cols
    m = min(rows, cols)
    parts = []
    for p in _prime_factors(ring.modulus):
        q = p
        while n % (q * p) == 0:
            q *= p
        a = [[x % q for x in r] for r in A.entries]
        u = [[int(i == j) for j in range(rows)] for i in range(rows)]
        vt = [[int(i == j) for j in range(cols)] for i in range(cols)]
        diag = [q] * m
        for t in range(m):
            g, pi, pj = q, -1, -1
            for i in range(t, rows):
                row = a[i]
                for j in range(t, cols):
                    x = row[j]
                    if x % g:
                        g, pi, pj = math.gcd(x, q), i, j
                        if g == 1:
                            break
                if g == 1:
                    break
            if pi < 0:
                break
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for r in a:
                    r[t], r[pj] = r[pj], r[t]
                vt[t], vt[pj] = vt[pj], vt[t]
            w = pow(a[t][t] // g, -1, q)
            if w != 1:
                a[t] = [x * w % q for x in a[t]]
                u[t] = [x * w % q for x in u[t]]
            at, ut, vtt = a[t], u[t], vt[t]
            for i in range(t + 1, rows):
                f = a[i][t] // g
                if f:
                    a[i] = [(x - f * y) % q for x, y in zip(a[i], at)]
                    u[i] = [(x - f * y) % q for x, y in zip(u[i], ut)]
            for j in range(t + 1, cols):
                f = at[j] // g
                if f:
                    at[j] = 0
                    vt[j] = [(x - f * y) % q for x, y in zip(vt[j], vtt)]
            diag[t] = g
        parts.append((q, u, vt, diag))

    d = [math.prod(part[3][t] for part in parts) for t in range(m)]
    U = [[0] * rows for _ in range(rows)]
    Vt = [[0] * cols for _ in range(cols)]
    for q, u, vt, diag in parts:
        e = n // q * pow(n // q, -1, q)
        for t in range(rows):
            s = e * (d[t] // diag[t]) if t < m else e
            U[t] = [x + s * y for x, y in zip(U[t], u[t])]
        for j in range(cols):
            Vt[j] = [x + e * y for x, y in zip(Vt[j], vt[j])]
    return (Matrix(ring, rows, rows, U), Matrix.diagonal(ring, rows, cols, d),
            Matrix(ring, cols, cols, zip(*Vt)))


def assert_matches_dense(A):
    form = _snf_modular(A)
    for got, want in zip((form.U, form.D, form.V), dense_snf_modular(A)):
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert got.entries == want.entries, A.entries
    return form


MODULAR_RINGS = [IntegersModN(n) for n in (1, 2, 4, 8, 9, 12, 16, 27, 30, 36, 210)] + [PrimeField(3)]


@pytest.mark.parametrize("ring", MODULAR_RINGS, ids=str)
def test_snf_modular_matches_dense_reference(ring):
    rng = random.Random(f"smith-reference-{ring}")
    n = ring.modulus
    shapes = [(0, k) for k in range(4)] + [(k, 0) for k in range(1, 4)]
    shapes += [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(100)]
    for r, c in shapes:
        density = rng.choice((0.05, 0.1, 0.25, 0.5, 1))
        A = Matrix(ring, r, c, [[rng.randrange(n) if rng.random() < density else 0
                                 for _ in range(c)] for _ in range(r)])
        form = assert_matches_dense(A)
        if len(_prime_factors(ring.modulus)) > 1:
            # the CRT join reduces before the trusted constructor
            for M in (form.U, form.D, form.V):
                assert Matrix(ring, M.rows, M.cols, M.entries) == M


def test_snf_modular_matches_dense_reference_on_sparse_systems():
    # shaped like the lifting and factorization systems over Z/4
    rng = random.Random("smith-reference-sparse")
    Z4 = IntegersModN(4)
    for _ in range(20):
        r, c = rng.randint(40, 80), rng.randint(30, 60)
        density = rng.uniform(0.02, 0.05)
        A = Matrix(Z4, r, c, [[rng.randrange(1, 4) if rng.random() < density else 0
                               for _ in range(c)] for _ in range(r)])
        assert_matches_dense(A)


@pytest.mark.parametrize("ring", [IntegersModN(4), IntegersModN(8), IntegersModN(12),
                                  PrimeField(3)], ids=str)
def test_snf_modular_matches_dense_reference_on_tall_systems_with_zero_rows(ring):
    # rows zero from the start, rows that repeat or scale an earlier row
    # (zero once their pivot column is cleared), and a zero block on top
    rng = random.Random(f"smith-reference-tall-{ring}")
    n = ring.modulus
    for _ in range(12):
        r, c = rng.randint(60, 120), rng.randint(8, 30)
        density = rng.uniform(0.03, 0.2)
        rows = []
        for i in range(r):
            kind = rng.random()
            if kind < 0.3 or i < 5:
                rows.append([0] * c)
            elif kind < 0.5 and rows:
                f = rng.randrange(n)
                rows.append([f * x for x in rng.choice(rows)])
            else:
                rows.append([rng.randrange(n) if rng.random() < density else 0
                             for _ in range(c)])
        assert_matches_dense(Matrix(ring, r, c, rows))


def dense_snf_integer(A):
    """The dense elimination ``_snf_integer`` replaced, kept as the
    reference: the pivot search scans the whole trailing block, and every
    pass and the offender scan walk every entry.  Returns (U, D, V)."""
    rows, cols = A.rows, A.cols
    a = [list(r) for r in A.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, c):
        ad, as_ = a[dst], a[src]
        for k in range(cols):
            ad[k] += c * as_[k]
        ud, us = u[dst], u[src]
        for k in range(rows):
            ud[k] += c * us[k]

    def add_col(dst, src, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(best[0])):
                    best = (x, i, j)
        return best

    t = 0
    while t < min(rows, cols):
        found = find_pivot(t)
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if a[t][t] < 0:
            negate_row(t)
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        if a[t][t] < 0:
                            negate_row(t)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            offender = None
            p = a[t][t]
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1
    return (Matrix(ZZ, rows, rows, u), Matrix(ZZ, rows, cols, a), Matrix(ZZ, cols, cols, v))


def assert_integer_matches_dense(A):
    form = _snf_integer(A)
    for got, want in zip((form.U, form.D, form.V), dense_snf_integer(A)):
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert got.entries == want.entries, A.entries


def test_snf_integer_matches_dense_reference():
    rng = random.Random("smith-reference-integer")
    # a row remainder swap, a column remainder swap, an offender row, and
    # a non-unit pivot that divides the rest of its block
    fixed = [[[2], [3]], [[2, 3]], [[2, 0], [0, 3]], [[4, 6], [6, 4]], [[2, 4], [4, 0]],
             [[0, -6, 0], [0, 0, 10], [15, 0, 0]], [[-3, 5], [7, -2], [4, 4]]]
    for rows in fixed:
        assert_integer_matches_dense(Matrix.from_rows(ZZ, rows))
    shapes = [(0, k) for k in range(4)] + [(k, 0) for k in range(1, 4)]
    shapes += [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(300)]
    for r, c in shapes:
        density = rng.choice((0.05, 0.1, 0.25, 0.5, 1))
        # dense blocks keep small entries: U and V grow fast (ROADMAP item 2)
        spread = 12 if density < 0.3 or r * c <= 16 else 2
        A = Matrix(ZZ, r, c, [[rng.randint(-spread, spread) if rng.random() < density else 0
                               for _ in range(c)] for _ in range(r)])
        assert_integer_matches_dense(A)


def test_snf_integer_matches_dense_reference_on_sparse_systems():
    # shaped like the solver systems of the flat model structure over Z
    rng = random.Random("smith-reference-integer-sparse")
    for _ in range(10):
        r, c = rng.randint(20, 40), rng.randint(10, 30)
        A = Matrix(ZZ, r, c, [[rng.choice((-2, -1, 1, 2)) if rng.random() < 0.08 else 0
                               for _ in range(c)] for _ in range(r)])
        assert_integer_matches_dense(A)


@pytest.mark.parametrize("ring", [ZZ, IntegersModN(4), IntegersModN(12), PrimeField(3)], ids=str)
def test_kernel_basis_matches_column_construction(ring):
    # column j of V times the annihilator of pivot j, read with V.col(j)
    rng = random.Random(f"kernel-{ring}")
    n = ring.modulus or 0
    for _ in range(60):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        A = Matrix(ring, r, c, [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
        form = snf(A)
        cols = []
        for j, d in enumerate(form.pivots(c)):
            ann = ring.normalize(n // d if d else 1)
            if ann:
                cols.append([ring.normalize(ann * x) for x in form.V.col(j)])
        want = Matrix(ring, c, len(cols), zip(*cols)) if cols else Matrix.zero(ring, c, 0)
        assert kernel_basis(A) == want


@pytest.mark.parametrize("ring", [ZZ, IntegersModN(4), IntegersModN(12), PrimeField(3)], ids=str)
def test_pivots_read_the_diagonal_rule(ring):
    # a zero or missing pivot counts as n over Z/n and as 0 over Z, for
    # counts below, at and past the diagonal, on repeated reads of a form
    rng = random.Random(f"pivots-{ring}")
    n = ring.modulus or 0
    for _ in range(40):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        A = Matrix(ring, r, c, [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
        form = snf(A)
        D = form.D
        k = min(r, c)
        for count in (r, c, 0, k, k + 2, r, c):
            want = tuple((D.entries[i][i] if i < k else 0) or n for i in range(count))
            assert form.pivots(count) == want


CARRY_RINGS = [ZZ, IntegersModN(4), IntegersModN(12), PrimeField(3)]


@st.composite
def _sparse_systems(draw):
    """A x = b shaped like the chain-map systems: up to 40 x 40 with 2-6%
    of the entries nonzero (their median is 4.7%), and one or two
    right-hand sides; half the time b = A x for some x, so that solvable
    and unsolvable systems both occur.  Denser integer systems of this
    size meet the unbounded growth of U and V over Z (ROADMAP item 1)."""
    ring = draw(st.sampled_from(CARRY_RINGS))
    rows, cols, k = draw(st.integers(0, 40)), draw(st.integers(0, 40)), draw(st.integers(1, 2))
    density = draw(st.sampled_from((0.02, 0.04, 0.06)))
    # entries from a seeded generator, so that the density is the one drawn
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    values = (-2, -1, 1, 2) if ring.modulus is None else range(1, ring.modulus)
    A = Matrix(ring, rows, cols, [[rng.choice(values) if rng.random() < density else 0
                                   for _ in range(cols)] for _ in range(rows)])
    if draw(st.booleans()):
        b = A * Matrix(ring, cols, k, [[rng.randint(-2, 2) for _ in range(k)] for _ in range(cols)])
    else:
        b = Matrix(ring, rows, k, [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rows)])
    return A, b


@settings(max_examples=100)
@given(_sparse_systems())
def test_carried_elimination_matches_the_full_form(system):
    # carrying b in place of the identity gives U b and the same V and
    # pivots, so the same solution; carrying no columns, the same kernel
    A, b = system
    form = snf(A)
    carried = eliminate(A, b)
    assert carried.U == form.U * b
    assert (carried.vcols, carried.pivot_row) == (form.vcols, form.pivot_row)
    x = carried.read(carried.U)
    assert x == form.solve(b)
    assert x is None or A * x == b
    assert eliminate(A, Matrix.zero(A.ring, A.rows, 0)).kernel() == kernel_basis(A)


SPARSE_RINGS = [IntegersModN(n) for n in (4, 8, 9, 12, 36, 1)] + [PrimeField(3)]


@st.composite
def _sparse_modular_systems(draw, ring):
    """(A, carry) over ``ring``: A up to 60 x 60 with 2-8% of its entries
    nonzero, or a tall A up to 120 x 30 with zero rows and rows that
    repeat a multiple of an earlier row; the carry is the identity, a
    right-hand side b (half the time b = A x, so solvable), or a matrix
    with no columns."""
    n = ring.modulus
    tall = draw(st.booleans())
    rows = draw(st.integers(0, 120 if tall else 60))
    cols = draw(st.integers(0, 30 if tall else 60))
    density = draw(st.sampled_from((0.02, 0.04, 0.06, 0.08)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    entries = []
    for _ in range(rows):
        kind = rng.random()
        if tall and kind < 0.3:
            entries.append([0] * cols)
        elif tall and kind < 0.5 and entries:
            f = rng.randrange(max(n, 2))
            entries.append([f * x for x in rng.choice(entries)])
        else:
            entries.append([rng.randrange(1, max(n, 2)) if rng.random() < density else 0
                            for _ in range(cols)])
    A = Matrix(ring, rows, cols, entries)
    carry = draw(st.sampled_from(("identity", "b", "none")))
    if carry == "identity":
        C = Matrix.identity(ring, rows)
    elif carry == "none":
        C = Matrix.zero(ring, rows, 0)
    elif draw(st.booleans()):
        C = A * Matrix(ring, cols, 1, [[rng.randrange(max(n, 2))] for _ in range(cols)])
    else:
        C = Matrix(ring, rows, 1, [[rng.randrange(max(n, 2))] for _ in range(rows)])
    return A, C


def sparse_rows(A):
    """The nonzero entries of A's rows, as the solver hands them over."""
    return [{j: x for j, x in enumerate(r) if x} for r in A.entries]


@pytest.mark.parametrize("ring", SPARSE_RINGS, ids=str)
@settings(max_examples=20)
@given(data=st.data())
def test_sparse_elimination_matches_dense_reference(ring, data):
    # U C, the pivots and V of the sparse elimination are those of the
    # dense elimination, on solver-shaped systems and every carry
    A, C = data.draw(_sparse_modular_systems(ring))
    n = A.ring.modulus
    U, D, V = dense_snf_modular(A)
    e = eliminate_modular(A.ring, sparse_rows(A), A.cols, C)
    assert e.UC == (U * C).entries
    assert e.pivot_row == tuple(D.entries[t][t] or n for t in range(min(A.rows, A.cols)))
    assert e.vcols() == tuple(zip(*V.entries)) if A.cols else e.vcols() == ()


@pytest.mark.parametrize("ring", SPARSE_RINGS, ids=str)
@settings(max_examples=20)
@given(data=st.data())
def test_back_substitution_matches_the_reading_rule(ring, data):
    # the solution read by back-substitution is SmithForm.read of the
    # carried form, None where b has no solution, and the kernel vectors
    # are kernel_columns() of the full form, in the same order
    A, C = data.draw(_sparse_modular_systems(ring))
    nothing = Matrix.zero(ring, A.rows, 0)
    kernel = eliminate_modular(ring, sparse_rows(A), A.cols, nothing).kernel_columns()
    assert kernel == eliminate(A, nothing).kernel_columns() == snf(A).kernel_columns()
    for b in [C.submatrix(range(C.rows), [j]) for j in range(C.cols)][:3]:
        form = eliminate(A, b)
        want = form.read(form.U)
        got = eliminate_modular(ring, sparse_rows(A), A.cols, b).read()
        assert got == (None if want is None else want.col(0))
        assert got is None or A * Matrix(ring, A.cols, 1, [[x] for x in got]) == b


@pytest.mark.parametrize("ring", [IntegersModN(4), IntegersModN(8), IntegersModN(12),
                                  IntegersModN(36), PrimeField(3)], ids=str)
def test_back_substitution_reads_non_unit_pivots_and_unsolvable_systems(ring):
    # pivots 2, 4, 3, 6, ... and right-hand sides they do not divide,
    # every column combination of a few small diagonal-ish systems
    n = ring.modulus
    rng = random.Random(f"back-substitution-{ring}")
    for _ in range(150):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        A = Matrix(ring, r, c, [[rng.choice((0, 0, 2, 3, 4, 6, 1)) % n for _ in range(c)]
                                for _ in range(r)])
        b = Matrix(ring, r, 1, [[rng.randrange(n)] for _ in range(r)])
        form = eliminate(A, b)
        want = form.read(form.U)
        got = eliminate_modular(ring, sparse_rows(A), c, b).read()
        assert got == (None if want is None else want.col(0))
        nothing = Matrix.zero(ring, r, 0)
        assert (eliminate_modular(ring, sparse_rows(A), c, nothing).kernel_columns()
                == snf(A).kernel_columns())
