"""Matrix operations against the public constructor and naive formulas.

Operations whose entries are reduced by construction skip the public
constructor's normalization; each result here must equal, and hash like,
the same entries rebuilt through ``Matrix(...)``.
"""

import random
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finhom import Integers, IntegersModN, Matrix, PrimeField
from finhom.errors import DimensionMismatchError
from helpers import unvec
from oracles import dense_product_oracle

RINGS = [Integers(), IntegersModN(4), IntegersModN(12), PrimeField(3)]
SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (3, 3)]


def rand_matrix(rng, ring, rows, cols):
    return Matrix(ring, rows, cols,
                  [[rng.randint(-7, 7) for _ in range(cols)] for _ in range(rows)])


def naive(ring, rows, cols, f):
    return Matrix(ring, rows, cols, [[f(i, j) for j in range(cols)] for i in range(rows)])


def rebuilt(M):
    """M's result must be what the public constructor makes of its entries."""
    R = Matrix(M.ring, M.rows, M.cols, M.entries)
    assert M == R and R == M
    assert hash(M) == hash(R)
    return M


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_operations_match_public_constructor(ring):
    rng = random.Random(f"matrix-{ring}")
    for r, c in SHAPES:
        A = rand_matrix(rng, ring, r, c)
        B = rand_matrix(rng, ring, r, c)
        k = rng.randint(0, 3)
        C = rand_matrix(rng, ring, c, k)
        D = rand_matrix(rng, ring, k, 2)

        Z = rebuilt(Matrix.zero(ring, r, c))
        assert Z == naive(ring, r, c, lambda i, j: 0)
        rebuilt(Matrix.identity(ring, r))
        assert Matrix.identity(ring, r) == naive(ring, r, r, lambda i, j: int(i == j))
        assert rebuilt(Matrix.identity(ring, c, above=r, below=k)) == Matrix.zero(
            ring, r, c).vstack(Matrix.identity(ring, c)).vstack(Matrix.zero(ring, k, c))

        T = rebuilt(A.transpose())
        assert (T.rows, T.cols) == (c, r)
        assert T == naive(ring, c, r, lambda i, j: A[j, i])
        assert T.transpose() == A

        rows = [i for i in range(r) if rng.random() < 0.6]
        cols = [j for j in range(c) if rng.random() < 0.6][::-1]
        assert rebuilt(A.submatrix(rows, cols)) == naive(
            ring, len(rows), len(cols), lambda i, j: A[rows[i], cols[j]])

        assert rebuilt(A + B) == naive(ring, r, c, lambda i, j: A[i, j] + B[i, j])
        assert rebuilt(A - B) == naive(ring, r, c, lambda i, j: A[i, j] - B[i, j])
        assert rebuilt(A + Z) == A
        for s in (-1, 0, 2, 5):
            assert rebuilt(A.scale(s)) == naive(ring, r, c, lambda i, j: s * A[i, j])
        assert rebuilt(-A) == A.scale(-1)

        assert rebuilt(A * C) == naive(
            ring, r, k, lambda i, j: sum(A[i, t] * C[t, j] for t in range(c)))
        assert (A * C) * D == A * (C * D)

        E = rand_matrix(rng, ring, r, k)
        F = rand_matrix(rng, ring, k, c)
        H = rebuilt(A.hstack(E))
        assert H == naive(ring, r, c + k, lambda i, j: A[i, j] if j < c else E[i, j - c])
        V = rebuilt(A.vstack(F))
        assert V == naive(ring, r + k, c, lambda i, j: A[i, j] if i < r else F[i - r, j])

        # an empty operand or a whole-range slice gives back the operand
        # itself; with both operands empty, the left one
        no_cols, no_rows = Matrix.zero(ring, r, 0), Matrix.zero(ring, 0, c)
        assert rebuilt(A.hstack(no_cols)) is A
        assert rebuilt(no_cols.hstack(A)) is (A if c else no_cols)
        assert rebuilt(A.vstack(no_rows)) is A
        assert rebuilt(no_rows.vstack(A)) is (A if r else no_rows)
        assert rebuilt(A.submatrix(range(r), range(c))) is A

        blocks = [rand_matrix(rng, ring, r, rng.randint(0, 2)) for _ in range(rng.randint(0, 4))]
        S = rebuilt(Matrix.hstack_all(ring, r, blocks))
        assert S == reduce(Matrix.hstack, blocks, Matrix.zero(ring, r, 0))

        G = rand_matrix(rng, ring, k, rng.randint(0, 2))
        BD = rebuilt(Matrix.block_diagonal(ring, [A, G]))
        assert BD == rebuilt(A.hstack(Matrix.zero(ring, r, G.cols)).vstack(
            Matrix.zero(ring, k, c).hstack(G)))
        assert rebuilt(Matrix.block_diagonal(ring, [])) == Matrix.zero(ring, 0, 0)

        K = rebuilt(A.kronecker(G))
        assert K == naive(ring, r * G.rows, c * G.cols,
                          lambda i, j: A[i // G.rows, j // G.cols] * G[i % G.rows, j % G.cols])

        assert rebuilt(unvec(ring, r, c, A.vec())) == A


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_public_constructor_reduces_and_copies(ring):
    n = ring.modulus
    M = Matrix(ring, 1, 3, [[-1, 13, 2]])
    assert M.entries == ((-1, 13, 2) if n is None else (-1 % n, 13 % n, 2 % n),)
    rows = [[1, 2]]
    M = Matrix(ring, 1, 2, rows)
    rows[0][0] = 5
    assert M[0, 0] == 1


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_ragged_entries_raise(ring):
    for make in (Matrix, Matrix._reduced):
        with pytest.raises(DimensionMismatchError):
            make(ring, 2, 2, ((1, 2), (3,)))
        with pytest.raises(DimensionMismatchError):
            make(ring, 2, 2, ((1, 2),))
        with pytest.raises(DimensionMismatchError):
            make(ring, 0, 2, ((),))
        with pytest.raises(DimensionMismatchError):
            make(ring, 1, 0, ((1,),))
    A = Matrix.zero(ring, 2, 1)
    with pytest.raises(DimensionMismatchError):
        Matrix.hstack_all(ring, 2, [A, Matrix.zero(ring, 3, 1)])
    with pytest.raises(DimensionMismatchError):
        Matrix.hstack_all(ring, 2, [A, Matrix.zero(IntegersModN(5), 2, 1)])
    with pytest.raises(DimensionMismatchError):
        Matrix.block_diagonal(ring, [A, Matrix.zero(IntegersModN(5), 1, 1)])
    # an empty operand is checked before it is skipped
    other = IntegersModN(5)
    for empty in (Matrix.zero(ring, 3, 0), Matrix.zero(other, 2, 0)):
        with pytest.raises(DimensionMismatchError):
            A.hstack(empty)
        with pytest.raises(DimensionMismatchError):
            empty.hstack(A)
    for empty in (Matrix.zero(ring, 0, 2), Matrix.zero(other, 0, 1)):
        with pytest.raises(DimensionMismatchError):
            A.vstack(empty)
        with pytest.raises(DimensionMismatchError):
            empty.vstack(A)


def test_hash_is_cached_and_matches_value():
    ring = IntegersModN(4)
    A = Matrix(ring, 2, 2, [[1, 2], [3, 5]])
    assert hash(A) == hash((ring, 2, 2, ((1, 2), (3, 1))))
    assert hash(A) == hash(A.transpose().transpose())
    assert A == A and not (A == A.scale(2))
    with pytest.raises(AttributeError):
        A.rows = 3


@st.composite
def _operand(draw, ring, rows, cols):
    """A rows x cols matrix: random entries (over Z in [-3, 3], some of
    60 bits), zero, one-hot rows, or an identity where square."""
    kind = draw(st.sampled_from(["random", "zero", "one-hot", "identity"]))
    if kind == "zero":
        return Matrix.zero(ring, rows, cols)
    if kind == "identity" and rows == cols:
        return Matrix.identity(ring, rows)
    if kind == "one-hot":
        hot = [draw(st.integers(-1, cols - 1)) for _ in range(rows)]
        return Matrix(ring, rows, cols, [[int(j == h) for j in range(cols)] for h in hot])
    entry = st.integers(-3, 3)
    if ring.modulus is None:
        entry = st.one_of(entry, st.integers(-(1 << 60), 1 << 60))
    return Matrix(ring, rows, cols, [[draw(entry) for _ in range(cols)] for _ in range(rows)])


@st.composite
def _product_operands(draw):
    ring = draw(st.sampled_from(RINGS))
    r, k, c = (draw(st.integers(0, 6)) for _ in range(3))
    return draw(_operand(ring, r, k)), draw(_operand(ring, k, c))


@given(_product_operands())
def test_row_sparse_product_matches_the_dense_oracle(operands):
    A, B = operands
    P = rebuilt(A * B)
    assert P == dense_product_oracle(A, B)
    assert (P.rows, P.cols) == (A.rows, B.cols)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_trusted_record_invariants(ring):
    # the trusted constructor still checks the shape of ragged rows
    with pytest.raises(DimensionMismatchError):
        Matrix._reduced(ring, 3, 2, ((1, 0), (0, 1), (1,)))
    # records stay immutable, whichever slot is assigned
    A = Matrix(ring, 3, 4, [[1, 2, 3, 4], [5, 6, 7, 8], [0, 1, 0, 1]])
    for name in ("ring", "rows", "cols", "entries", "_hash"):
        with pytest.raises(AttributeError):
            setattr(A, name, None)
    assert A == Matrix(ring, 3, 4, [[1, 2, 3, 4], [5, 6, 7, 8], [0, 1, 0, 1]])
    # submatrix picks 0, 1 and many columns, in the order given
    for rows, cols in (([0, 2], []), ([], [1]), ([2, 0], [3]), ([1], [3, 0, 3]),
                       (range(3), range(4)), ([0, 1, 2], [2, 1])):
        S = rebuilt(A.submatrix(rows, cols))
        assert S == naive(ring, len(rows), len(cols), lambda i, j: A[rows[i], cols[j]])
