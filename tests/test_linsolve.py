"""The solver writes its system entry by entry; the Kronecker assembly it
replaced is kept here as the reference."""

import random

import pytest

from finhom import Integers, IntegersModN, Matrix, smith
from finhom.linsolve import MatrixEquationSolver
from finhom.modules import FpModule, ModuleMap
from finhom.smith import eliminate, kernel_basis, solve_linear
from helpers import columns, element_is_zero, unvec

ZZ = Integers()


def kronecker_build(solver):
    """A and b of the solver's system via vec(L U R) = (R^T kron L) vec(U),
    with a missing L or R formed as an identity matrix."""
    ring = solver.ring
    total = solver._total
    rows, rhs_entries = [], []
    for terms, rhs in solver._equations:
        block = [[0] * total for _ in range(rhs.rows * rhs.cols)]
        for coef, left, h, right in terms:
            left_m = left if left is not None else Matrix.identity(ring, h.rows)
            right_m = right if right is not None else Matrix.identity(ring, h.cols)
            kron = right_m.transpose().kronecker(left_m).scale(coef)
            off = h.offset
            for i, ke in enumerate(kron.entries):
                for j, x in enumerate(ke):
                    block[i][off + j] = ring.add(block[i][off + j], x)
        rows.extend(block)
        rhs_entries.extend(rhs.vec())
    return Matrix(ring, len(rows), total, rows), Matrix.column(ring, rhs_entries)


def rand_matrix(rng, ring, rows, cols):
    return Matrix(ring, rows, cols,
                  [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])


def random_solver(rng, ring):
    solver = MatrixEquationSolver(ring)
    handles = [solver.add_unknown_matrix(rng.randint(0, 3), rng.randint(0, 3))
               for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(1, 3)):
        m, p = rng.randint(0, 3), rng.randint(0, 3)
        terms = []
        for _ in range(rng.randint(1, 3)):
            h = rng.choice(handles)
            coef = rng.choice((1, -1, 2))
            left = None if h.rows == m and rng.random() < 0.5 else rand_matrix(rng, ring, m, h.rows)
            right = None if h.cols == p and rng.random() < 0.5 else rand_matrix(rng, ring, h.cols, p)
            terms.append((coef, left, h, right))
        slack = rand_matrix(rng, ring, m, rng.randint(0, 2)) if rng.random() < 0.5 else None
        solver.add_equation(terms, rand_matrix(rng, ring, m, p), mod_relations=slack)
    return solver


@pytest.mark.parametrize("ring", [Integers(), IntegersModN(4)], ids=str)
def test_build_matches_kronecker_assembly(ring):
    rng = random.Random(f"linsolve-{ring}")
    for _ in range(300):
        solver = random_solver(rng, ring)
        A, b, _, total = solver._build()
        A_ref, b_ref = kronecker_build(solver)
        assert A.entries == A_ref.entries and (A.rows, A.cols) == (A_ref.rows, total)
        assert b.entries == b_ref.entries and b.rows == b_ref.rows


@pytest.mark.parametrize("ring", [Integers(), IntegersModN(4)], ids=str)
def test_unknowns_are_read_from_their_solution_slices(ring):
    # solve() is the vector solve_linear finds and solution_basis() the
    # columns of kernel_basis; value(vec, h) of every unknown, slack
    # included, is unvec of its slice of the vector (column-stacked)
    rng = random.Random(f"linsolve-extract-{ring}")
    for _ in range(200):
        solver = random_solver(rng, ring)
        A, b, offs, _ = solver._build()
        x = solve_linear(A, b)
        sol = solver.solve()
        assert (sol is None) == (x is None)
        found = [] if x is None else [(sol, x.col(0))]
        found += zip(solver.solution_basis(), columns(kernel_basis(A)))
        for got, vec in found:
            assert got == vec
            for h, off in zip(solver._unknowns, offs):
                want = unvec(ring, h.rows, h.cols, vec[off: off + h.rows * h.cols])
                assert solver.value(got, h) == want


def test_solve_builds_no_slack_unknown(monkeypatch):
    # h: N -> N with h o id = id, N = Z^2 / (2, 0): the well-definedness
    # and the composite equation each add a slack unknown modulo N's
    # relation.  solve() builds the matrices of its elimination and no
    # more, and reading h builds one Matrix.
    N = FpModule(ZZ, 2, Matrix.from_rows(ZZ, [[2], [0]]))
    solver = MatrixEquationSolver(ZZ)
    h = solver.add_unknown_map(N, N)
    solver.require_composite_equals(h, ModuleMap.identity(N), ModuleMap.identity(N))
    assert len(solver._unknowns) == 3

    built = []
    init, reduced = Matrix.__init__, Matrix._reduced

    def counting_init(self, *args):
        built.append(args[1:3])
        init(self, *args)

    def counting_reduced(*args):
        built.append(args[1:3])
        return reduced(*args)

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    monkeypatch.setattr(Matrix, "_reduced", staticmethod(counting_reduced))
    A, b, _, _ = solver._build()
    form = eliminate(A, b)
    assert form.read(form.U) is not None
    elimination = list(built)
    del built[:]
    vec = solver.solve()
    assert built == elimination
    del built[:]
    found = solver.value(vec, h)
    assert built == [(2, 2)]
    monkeypatch.undo()
    assert ModuleMap(N, N, found).compose(ModuleMap.identity(N)).equals(ModuleMap.identity(N))


@pytest.mark.parametrize("ring", [Integers(), IntegersModN(4)], ids=str)
def test_solver_systems_stay_out_of_the_smith_memo(ring):
    # each solve() and solution_basis() builds a fresh system and reads
    # its Smith form once, so the form is not memoized
    rng = random.Random(f"linsolve-memo-{ring}")
    smith.snf.cache_clear()
    for _ in range(50):
        solver = random_solver(rng, ring)
        solver.solve()
        solver.solution_basis()
        assert smith.snf.cache_info().currsize == 0
    # relation matrices are still memoized: an equal one is a hit
    rows = [[2, 0, 1], [0, 0, 2]]
    assert not element_is_zero(FpModule(ring, 2, Matrix.from_rows(ring, rows)), [1, 0])
    info = smith.snf.cache_info()
    assert info.currsize == 1
    assert not element_is_zero(FpModule(ring, 2, Matrix.from_rows(ring, rows)), [1, 0])
    after = smith.snf.cache_info()
    assert (after.hits, after.misses, after.currsize) == (info.hits + 1, info.misses, 1)
