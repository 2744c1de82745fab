"""Exact linear algebra: frozen examples plus algebraic property suites."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combings.linalg import (
    IntMatrix,
    kernel_basis,
    signature,
    smith_normal_form,
    solve_mod2,
    solve_rational,
)
from combings.verify import random_unimodular

from _oracles import eig_sign_counts, frac_rank, naive_det, solve_integer

entries = st.integers(min_value=-9, max_value=9)


@st.composite
def int_matrices(draw, max_dim=5):
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    return IntMatrix.from_rows([[draw(entries) for _ in range(c)] for _ in range(r)])


@st.composite
def symmetric_matrices(draw, max_dim=5):
    n = draw(st.integers(0, max_dim))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entries)
    return IntMatrix.from_rows(m)


class TestIntMatrix:
    def test_entry_count_invariant(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            IntMatrix(1, 1, (0.5,))

    def test_ragged_rows(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_empty(self):
        m = IntMatrix.from_rows([])
        assert (m.rows, m.cols) == (0, 0)

    def test_matmul_direct_sum(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert (a @ IntMatrix.from_rows([[1, 0], [0, 1]])) == a
        s = a.direct_sum(IntMatrix.from_rows([[-1]]))
        assert s.to_rows() == [[1, 2, 0], [3, 4, 0], [0, 0, -1]]


class TestSmithNormalForm:
    def test_already_diagonal(self):
        assert smith_normal_form(IntMatrix.from_rows([[2]])).diag == (2,)

    def test_zero_matrix(self):
        assert smith_normal_form(IntMatrix.from_rows([[0]])).diag == (0,)

    def test_two_by_two(self):
        # oracle: row/column reduction by hand; |det| = 3 is preserved
        a = IntMatrix.from_rows([[2, 1], [1, 2]])
        snf = smith_normal_form(a)
        assert snf.diag == (1, 3)
        assert snf.U @ a @ snf.V == snf.D

    def test_empty(self):
        snf = smith_normal_form(IntMatrix.from_rows([]))
        assert snf.D.rows == 0 and snf.diag == ()

    @given(int_matrices())
    @settings(deadline=None)
    def test_decomposition_properties(self, a):
        snf = smith_normal_form(a)
        assert snf.U @ a @ snf.V == snf.D
        assert abs(naive_det(snf.U.to_rows())) == 1
        assert abs(naive_det(snf.V.to_rows())) == 1
        diag = snf.diag
        assert all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d]
        for i in range(len(nonzero) - 1):
            assert nonzero[i + 1] % nonzero[i] == 0
        # D is diagonal
        for i in range(snf.D.rows):
            for j in range(snf.D.cols):
                if i != j:
                    assert snf.D.at(i, j) == 0

    @given(int_matrices())
    @settings(deadline=None)
    def test_det_product(self, a):
        if a.rows != a.cols:
            return
        d = naive_det(a.to_rows())
        if d == 0:
            return
        product = 1
        for x in smith_normal_form(a).diag:
            product *= x
        assert product == abs(d)

    @given(int_matrices())
    @settings(deadline=None)
    def test_uniqueness_of_d(self, a):
        # D is determined by A alone, not by the reduction path: check
        # against the gcd-of-minors characterization on small cases.
        if a.rows * a.cols > 12:
            return
        diag = smith_normal_form(a).diag
        rank = frac_rank(a.to_rows())
        assert sum(1 for d in diag if d) == rank


class TestSolveRational:
    def test_scalar(self):
        assert solve_rational(IntMatrix.from_rows([[2]]), [1]).solution == (
            Fraction(1, 2),
        )

    def test_absent(self):
        assert solve_rational(IntMatrix.from_rows([[0]]), [1]).solution is None

    def test_two_by_two(self):
        # oracle: Gaussian elimination by hand
        res = solve_rational(IntMatrix.from_rows([[2, 1], [1, 2]]), [1, 1])
        assert res.solution == (Fraction(1, 3), Fraction(1, 3))
        assert res.kernel == ()

    @given(int_matrices(max_dim=4), st.integers(0, 10**6))
    @settings(deadline=None)
    def test_solve_properties(self, a, seed):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            x0 = [rng.randint(-4, 4) for _ in range(a.cols)]
            b = list(a.matvec(x0))
        else:
            b = [rng.randint(-5, 5) for _ in range(a.rows)]
        res = solve_rational(a, b)
        if res.solution is not None:
            for i in range(a.rows):
                assert sum(a.at(i, j) * res.solution[j] for j in range(a.cols)) == b[i]
        for z in res.kernel:
            for i in range(a.rows):
                assert sum(a.at(i, j) * z[j] for j in range(a.cols)) == 0
        # presence agrees with the rank comparison of [A] and [A|b]
        rank_a = frac_rank(a.to_rows())
        rank_aug = frac_rank(
            [list(a.row(i)) + [b[i]] for i in range(a.rows)]
        )
        assert (res.solution is not None) == (rank_a == rank_aug)
        # kernel dimension complements the rank
        assert len(res.kernel) == a.cols - rank_a


class TestSignature:
    def test_positive_unit(self):
        assert signature(IntMatrix.from_rows([[1]])) == (1, 0, 0)

    def test_hyperbolic_plane(self):
        assert signature(IntMatrix.from_rows([[0, 1], [1, 0]])) == (1, 1, 0)

    def test_positive_definite(self):
        # oracle: leading principal minors 2 and 3 are both positive
        assert signature(IntMatrix.from_rows([[2, 1], [1, 2]])) == (2, 0, 0)

    def test_empty(self):
        assert signature(IntMatrix.from_rows([])) == (0, 0, 0)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            signature(IntMatrix.from_rows([[0, 1], [2, 0]]))

    @given(symmetric_matrices())
    @settings(deadline=None)
    def test_against_charpoly_oracle(self, s):
        assert tuple(signature(s)) == eig_sign_counts(s.to_rows())

    @given(symmetric_matrices(), st.integers(0, 10**6))
    @settings(deadline=None)
    def test_congruence_invariance(self, s, seed):
        p = random_unimodular(random.Random(seed), s.rows)
        assert signature(p.transpose() @ s @ p) == signature(s)

    @given(symmetric_matrices())
    @settings(deadline=None)
    def test_zero_count_is_kernel_dimension(self, s):
        assert signature(s).n_zero == len(kernel_basis(s))


class TestKernelBasis:
    def test_zero_scalar(self):
        assert kernel_basis(IntMatrix.from_rows([[0]])) == ((1,),)

    def test_nonsingular(self):
        assert kernel_basis(IntMatrix.from_rows([[2]])) == ()

    def test_rank_one(self):
        assert kernel_basis(IntMatrix.from_rows([[1, 1], [1, 1]])) == ((1, -1),)

    @given(int_matrices())
    @settings(deadline=None)
    def test_kernel_vectors_annihilate(self, a):
        basis = kernel_basis(a)
        for z in basis:
            assert all(x == 0 for x in a.matvec(z))
        assert len(basis) == a.cols - frac_rank(a.to_rows())

    @given(int_matrices(max_dim=4))
    @settings(deadline=None)
    def test_kernel_is_saturated(self, a):
        # an integer kernel vector divided by the gcd of its entries must
        # still be an integer combination: check via a rational solve
        # against the basis matrix
        basis = kernel_basis(a)
        if not basis:
            return
        import math

        for z in basis:
            g = 0
            for x in z:
                g = math.gcd(g, abs(x))
            assert g == 1  # primitive


class TestIntegerSolve:
    def test_solve_integer(self):
        assert solve_integer(IntMatrix.from_rows([[2]]), [4]) == (2,)
        assert solve_integer(IntMatrix.from_rows([[2]]), [3]) is None
        assert solve_integer(IntMatrix.from_rows([[0]]), [0]) == (0,)

    @given(int_matrices(max_dim=4), st.lists(st.integers(-3, 3), max_size=4))
    @settings(deadline=None)
    def test_integer_solution_exact(self, a, x):
        x = (x + [0] * a.cols)[: a.cols]
        b = a.matvec(tuple(x))
        got = solve_integer(a, b)
        assert got is not None
        assert a.matvec(got) == b


class TestMod2:
    def test_solve_mod2(self):
        a = IntMatrix.from_rows([[2, 1], [1, 2]])
        x = solve_mod2(a, [1, 0])
        assert x is not None
        got = a.matvec(x)
        assert [v % 2 for v in got] == [1, 0]

    @given(symmetric_matrices())
    @settings(deadline=None)
    def test_diagonal_always_solvable(self, s):
        # the diagonal of a symmetric matrix lies in its F_2 column space
        diag = [s.at(i, i) for i in range(s.rows)]
        assert solve_mod2(s, diag) is not None

