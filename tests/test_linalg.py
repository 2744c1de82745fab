"""Exact linear algebra: frozen examples plus algebraic property suites."""

import hashlib
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combings.linalg import (
    IntMatrix,
    analysis,
    signature,
    smith_normal_form,
    solve_mod2,
)
from combings.verify import random_unimodular

from _oracles import (
    echelon,
    eig_sign_counts,
    f2_rank,
    frac_rank,
    frac_solve,
    naive_det,
    smith_kernel,
    solve_integer,
)

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

    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (1, 1), (4, 4), (2, 5),
                                            (5, 2), (3, 4), (4, 3)])
    def test_diagonal_is_the_entries_i_i(self, rows, cols):
        """The slice of the entries reads (i, i) for i < min(rows, cols), on
        square, wide and tall matrices."""
        a = IntMatrix(rows, cols, range(rows * cols))
        assert a.diagonal() == tuple(a.at(i, i) for i in range(min(rows, cols)))

    def test_size_mismatch(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="^vector length must equal column count$"):
            a.matvec((1, 2, 3))
        with pytest.raises(ValueError, match="^inner dimensions must agree$"):
            a @ IntMatrix.from_rows([[1, 2]])


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

    def test_transforms_are_pinned(self):
        """U, D and V are reproducible, as the docstring promises and the
        oracles built on them need: a digest of all three over 500 seeded
        matrices (0-7 rows and columns, entries -9..9) pins the order of the
        row and column operations, not just D."""
        rng = random.Random(7301)
        digest = hashlib.sha256()
        for _ in range(500):
            r, c = rng.randint(0, 7), rng.randint(0, 7)
            rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            snf = smith_normal_form(IntMatrix.from_rows(rows) if r else IntMatrix(0, c, ()))
            for m in (snf.U, snf.D, snf.V):
                digest.update(repr((m.rows, m.cols, m.entries)).encode())
        assert digest.hexdigest() == (
            "b52a161f806cd5cbf536c17b988e23456e80299f1da1eb9780b8c621e61f8cb8"
        )

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
        # D_ii != 0 exactly for i < rank
        assert len(nonzero) == snf.rank and not any(diag[snf.rank :])
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


def _form_solution(a, b):
    """x = G b / L for symmetric A, or None when b is not in the column
    space of A (the torsion test)."""
    data = analysis(a)
    if not data.is_torsion(b):
        return None
    form = data.form
    return tuple(Fraction(sum(map(mul, row, b)), form.L) for row in form.G)


class TestSolveRational:
    """The library's rational solve, G b / L on symmetric A, against the
    Fraction solve of `_oracles`."""

    def test_scalar(self):
        assert _form_solution(IntMatrix.from_rows([[2]]), [1]) == (Fraction(1, 2),)
        assert frac_solve([[2]], [1]) == ([Fraction(1, 2)], [])

    def test_absent(self):
        assert _form_solution(IntMatrix.from_rows([[0]]), [1]) is None
        assert frac_solve([[0]], [1])[0] is None

    def test_two_by_two(self):
        # oracle: Gaussian elimination by hand
        a = IntMatrix.from_rows([[2, 1], [1, 2]])
        assert _form_solution(a, [1, 1]) == (Fraction(1, 3), Fraction(1, 3))
        assert analysis(a)._pass.kernel == ()
        assert frac_solve(a.to_rows(), [1, 1]) == ([Fraction(1, 3), Fraction(1, 3)], [])

    @given(symmetric_matrices(max_dim=4), st.integers(0, 10**6))
    @settings(deadline=None)
    def test_solve_properties(self, a, seed):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            x0 = [rng.randint(-4, 4) for _ in range(a.cols)]
            b = list(a.matvec(x0))
        else:
            b = [rng.randint(-5, 5) for _ in range(a.rows)]
        x = _form_solution(a, b)
        if x is not None:
            assert list(a.matvec(x)) == b
        solution, kernel = frac_solve(a.to_rows(), b)
        if solution is not None:
            assert list(a.matvec(solution)) == b
        for z in kernel + list(analysis(a)._pass.kernel):
            assert not any(a.matvec(z))
        # presence agrees with the rank comparison of [A] and [A|b]
        rank_a = frac_rank(a.to_rows())
        rank_aug = frac_rank([list(a.row(i)) + [b[i]] for i in range(a.rows)])
        assert (x is not None) == (solution is not None) == (rank_a == rank_aug)
        # kernel dimension complements the rank
        assert len(kernel) == len(analysis(a)._pass.kernel) == a.cols - rank_a


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
        assert signature(s).n_zero == len(smith_kernel(s))


def _kernel_basis(a):
    """The kernel basis that `homology` prints for a symmetric matrix."""
    return analysis(a).homology.kernel_basis


class TestKernelBasis:
    def test_zero_scalar(self):
        assert _kernel_basis(IntMatrix.from_rows([[0]])) == ((1,),)

    def test_nonsingular(self):
        assert _kernel_basis(IntMatrix.from_rows([[2]])) == ()

    def test_rank_one(self):
        assert _kernel_basis(IntMatrix.from_rows([[1, 1], [1, 1]])) == ((1, -1),)

    @given(symmetric_matrices())
    @settings(deadline=None)
    def test_kernel_vectors_annihilate(self, a):
        basis = _kernel_basis(a)
        for z in basis:
            assert all(x == 0 for x in a.matvec(z))
        assert len(basis) == a.cols - frac_rank(a.to_rows())

    @given(symmetric_matrices(max_dim=4))
    @settings(deadline=None)
    def test_kernel_is_saturated(self, a):
        # the basis spans ker A cap Z^n: it is the echelon basis of the
        # kernel columns of the Smith V, a unimodular matrix
        assert _kernel_basis(a) == echelon(smith_kernel(a))


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
        x, rank = solve_mod2(a, [1, 0])
        assert x is not None and rank == 2
        got = a.matvec(x)
        assert [v % 2 for v in got] == [1, 0]

    def test_solve_mod2_unsolvable(self):
        a = IntMatrix.from_rows([[2, 1], [4, 2]])  # rank 1 over F_2
        assert solve_mod2(a, [1, 0]) == ((0, 1), 1)
        assert solve_mod2(a, [1, 1]) == (None, 1)

    def test_solve_mod2_short_right_hand_side(self):
        with pytest.raises(ValueError, match="^right-hand side length must equal row count$"):
            solve_mod2(IntMatrix.from_rows([[1, 0], [0, 1]]), [1])

    @given(symmetric_matrices())
    @settings(deadline=None)
    def test_diagonal_always_solvable(self, s):
        # the diagonal of a symmetric matrix lies in its F_2 column space
        diag = [s.at(i, i) for i in range(s.rows)]
        x, rank = solve_mod2(s, diag)
        assert x is not None and rank == f2_rank(s.to_rows())

