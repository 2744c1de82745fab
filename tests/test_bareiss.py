"""The symmetric Bareiss pass of `linalg` against independent oracles.

Seeded generators aim at the paths random matrices rarely reach: a hollow
(zero-diagonal) block left after some Bareiss updates, which needs the
e_k -> e_k + e_partner step, and zero rows of the Schur complement.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction
from operator import mul

from combings.linalg import IntMatrix, MatrixAnalysis, _signature, analysis, signature
from combings.verify import random_symmetric

from _oracles import eig_sign_counts, frac_inverse, frac_rank, frac_solve, naive_det


def _hollow(rng, n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.randint(-2, 2)
    return m


def _blocks(rng, n):
    """A random symmetric block, a hollow block and a zero block, congruent by
    a symmetric permutation; the hollow block is reached after Bareiss updates."""
    a, h = rng.randint(0, n), rng.randint(0, n)
    m = [[0] * n for _ in range(n)]
    for i in range(a):
        for j in range(i, a):
            m[i][j] = m[j][i] = rng.randint(-3, 3)
    for i in range(a, min(a + h, n)):
        for j in range(i + 1, min(a + h, n)):
            m[i][j] = m[j][i] = rng.randint(-2, 2)
    perm = list(range(n))
    rng.shuffle(perm)
    return [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def _singular_symmetric(rng, n):
    """X^T D X with X of k < n rows, so rank <= k."""
    k = rng.randint(0, n - 1)
    x = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
    d = [rng.choice([-2, -1, 1, 2]) for _ in range(k)]
    return [[sum(x[t][i] * d[t] * x[t][j] for t in range(k)) for j in range(n)] for i in range(n)]


def test_signature_on_hollow_and_rank_deficient_matrices():
    rng = random.Random(4)
    for t in range(360):
        n = rng.randint(1, 8)
        rows = (_hollow, _blocks, _singular_symmetric)[t % 3](rng, n)
        assert tuple(signature(IntMatrix.from_rows(rows))) == eig_sign_counts(rows), rows


def _families(seed, count):
    """count symmetric B with n in 1..7, hollow, block, rank-deficient and
    random in turn, and the empty B."""
    rng = random.Random(seed)
    out = [[]]
    for t in range(count):
        n = rng.randint(1, 7)
        if t % 4 == 3:
            out.append(random_symmetric(rng, n, 4).to_rows())
        else:
            out.append((_hollow, _blocks, _singular_symmetric)[t % 4](rng, n))
    return out


FAMILIES = _families(5, 400)


def test_det_against_cofactor_expansion():
    """The pass's last pivot is det B, and 0 when a row is split off."""
    for rows in FAMILIES:
        b = IntMatrix.from_rows(rows)
        assert _signature(b).det == naive_det(rows), rows


def test_bordered_pass_against_oracles():
    """`form`, solved through the pass on the columns of I, against the
    Fraction oracles: the signature of the eigenvalue signs, B G B = L B,
    kernel rows that span ker B, and G / L = B^{-1} for nonsingular B."""
    for rows in FAMILIES:
        b = IntMatrix.from_rows(rows)
        n = b.rows
        form, sig = MatrixAnalysis(b).form, signature(b)
        assert sig == eig_sign_counts(rows), rows
        g = IntMatrix.from_rows(form.G)
        assert b @ g @ b == IntMatrix(n, n, tuple(form.L * x for x in b.entries)), rows
        assert len(form.kernel) == sig.n_zero == n - frac_rank(rows)
        assert frac_rank(form.kernel) == len(form.kernel)
        assert all(not any(b.matvec(z)) for z in form.kernel), rows
        inv, _ = frac_inverse(rows)
        if inv is not None:
            assert [[Fraction(x, form.L) for x in row] for row in form.G] == inv


def test_form_solves_fraction_right_hand_sides():
    """x = G c / L solves B x = c for every c in the column space of B,
    Fractions included, and the torsion test agrees with the Fraction
    solve."""
    rng = random.Random(6)
    for t, rows in enumerate(FAMILIES):
        n = len(rows)
        if t % 2 and n:
            x0 = [Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(n)]
            c = [sum(map(mul, row, x0)) for row in rows]
        else:
            c = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]
        data = analysis(IntMatrix.from_rows(rows))
        solution, kernel = frac_solve(rows, c)
        assert data.is_torsion(c) == (solution is not None)
        assert len(kernel) == len(data.form.kernel)
        if solution is not None:
            x = [Fraction(sum(map(mul, row, c)), data.form.L) for row in data.form.G]
            assert [sum(map(mul, row, x)) for row in rows] == c


def _torsion_and_free(rng, rows):
    """An integer c in the column space of B (B a divided by the gcd of its
    entries, so not always in B Z^n) and a random c, torsion only by chance
    when B is singular."""
    n = len(rows)
    ba = [sum(row[j] * x for j, x in enumerate(rng.choices(range(-4, 5), k=n))) for row in rows]
    g = math.gcd(*ba) or 1
    return [x // g for x in ba], [rng.randint(-6, 6) for _ in range(n)]


def test_border_by_vectors_against_form_and_fraction_solve():
    """A fresh entry solves the vectors asked about alone through its pass
    (`MatrixAnalysis.form_on`): the pass gives the signature and det of the
    Fraction oracles, and the form the torsion verdict and v^T B^+ w of the
    form route and of the Fraction solve, for hollow, block, rank-deficient,
    random and empty B."""
    rng = random.Random(7)
    verdicts = set()
    for rows in FAMILIES:
        b = IntMatrix.from_rows(rows)
        inertia = (eig_sign_counts(rows), frac_inverse(rows)[1])
        for v, w in itertools.permutations(_torsion_and_free(rng, rows)):
            fresh, warm = MatrixAnalysis(b), MatrixAnalysis(b)
            solved, (x, y) = fresh.form_on((v, w))
            assert (fresh.signature, fresh._pass.det) == inertia, rows
            form = warm.form
            for vector, coords in ((v, x), (w, y)):
                solution = frac_solve(rows, vector)[0]
                torsion = solution is not None
                verdicts.add((b.rows > 0 and fresh.signature.n_zero > 0, torsion))
                assert solved.is_torsion(coords) == form.is_torsion(vector) == torsion, rows
                assert warm.is_torsion(vector) == torsion
            if solved.is_torsion(x) and solved.is_torsion(y):
                want = sum(map(mul, v, frac_solve(rows, w)[0]), Fraction(0))
                assert Fraction(solved.pair(x, y), solved.L) == want, rows
                assert Fraction(form.pair(v, w), form.L) == want
            one, (z,) = MatrixAnalysis(b).form_on((v,))
            assert one.is_torsion(z) == solved.is_torsion(x)
            if one.is_torsion(z):
                assert Fraction(one.pair(z, z), one.L) == Fraction(form.pair(v, v), form.L)
    assert verdicts == {(False, True), (True, True), (True, False)}


def _pinned_cases():
    """The seeded families and 24 random and 24 rank-deficient B with n in
    8..16, whose entries grow over many pivots."""
    rng = random.Random(8)
    out = list(FAMILIES)
    for _ in range(24):
        n = rng.randint(8, 16)
        out += [random_symmetric(rng, n, 5).to_rows(), _singular_symmetric(rng, n)]
    return out


def test_integer_form_is_pinned():
    """G, L and the kernel rows are reproducible, not just G / L: a digest of
    `form` and of a fresh `form_on` of width 1, 2 and 3 (random vectors,
    torsion or not) over singular and nonsingular B pins the scale, the sign
    and the order of the kernel rows.  The empty B has no vector to pair."""
    rng = random.Random(9)
    digest = hashlib.sha256()
    singular = 0
    for rows in _pinned_cases():
        b = IntMatrix.from_rows(rows)
        forms = [MatrixAnalysis(b).form]
        singular += bool(forms[0].kernel)
        if b.rows:
            for width in (1, 2, 3):
                vectors = [tuple(rng.randint(-6, 6) for _ in range(b.rows)) for _ in range(width)]
                forms.append(MatrixAnalysis(b).form_on(vectors)[0])
        for form in forms:
            digest.update(repr(tuple(form)).encode())
    assert singular >= 200
    assert digest.hexdigest() == (
        "bb74a6914f47d2e3b41a4ae615ad3cf8bd6ef008905d3b5013a40c89bc750325"
    )
