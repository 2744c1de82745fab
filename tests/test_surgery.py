"""Surgery presentations, homology and the torsion linking form."""

import random
from fractions import Fraction
from operator import mul

import pytest

from combings.errors import CapExceededError, DimensionMismatchError, NonTorsionError
from combings.linalg import IntMatrix
from combings.surgery import (
    EMPTY_PRESENTATION,
    SurgeryPresentation,
    classes_equal,
    homology_summary,
    is_torsion_class,
    linking_form,
    meridian_pairing,
    reduce_class,
    torsion_columns,
)
from combings.verify import (
    random_presentation,
    random_symmetric,
    random_unimodular,
    saturation_basis,
)

from _oracles import f2_rank, frac_solve, naive_det, product, torsion_pairs, transpose


def pres(rows):
    return SurgeryPresentation.from_rows(rows)


class TestPresentation:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            pres([[1, 2]])

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            pres([[1, 2], [3, 4]])

    def test_empty_presents_s3(self):
        assert EMPTY_PRESENTATION.n == 0


class TestHomology:
    def test_s3(self):
        summary = homology_summary(EMPTY_PRESENTATION)
        assert summary.invariant_factors == ()
        assert summary.betti_1 == 0
        assert summary.dim_h1_mod2 == 0
        assert summary.torsion_order == 1

    def test_rp3(self):
        summary = homology_summary(pres([[2]]))
        assert summary.invariant_factors == (2,)
        assert summary.betti_1 == 0
        assert summary.dim_h1_mod2 == 1
        assert summary.torsion_order == 2

    def test_s1_times_s2(self):
        summary = homology_summary(pres([[0]]))
        assert summary.invariant_factors == ()
        assert summary.betti_1 == 1
        assert summary.dim_h1_mod2 == 1
        assert summary.kernel_basis == ((1,),)

    def test_lens_space_three(self):
        # SNF of [[2,1],[1,2]] is diag(1,3); 3 is odd so the F_2 rank is 2
        summary = homology_summary(pres([[2, 1], [1, 2]]))
        assert summary.invariant_factors == (3,)
        assert summary.betti_1 == 0
        assert summary.dim_h1_mod2 == 0
        assert summary.torsion_order == 3

    def test_invariant_relations(self):
        rng = random.Random(11)
        for _ in range(60):
            p = random_presentation(rng, max_n=5, bound=5)
            summary = homology_summary(p)
            order = 1
            for d in summary.invariant_factors:
                order *= d
            assert summary.torsion_order == order
            assert summary.betti_1 == len(summary.kernel_basis)
            assert summary.dim_h1_mod2 == p.n - f2_rank(p.matrix.to_rows())


class TestMeridianPairing:
    def test_rp3_generator(self):
        assert meridian_pairing(pres([[2]]), (1,), (1,)) == Fraction(-1, 2)

    def test_non_torsion(self):
        with pytest.raises(NonTorsionError):
            meridian_pairing(pres([[0]]), (1,), (1,))

    def test_linear_in_first_argument(self):
        assert meridian_pairing(pres([[2]]), (2,), (1,)) == Fraction(-1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            meridian_pairing(pres([[2]]), (1, 2), (1,))

    def test_symmetry_and_bilinearity(self):
        rng = random.Random(5)
        for _ in range(80):
            p = random_presentation(rng, max_n=4, bound=4)
            sat = saturation_basis(p)

            def torsion_vec():
                v = [0] * p.n
                for basis_vector in sat:
                    a = rng.randint(-2, 2)
                    for i, x in enumerate(basis_vector):
                        v[i] += a * x
                return tuple(v)

            v, w, u = torsion_vec(), torsion_vec(), torsion_vec()
            assert meridian_pairing(p, v, w) == meridian_pairing(p, w, v)
            vu = tuple(a + b for a, b in zip(v, u))
            assert meridian_pairing(p, vu, w) == meridian_pairing(
                p, v, w
            ) + meridian_pairing(p, u, w)


class TestLinkingForm:
    def test_quarter(self):
        got = linking_form(pres([[4]]), (1,))
        assert type(got) is Fraction and got == Fraction(3, 4)

    def test_zero_class(self):
        assert linking_form(pres([[2]]), (2,)) == 0

    def test_two_thirds(self):
        assert linking_form(pres([[3]]), (2,)) == Fraction(2, 3)

    def test_non_integer_entry(self):
        for v in ((1.0,), (Fraction(1),), ("1",)):
            with pytest.raises(ValueError, match="^class vector entries must be integers$"):
                linking_form(pres([[2]]), v)

    def test_representative_independence(self):
        rng = random.Random(23)
        for _ in range(80):
            p = random_presentation(rng, max_n=4, bound=4)
            sat = saturation_basis(p)
            v = [0] * p.n
            for basis_vector in sat:
                a = rng.randint(-2, 2)
                for i, x in enumerate(basis_vector):
                    v[i] += a * x
            v = tuple(v)
            u = [rng.randint(-3, 3) for _ in range(p.n)]
            shifted = tuple(a + b for a, b in zip(v, p.matrix.matvec(u)))
            assert linking_form(p, shifted) == linking_form(p, v)
            assert linking_form(p, tuple(-a for a in v)) == linking_form(p, v)
        assert linking_form(EMPTY_PRESENTATION, ()) == 0


def _linking_cases(seed, count):
    """(rng, presentation, torsion v, -v^T x mod 1 for a Fraction solution
    x of B x = v) on seeded B with n in 1..5, one rng per case.  Every
    other B is P^T (D + 0_k) P with k >= 1 zeros (and a nonzero D from
    n = 2 on), hence singular, and
    v = P^T (e + 0_k) is torsion; the others are random, with a random v
    kept once it is torsion."""
    out = []
    for case in range(count):
        rng = random.Random(f"{seed}:{case}")
        x = None
        while x is None:
            n = rng.randint(1, 5)
            if case % 2:
                k = rng.randint(1, max(1, n - 1))
                d = [rng.choice((-6, -4, -3, -2, 2, 3, 5)) for _ in range(n - k)] + [0] * k
                p = random_unimodular(rng, n, steps=3 * n)
                diagonal = IntMatrix(n, n, [d[i] if i == j else 0 for i in range(n) for j in range(n)])
                b = product(transpose(p), diagonal, p)
                v = transpose(p).matvec([rng.randint(-4, 4) if x else 0 for x in d])
            else:
                b = random_symmetric(rng, n, 4)
                v = tuple(rng.randint(-4, 4) for _ in range(n))
            x = frac_solve(b.to_rows(), v)[0]
        out.append((rng, SurgeryPresentation(b), v, -sum(map(mul, v, x)) % 1))
    return out


LINKING_CASES = _linking_cases(61, 40)


def test_linking_cases_include_singular_b():
    singular = sum(naive_det(p.matrix.to_rows()) == 0 for _, p, _, _ in LINKING_CASES)
    assert singular >= len(LINKING_CASES) // 2
    assert sum(lk != 0 for *_, lk in LINKING_CASES) >= len(LINKING_CASES) // 2
    small = [p for _, p, _, _ in LINKING_CASES if homology_summary(p).torsion_order <= 400]
    assert len(small) >= len(LINKING_CASES) // 2


@pytest.mark.parametrize("index", range(len(LINKING_CASES)))
class TestLinkingFormValue:
    """`linking_form` returns the self-linking in Q/Z as a `Fraction` in
    [0, 1), checked against a Fraction solution of B x = v."""

    def test_fraction_in_unit_interval(self, index):
        _, p, v, want = LINKING_CASES[index]
        got = linking_form(p, v)
        assert type(got) is Fraction and 0 <= got < 1
        assert got == want == meridian_pairing(p, v, v) % 1

    def test_representative_independence(self, index):
        rng, p, v, want = LINKING_CASES[index]
        u = [rng.randint(-3, 3) for _ in range(p.n)]
        assert linking_form(p, [a + b for a, b in zip(v, p.matrix.matvec(u))]) == want

    def test_unimodular_change_of_basis(self, index):
        rng, p, v, want = LINKING_CASES[index]
        q = random_unimodular(rng, p.n)
        moved = SurgeryPresentation(product(transpose(q), p.matrix, q))
        assert linking_form(moved, transpose(q).matvec(v)) == want

    def test_residues_of_the_enumeration(self, index):
        _, p, _, _ = LINKING_CASES[index]
        if homology_summary(p).torsion_order <= 400:
            L, entries = torsion_pairs(p)
            assert all(linking_form(p, rep) == Fraction(r, L) for rep, r in entries)


class TestEnumerateTorsion:
    """`torsion_columns`: one representative per torsion class with the
    residue r of its linking form r / L mod 1, read as pairs."""

    def test_three_classes(self):
        L, got = torsion_pairs(pres([[3]]), 10)
        values = sorted(Fraction(r, L) for _, r in got)
        assert values == [Fraction(0), Fraction(2, 3), Fraction(2, 3)]

    def test_two_classes(self):
        L, got = torsion_pairs(pres([[2]]), 10)
        assert sorted(Fraction(r, L) for _, r in got) == [Fraction(0), Fraction(1, 2)]

    def test_trivial_group(self):
        assert torsion_columns(EMPTY_PRESENTATION, 10) == (1, [], [0])
        assert torsion_pairs(EMPTY_PRESENTATION, 10) == (1, (((), 0),))

    def test_cap(self):
        with pytest.raises(CapExceededError) as err:
            torsion_columns(pres([[5]]), 4)
        assert err.value.torsion_order == 5

    def test_negative_cap_is_refused(self):
        with pytest.raises(ValueError):
            torsion_columns(pres([[5]]), -1)

    def test_count_matches_determinant(self):
        rng = random.Random(7)
        checked = 0
        while checked < 25:
            p = random_presentation(rng, max_n=3, bound=3)
            d = naive_det(p.matrix.to_rows())
            if d == 0 or abs(d) > 60:
                continue
            L, got = torsion_pairs(p, cap=100)
            assert len(got) == abs(d)
            # distinct classes: canonical representatives must not repeat
            reps = {reduce_class(p, rep) for rep, _ in got}
            assert len(reps) == abs(d)
            # each residue is the value of the pairing G on its class
            assert all(0 <= r < L for _, r in got)
            assert all(linking_form(p, rep) == Fraction(r, L) for rep, r in got)
            checked += 1

    def test_brute_force_class_sweep(self):
        # independent oracle: in Z^n / im(B) with |det B| = D, vectors with
        # coordinates in [0, D) hit every class
        for rows in ([[3]], [[4]], [[2, 1], [1, 2]], [[4, 1], [1, 4]]):
            p = pres(rows)
            d = abs(naive_det(rows))
            box = set()
            if p.n == 1:
                candidates = [(i,) for i in range(d)]
            else:
                candidates = [(i, j) for i in range(d) for j in range(d)]
            for v in candidates:
                box.add(reduce_class(p, v))
            assert len(box) == d
            enumerated = {rep for rep, _ in torsion_pairs(p, cap=100)[1]}
            assert enumerated == box


class TestClassArithmetic:
    def test_reduce_and_equal(self):
        p = pres([[2]])
        assert reduce_class(p, (5,)) == reduce_class(p, (1,))
        assert classes_equal(p, (5,), (1,))
        assert not classes_equal(p, (0,), (1,))

    def test_free_part_kept(self):
        p = pres([[0]])
        assert not classes_equal(p, (0,), (1,))
        assert classes_equal(p, (1,), (1,))

    def test_is_torsion(self):
        assert is_torsion_class(pres([[2]]), (1,))
        assert not is_torsion_class(pres([[0]]), (1,))
        assert is_torsion_class(pres([[0]]), (0,))
