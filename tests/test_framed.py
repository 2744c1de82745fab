"""Framed-link calculus: band sums, Hopf stabilizations, cobordism classes."""

import random
from fractions import Fraction

import pytest

from combings.errors import (
    InvalidInputError,
    MissingClassesError,
    NonTorsionError,
    NotZSphereError,
)
from combings.framed import (
    FramedLinkData,
    add_hopf,
    band_sum,
    cobordism_class,
    framed_cobordant_zsphere,
    pontrjagin_p1,
    total_self_linking,
)
from combings.linalg import analysis
from combings.surgery import SurgeryPresentation, reduce_class
from combings.verify import random_framed


def framed(rows, classes=None, ambient=None):
    return FramedLinkData(rows, classes=classes, ambient=ambient)


class TestConstruction:
    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            framed([[0, 1], [2, 0]])

    def test_classes_need_ambient(self):
        with pytest.raises(ValueError):
            framed([[0]], classes=[(0,)])

    def test_consistency_with_pairing(self):
        pres = SurgeryPresentation.from_rows([[2]])
        # lk of two meridians of RP^3: -1/2 mod Z, so 1/2 is fine, 1/3 isn't
        framed(
            [[0, Fraction(1, 2)], [Fraction(1, 2), 0]],
            classes=[(1,), (1,)],
            ambient=pres,
        )
        with pytest.raises(ValueError):
            framed(
                [[0, Fraction(1, 3)], [Fraction(1, 3), 0]],
                classes=[(1,), (1,)],
                ambient=pres,
            )

    def test_consistency_sign(self):
        # lk of two meridians of L(3, 1) is -1/3 mod Z: 2/3 is fine, 1/3 isn't
        pres = SurgeryPresentation.from_rows([[3]])
        framed([[0, "2/3"], ["2/3", 0]], classes=[(1,), (1,)], ambient=pres)
        with pytest.raises(InvalidInputError, match="^linking of components 0 and 1 is "):
            framed([[0, "1/3"], ["1/3", 0]], classes=[(1,), (1,)], ambient=pres)

    def test_one_component_reads_no_signature(self):
        # a lone component has no pair whose linking its class decides
        pres = SurgeryPresentation.from_rows([[7, 2, 1], [2, -5, 3], [1, 3, 11]])
        framed([[Fraction(1, 3)]], classes=[(1, 0, 2)], ambient=pres)
        assert "_pass" not in analysis(pres.matrix).__dict__

    def test_non_integer_class_entry(self):
        """A class entry is stored as given, never rounded: a non-integer
        one is refused."""
        pres = SurgeryPresentation.from_rows([[2]])
        for classes in ([[1.7]], [[1.0]], [["1"]]):
            with pytest.raises(ValueError, match="^class vector entries must be integers$"):
                framed([[1]], classes=classes, ambient=pres)
        assert framed([[1]], classes=[[1]], ambient=pres).classes == ((1,),)

    def test_rational_strings_accepted(self):
        f = framed([["-1/2"]])
        assert f.lambda_matrix == ((Fraction(-1, 2),),)


class TestTotalSelfLinking:
    def test_opposite_framings(self):
        assert total_self_linking(framed([[-1, 0], [0, 1]])) == 0

    def test_negative_hopf_pair(self):
        assert total_self_linking(framed([[-1]])) == -1

    def test_entry_sum(self):
        assert total_self_linking(framed([[1, 2], [2, 0]])) == 5


class TestBandSum:
    def test_cancelling_pair(self):
        assert band_sum(framed([[-1, 0], [0, 1]]), 0, 1).lambda_matrix == ((0,),)

    def test_formula(self):
        # (a, b, l) = (2, 2, 1): merged self-linking a + b + 2l = 6
        got = band_sum(framed([[2, 1], [1, 2]]), 0, 1)
        assert got.lambda_matrix == ((6,),)
        assert total_self_linking(got) == 6

    def test_conserves_total(self):
        rng = random.Random(3)
        for _ in range(60):
            f = random_framed(rng, max_n=5)
            if f.n_components < 2:
                continue
            i, j = rng.sample(range(f.n_components), 2)
            assert total_self_linking(band_sum(f, i, j)) == total_self_linking(f)

    def test_conserves_class(self):
        rng = random.Random(5)
        for _ in range(40):
            f = random_framed(rng, max_n=4, with_classes=True)
            if f.n_components < 2:
                continue
            i, j = rng.sample(range(f.n_components), 2)
            assert cobordism_class(band_sum(f, i, j)) == cobordism_class(f)

    def test_index_errors(self):
        f = framed([[0, 0], [0, 0]])
        with pytest.raises(InvalidInputError, match="^component index out of range$"):
            band_sum(f, 0, 2)
        with pytest.raises(InvalidInputError, match="^band sum needs two distinct components$"):
            band_sum(f, 1, 1)


class TestAddHopf:
    def test_positive_gamma(self):
        assert add_hopf(framed([]), 1).lambda_matrix == ((-1,),)

    def test_negative_gamma(self):
        assert add_hopf(framed([]), -1).lambda_matrix == ((1,),)

    def test_opposite_pair_cancels(self):
        f = add_hopf(add_hopf(framed([]), 1), -1)
        assert total_self_linking(f) == 0
        assert framed_cobordant_zsphere(f, framed([]))

    def test_split_and_null(self):
        pres = SurgeryPresentation.from_rows([[1]])
        f = framed([[2]], classes=[(3,)], ambient=pres)
        g = add_hopf(f, 1)
        assert g.lambda_matrix == ((2, 0), (0, -1))
        assert g.classes == ((3,), (0,))

    def test_bad_sign(self):
        with pytest.raises(ValueError, match=r"^sign must be \+1 or -1$"):
            add_hopf(framed([]), 0)


class TestPontrjagin:
    def test_gamma_step(self):
        assert pontrjagin_p1(Fraction(-2), framed([[-1]])) == 2

    def test_empty_link(self):
        assert pontrjagin_p1(Fraction(-2), framed([])) == -2

    def test_cancelling_framings(self):
        assert pontrjagin_p1(Fraction(-2), framed([[1, 0], [0, -1]])) == -2

    def test_hopf_shift_law(self):
        rng = random.Random(7)
        for _ in range(40):
            f = random_framed(rng, max_n=4)
            p_tau = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            assert pontrjagin_p1(p_tau, add_hopf(f, 1)) == pontrjagin_p1(p_tau, f) + 4

    def test_non_torsion_class(self):
        pres = SurgeryPresentation.from_rows([[0]])
        f = framed([[0]], classes=[(1,)], ambient=pres)
        with pytest.raises(NonTorsionError):
            pontrjagin_p1(Fraction(0), f)


class TestFramedCobordant:
    def test_opposite_pair_vs_empty(self):
        assert framed_cobordant_zsphere(framed([[1, 0], [0, -1]]), framed([]))

    def test_distinct_framings(self):
        assert not framed_cobordant_zsphere(framed([[-1]]), framed([[1]]))

    def test_reflexive(self):
        f = framed([[3, 1], [1, 0]])
        assert framed_cobordant_zsphere(f, f)

    def test_rejects_non_zsphere(self):
        pres = SurgeryPresentation.from_rows([[2]])
        f = framed([[Fraction(-1, 2)]], classes=[(1,)], ambient=pres)
        with pytest.raises(NotZSphereError):
            framed_cobordant_zsphere(f, framed([]))

    @pytest.mark.parametrize("rows, zsphere", [
        ([[1]], True), ([[-1]], True), ([[2]], False), ([[0]], False),
        ([[2, 1], [1, 1]], True), ([[0, 1], [1, 0]], True), ([[2, 3], [3, 5]], True),
        ([[2, 1], [1, 2]], False), ([[1, 1], [1, 1]], False),
    ])
    def test_zsphere_reads_no_box(self, rows, zsphere):
        """B presents a Z-sphere iff det B = +/-1, whichever link has it as
        ambient; [[0]], S^1 x S^2, has no torsion, so its kernel alone
        refuses it.  The test reads the signature and the torsion order, so
        the memo entry builds neither the box nor the homology summary."""
        analysis.cache_clear()
        pres = SurgeryPresentation.from_rows(rows)
        f = framed([[1]], classes=[(0,) * pres.n], ambient=pres)
        for pair in ((f, framed([[1]])), (framed([[1]]), f)):
            if zsphere:
                assert framed_cobordant_zsphere(*pair)
            else:
                with pytest.raises(NotZSphereError):
                    framed_cobordant_zsphere(*pair)
        entry = analysis(pres.matrix)
        assert "box" not in entry.__dict__ and "homology" not in entry.__dict__

    def test_zsphere_ambient_allowed(self):
        pres = SurgeryPresentation.from_rows([[1]])
        f = framed([[2]], classes=[(1,)], ambient=pres)
        assert framed_cobordant_zsphere(f, framed([[2]]))

    def test_band_sum_fixes_class(self):
        f = framed([[1, 0], [0, 1]])
        assert framed_cobordant_zsphere(f, band_sum(f, 0, 1))

    def test_equivalence_relation(self):
        rng = random.Random(13)
        for _ in range(30):
            f = random_framed(rng, max_n=3)
            g = random_framed(rng, max_n=3)
            h = random_framed(rng, max_n=3)
            assert framed_cobordant_zsphere(f, f)
            assert framed_cobordant_zsphere(f, g) == framed_cobordant_zsphere(g, f)
            if framed_cobordant_zsphere(f, g) and framed_cobordant_zsphere(g, h):
                assert framed_cobordant_zsphere(f, h)


class TestCobordismClass:
    def test_null_hopf(self):
        pres = SurgeryPresentation.from_rows([[1]])
        cls = cobordism_class(framed([[-1]], classes=[(0,)], ambient=pres))
        assert cls.homology == (0,)
        assert cls.total == -1

    def test_rp3_meridian(self):
        pres = SurgeryPresentation.from_rows([[2]])
        cls = cobordism_class(
            framed([[Fraction(-1, 2)]], classes=[(1,)], ambient=pres)
        )
        assert cls.homology == (1,)
        assert cls.total == Fraction(-1, 2)

    def test_missing_classes(self):
        with pytest.raises(MissingClassesError):
            cobordism_class(framed([[0]]))


class TestMeridianMove:
    def test_framing_change_equals_hopf_band_sum(self):
        # changing a framing by +/-1 is the same, up to framed cobordism, as
        # adding the corresponding Hopf unknot and band-summing it in
        rng = random.Random(11)
        for _ in range(40):
            f = random_framed(rng, max_n=3, with_classes=rng.random() < 0.5)
            idx = rng.randrange(f.n_components)
            eps = rng.choice((1, -1))
            rows = [list(r) for r in f.lambda_matrix]
            rows[idx][idx] += eps
            direct = FramedLinkData(
                tuple(tuple(r) for r in rows), f.classes, f.ambient
            )
            via_hopf = band_sum(add_hopf(f, -eps), idx, f.n_components)
            assert total_self_linking(via_hopf) == total_self_linking(direct)
            if f.classes is not None:
                assert cobordism_class(via_hopf) == cobordism_class(direct)


def test_random_framed_draws_nonzero_classes():
    """`random_framed` draws each class from the torsion lattice, not from
    B Z^n: some class is nonzero in H_1, and then some off-diagonal linking
    (the pairing plus an integer) is not an integer."""
    rng = random.Random(0)
    nonzero = fractional = 0
    for _ in range(100):
        f = random_framed(rng, max_n=4, with_classes=True)
        nonzero += any(any(reduce_class(f.ambient, v)) for v in f.classes)
        rows = f.lambda_matrix
        fractional += any(x.denominator != 1 for i, row in enumerate(rows) for x in row[i + 1:])
    assert nonzero > 0 and fractional > 0
