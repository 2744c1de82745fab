"""Combing invariants: Gompf invariant, gamma action, Spin^c classes,
image and parity theorems, modification calculus."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from combings import combing
from combings.combing import (
    CombingSpec,
    P1Value,
    apply_modification,
    combing_equal,
    euler_class,
    gamma,
    gamma_orbit_modulus,
    hf_grading,
    p1,
    p1_image,
    parity_check,
    reference_parallelization,
    spin_c_equal,
    stabilize,
    theta_g,
    validate_combing,
)
from combings.errors import (
    BadEtaError,
    CapExceededError,
    DimensionMismatchError,
    EvenCoefficientError,
    NonTorsionError,
    NotCharacteristicError,
)
from combings.linalg import analysis
from combings.surgery import EMPTY_PRESENTATION, SurgeryPresentation
from combings.verify import (
    random_linking_matrices,
    random_presentation,
    random_torsion_characteristic,
    random_torsion_combing,
)


def pres(rows):
    return SurgeryPresentation.from_rows(rows)


S3 = EMPTY_PRESENTATION


class TestValidateCombing:
    def test_odd_framing(self):
        validate_combing(pres([[3]]), (1,))

    def test_even_framing_rejects_odd_coefficient(self):
        with pytest.raises(NotCharacteristicError) as err:
            validate_combing(pres([[2]]), (1,))
        assert err.value.index == 0

    def test_empty(self):
        validate_combing(S3, ())

    def test_first_failing_index(self):
        with pytest.raises(NotCharacteristicError) as err:
            validate_combing(pres([[2, 0], [0, 3]]), (0, 2))
        assert err.value.index == 1

    def test_first_of_two_failing_indices(self):
        """With two entries of the wrong parity, the error names the first,
        on an even and on an odd diagonal entry."""
        b = pres([[3, 1, 0, 0], [1, 2, 0, 1], [0, 0, 5, 2], [0, 1, 2, -4]])
        for c, index in (((1, 1, 1, 1), 1), ((1, 0, 0, 1), 2), ((0, 0, 1, 1), 0)):
            with pytest.raises(NotCharacteristicError) as err:
                validate_combing(b, c)
            assert err.value.index == index, c
        validate_combing(b, (-1, 4, 3, -2))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            validate_combing(pres([[2]]), (0, 0))

    def test_non_integer_entry(self):
        """A float entry is refused by the vector check before the parity
        test reads it."""
        with pytest.raises(ValueError, match="^class vector entries must be integers$"):
            theta_g(pres([[1]]), (1.5,))
        with pytest.raises(ValueError, match="^class vector entries must be integers$"):
            CombingSpec(pres([[2]]), (2.0,))


class TestEulerClass:
    def test_integral_lattice_class_is_zero(self):
        info = euler_class(pres([[2]]), (2,))
        assert info.is_zero and info.is_torsion

    def test_non_torsion(self):
        info = euler_class(pres([[0]]), (2,))
        assert not info.is_torsion and not info.is_zero

    def test_empty(self):
        info = euler_class(S3, ())
        assert info.is_zero

    def test_torsion_but_not_zero(self):
        # c = 1 on [[2]] would not be characteristic; use [[3]] with c = 1:
        # x = 1/3 is not integral, so the class is torsion and nonzero
        info = euler_class(pres([[3]]), (1,))
        assert info.is_torsion and not info.is_zero


class TestThetaG:
    def test_s3_reference(self):
        assert theta_g(S3, ()) == -2

    def test_plus_one_framed_unknot(self):
        assert theta_g(pres([[1]]), (1,)) == -6

    def test_rp3_even_vector(self):
        assert theta_g(pres([[2]]), (2,)) == -5

    def test_non_torsion(self):
        with pytest.raises(NonTorsionError):
            theta_g(pres([[0]]), (2,))

    def test_not_characteristic(self):
        with pytest.raises(NotCharacteristicError):
            theta_g(pres([[2]]), (1,))


class TestP1:
    def test_gamma_shift_from_s3(self):
        assert p1(CombingSpec(S3, (), 1)).value == 2

    def test_rp3_reference(self):
        assert p1(CombingSpec(pres([[2]]), (0,), 0)).value == -7

    def test_nine_minus_seven(self):
        assert p1(CombingSpec(pres([[1]]), (3,), 0)).value == 2

    def test_integrality_on_lattice_vectors(self):
        rng = random.Random(3)
        for _ in range(40):
            p = random_presentation(rng, max_n=4)
            u = [rng.randint(-2, 2) for _ in range(p.n)]
            c = p.matrix.matvec(u)
            try:
                validate_combing(p, c)
            except NotCharacteristicError:
                continue
            assert theta_g(p, c).denominator == 1

    def test_one_validation_per_p1(self, monkeypatch):
        """`CombingSpec` checks c once; p1 does not check it again, while
        the public theta_g still does."""
        calls = []

        def counting(pres, c):
            calls.append(c)
            return validate_combing(pres, c)

        monkeypatch.setattr(combing, "validate_combing", counting)
        rng = random.Random(41)
        for _ in range(20):
            p = random_presentation(rng, max_n=4)
            c = random_torsion_characteristic(rng, p)
            calls.clear()
            value = p1(CombingSpec(p, c, 2)).value
            assert calls == [c]
            assert theta_g(p, c) == value - 8 and calls == [c, c]
        with pytest.raises(NotCharacteristicError, match="^index 0: "):
            theta_g(pres([[2]]), (1,))

    def test_one_validation_per_theta_g_command(self, monkeypatch):
        """The theta-g command calls the public theta_g on the document's
        combing, which checks c once, and prints its value."""
        import io
        import json

        from combings import cli
        from combings.cli import main

        calls, public = [], []

        def counting(pres, c):
            calls.append(tuple(c))
            return validate_combing(pres, c)

        def traced(pres, c):
            public.append(tuple(c))
            return theta_g(pres, c)

        monkeypatch.setattr(combing, "validate_combing", counting)
        monkeypatch.setattr(cli, "theta_g", traced)
        rng = random.Random(42)
        for _ in range(20):
            p = random_presentation(rng, max_n=4)
            c = random_torsion_characteristic(rng, p)
            doc = {"linking_matrix": p.matrix.to_rows(), "combing": {"c": list(c), "gamma": 0}}
            out = io.StringIO()
            calls.clear()
            public.clear()
            assert main(["theta-g"], stdin=io.StringIO(json.dumps(doc)), stdout=out) == 0
            assert calls == [c] and public == [c]
            assert out.getvalue() == f"{theta_g(p, c)}\n"


class TestGamma:
    def test_iterated(self):
        x = CombingSpec(S3, (), 0)
        assert gamma(x, 3).gamma_offset == 3
        assert p1(gamma(x, 3)).value == 10

    def test_identity_and_inverse(self):
        x = CombingSpec(pres([[2]]), (0,), 2)
        assert gamma(x, 0) == x
        assert gamma(gamma(x, -1), 1) == x

    def test_gamma_law_random(self):
        rng = random.Random(17)
        for _ in range(50):
            x = random_torsion_combing(rng, random_presentation(rng, max_n=4))
            base = p1(x).value
            for t in (-2, 0, 3):
                assert p1(gamma(x, t)).value == base + 4 * t


class TestSpinC:
    def test_same_coset(self):
        assert spin_c_equal(pres([[2]]), (0,), (4,))

    def test_distinct_cosets_of_rp3(self):
        assert not spin_c_equal(pres([[2]]), (0,), (2,))

    def test_reflexive(self):
        assert spin_c_equal(pres([[3]]), (1,), (1,))

    def test_coset_law(self):
        # theta_g is constant mod 8 on each Spin^c coset
        rng = random.Random(29)
        for _ in range(60):
            p = random_presentation(rng, max_n=4)
            c = random_torsion_characteristic(rng, p)
            u = [rng.randint(-2, 2) for _ in range(p.n)]
            c2 = tuple(a + 2 * b for a, b in zip(c, p.matrix.matvec(u)))
            diff = theta_g(p, c2) - theta_g(p, c)
            assert diff.denominator == 1 and diff.numerator % 8 == 0
            assert spin_c_equal(p, c, c2)

    def test_one_validation_per_combing(self, monkeypatch):
        """combing_equal and the spinc-equal command check each combing once,
        when its `CombingSpec` is built; the public spin_c_equal checks each
        of its vectors, with its own messages."""
        import io
        import json

        from combings.cli import main

        calls = []

        def counting(pres, c):
            calls.append(tuple(c))
            return validate_combing(pres, c)

        monkeypatch.setattr(combing, "validate_combing", counting)
        rng = random.Random(43)
        for _ in range(20):
            p = random_presentation(rng, max_n=4)
            c = random_torsion_characteristic(rng, p)
            other = tuple(x + 2 * y for x, y in zip(c, p.matrix.row(0))) if p.n else c
            x, y = CombingSpec(p, c), CombingSpec(p, other, -1)
            calls.clear()
            combing_equal(x, y)
            assert calls == []
            assert spin_c_equal(p, c, other) and calls == [c, other]
            calls.clear()
            doc = {"linking_matrix": p.matrix.to_rows(), "combing": {"c": list(c), "gamma": 0},
                   "combing2": {"c": list(other), "gamma": 0}}
            out = io.StringIO()
            assert main(["spinc-equal"], stdin=io.StringIO(json.dumps(doc)), stdout=out) == 0
            assert out.getvalue() == "true\n" and calls == [c, other]
        with pytest.raises(NotCharacteristicError, match="^index 0: "):
            spin_c_equal(pres([[2]]), (0,), (1,))


class TestCombingEqual:
    def test_equal_after_gamma_compensation(self):
        p = pres([[2]])
        assert combing_equal(CombingSpec(p, (0,), 1), CombingSpec(p, (4,), -1))

    def test_free_gamma_action(self):
        p = pres([[2]])
        assert not combing_equal(CombingSpec(p, (0,), 0), CombingSpec(p, (0,), 1))

    def test_reflexive(self):
        x = CombingSpec(pres([[3]]), (5,), 2)
        assert combing_equal(x, x)

    def test_refuses_non_torsion(self):
        p = pres([[0]])
        with pytest.raises(NonTorsionError):
            combing_equal(CombingSpec(p, (2,), 0), CombingSpec(p, (2,), 0))

    def test_different_presentations(self):
        with pytest.raises(ValueError):
            combing_equal(
                CombingSpec(pres([[2]]), (0,), 0), CombingSpec(pres([[4]]), (0,), 0)
            )

    def test_conjugate_structures_with_equal_p1(self):
        """On B = (5), c = 1 and c = -1 give p_1 = -34/5 both, but
        (1 - (-1)) / 2 = 1 is not in 5Z: two Spin^c structures, so the
        combings differ though their p_1 values agree."""
        p = pres([[5]])
        x, y = CombingSpec(p, (1,)), CombingSpec(p, (-1,))
        assert p1(x) == p1(y) == P1Value(Fraction(-34, 5))
        assert not spin_c_equal(p, (1,), (-1,))
        assert not combing_equal(x, y)
        assert not combing_equal(y, x)

    def test_agrees_with_spin_c_and_p1(self):
        """combing_equal against its definition, equal Spin^c structures and
        equal p_1, on random B (every fifth singular), cold and then warm,
        for c' drawn at random, c' = -c and c' = c + 2 B u, each with a
        random gamma offset and, where one exists, the offset that makes
        the p_1 values equal."""
        rng = random.Random(11)
        seen = Counter()
        for m in random_linking_matrices(rng, 300):
            p = SurgeryPresentation(m)
            c = random_torsion_characteristic(rng, p)
            u = [rng.randint(-2, 2) for _ in range(p.n)]
            for other in (
                random_torsion_characteristic(rng, p),
                tuple(-a for a in c),
                tuple(a + 2 * b for a, b in zip(c, m.matvec(u))),
            ):
                x = CombingSpec(p, c, rng.randint(-3, 3))
                shift = p1(x).value - theta_g(p, other)
                offsets = [rng.randint(-3, 3)] + ([int(shift / 4)] if shift % 4 == 0 else [])
                for gamma_offset in offsets:
                    y = CombingSpec(p, other, gamma_offset)
                    want = spin_c_equal(p, c, other) and p1(x) == p1(y)
                    analysis.cache_clear()
                    assert combing_equal(x, y) == want  # solves w through the pass
                    assert combing_equal(x, y) == want  # reads `form`
                    seen[want, p1(x) == p1(y), bool(analysis(m)._pass.kernel)] += 1
        # (False, True, _): equal p_1 in two Spin^c structures
        assert len(seen) == 6 and min(seen.values()) >= 10, seen

    def test_equivalence_relation(self):
        rng = random.Random(31)
        for _ in range(30):
            p = random_presentation(rng, max_n=3)
            x = random_torsion_combing(rng, p)
            y = random_torsion_combing(rng, p)
            z = random_torsion_combing(rng, p)
            assert combing_equal(x, x)
            assert combing_equal(x, y) == combing_equal(y, x)
            if combing_equal(x, y) and combing_equal(y, z):
                assert combing_equal(x, z)
            t = rng.choice((-2, -1, 1, 2))
            assert not combing_equal(x, gamma(x, t))


class TestOrbitModulus:
    def test_free_on_zero_class(self):
        assert gamma_orbit_modulus(pres([[0]]), (0,)) == 0

    def test_order_two(self):
        assert gamma_orbit_modulus(pres([[0]]), (2,)) == 2

    def test_no_kernel(self):
        assert gamma_orbit_modulus(pres([[2]]), (0,)) == 0

    def test_gcd_over_kernel(self):
        p = pres([[0, 0], [0, 0]])
        assert gamma_orbit_modulus(p, (4, 6)) == 2


class TestHfGrading:
    def test_s3(self):
        assert hf_grading(CombingSpec(S3, (), 0)) == 0

    def test_one_gamma_step(self):
        assert hf_grading(CombingSpec(S3, (), 1)) == 1

    def test_rp3(self):
        assert hf_grading(CombingSpec(pres([[2]]), (2,), 0)) == Fraction(-3, 4)

    def test_step_law(self):
        rng = random.Random(41)
        for _ in range(30):
            x = random_torsion_combing(rng, random_presentation(rng, max_n=3))
            assert hf_grading(gamma(x, 1)) - hf_grading(x) == 1


class TestReferenceParallelization:
    def test_even_case(self):
        ref = reference_parallelization(pres([[2]]))
        assert ref.c == (0,)
        assert p1(ref).value == -7

    def test_odd_case(self):
        ref = reference_parallelization(pres([[1]]))
        assert ref.c == (1,)
        assert p1(ref).value == -6

    def test_two_components(self):
        ref = reference_parallelization(pres([[2, 1], [1, 2]]))
        assert ref.c == (0, 0)
        assert p1(ref).value == -12

    def test_zero_euler_class(self):
        rng = random.Random(43)
        for _ in range(40):
            p = random_presentation(rng, max_n=5)
            ref = reference_parallelization(p)
            info = euler_class(p, ref.c)
            assert info.is_zero
            assert p1(ref).value.denominator == 1


class TestParity:
    def test_examples(self):
        assert parity_check(pres([[2]]))
        assert parity_check(S3)
        assert parity_check(pres([[0]]))

    def test_random(self):
        rng = random.Random(47)
        for _ in range(80):
            assert parity_check(random_presentation(rng, max_n=6))


class TestStabilize:
    def test_plus_one_unknot(self):
        x = CombingSpec(S3, (), 0)
        got = stabilize(x, 1, 1)
        assert got.presentation.matrix.to_rows() == [[1]]
        assert got.c == (1,)
        assert got.gamma_offset == 1
        assert p1(got).value == -2

    def test_negative_blowup_keeps_offset(self):
        x = CombingSpec(S3, (), 0)
        got = stabilize(x, -1, 1)
        assert got.gamma_offset == 0

    def test_c0_three(self):
        x = CombingSpec(S3, (), 5)
        got = stabilize(x, 1, 3)
        assert got.gamma_offset == 4

    def test_even_coefficient(self):
        with pytest.raises(EvenCoefficientError):
            stabilize(CombingSpec(S3, (), 0), 1, 2)

    def test_bad_sign(self):
        with pytest.raises(ValueError, match=r"^sign must be \+1 or -1$"):
            stabilize(CombingSpec(S3, (), 0), 2, 1)

    def test_invariance(self):
        rng = random.Random(53)
        for _ in range(40):
            x = random_torsion_combing(rng, random_presentation(rng, max_n=4))
            base = p1(x)
            for sign in (1, -1):
                for c0 in (-9, -3, 1, 5, 7):
                    assert p1(stabilize(x, sign, c0)) == base


class TestModifications:
    def test_reframe_example(self):
        got = apply_modification(
            P1Value(Fraction(-2)), "D", eta=1, lk_euler=0, lk_par=-1
        )
        assert got.value == 2

    def test_r_twist(self):
        assert apply_modification(0, "r-twist", eta=-1, r=3).value == -12

    def test_half_twist(self):
        assert apply_modification(0, "half-twist", k=2).value == -8

    def test_global_section(self):
        assert apply_modification(Fraction(1, 2), "global-Z", lk_par=Fraction(3, 4)).value == Fraction(1, 2) - 3

    def test_bad_eta(self):
        with pytest.raises(BadEtaError):
            apply_modification(0, "D", eta=2, lk_euler=0, lk_par=0)
        with pytest.raises(BadEtaError):
            apply_modification(0, "r-twist", eta=0, r=1)

    def test_missing_params(self):
        with pytest.raises(ValueError):
            apply_modification(0, "D", eta=1)
        with pytest.raises(ValueError):
            apply_modification(0, "unknown")

    def test_unread_params(self):
        with pytest.raises(ValueError, match=r"^kind 'half-twist' does not read eta and r$"):
            apply_modification(0, "half-twist", k=1, eta=1, r=0)
        with pytest.raises(ValueError, match=r"^unknown modification kind 'unknown'$"):
            apply_modification(0, "unknown", r=1)
        with pytest.raises(ValueError, match=r"^kind 'D' needs eta, lk_euler and lk_par$"):
            apply_modification(0, "D", eta=1, r=1)

    def test_zero_euler_term_matches_global(self):
        for eta in (1, -1):
            for lk_par in (Fraction(-2), Fraction(1, 3), Fraction(5)):
                via_d = apply_modification(7, "D", eta=eta, lk_euler=0, lk_par=lk_par)
                direct = apply_modification(7, "global-Z", lk_par=lk_par)
                assert via_d == direct

    def test_eta_term_cancellation(self):
        # with eta = +1 and lk_euler = lk_par the two contributions cancel
        got = apply_modification(3, "D", eta=1, lk_euler=Fraction(5, 2), lk_par=Fraction(5, 2))
        assert got.value == 3


def _p1_values(report, residues):
    """A side of a P1ImageReport as p_1 values in [0, 4): the residues are
    p_1 * denominator modulo 4 * denominator."""
    assert all(0 <= r < 4 * report.denominator for r in residues)
    return {Fraction(r, report.denominator) for r in residues}


class TestP1Image:
    def test_rp3(self):
        report = p1_image(pres([[2]]), box=8)
        expected = {Fraction(1), Fraction(3)}
        assert _p1_values(report, report.formula_residues) == expected
        assert _p1_values(report, report.enumeration_residues) == expected
        assert report.is_subset and report.is_equal

    def test_rp3_enumeration_oracle(self):
        # independent oracle: theta_g on c = 2k is 2k^2 - 7
        values = {Fraction(2 * k * k - 7) % 4 for k in range(-4, 5)}
        report = p1_image(pres([[2]]), box=8)
        assert _p1_values(report, report.enumeration_residues) == values

    def test_s3(self):
        report = p1_image(S3, box=4)
        assert _p1_values(report, report.formula_residues) == {Fraction(2)}
        assert report.is_equal

    def test_lens_three(self):
        report = p1_image(pres([[3]]), box=9)
        ref = p1(reference_parallelization(pres([[3]]))).value
        expected = {ref % 4, (ref - 4 * Fraction(2, 3)) % 4}
        assert _p1_values(report, report.formula_residues) == expected
        assert report.is_equal

    def test_subset_even_for_small_boxes(self):
        rng = random.Random(59)
        for _ in range(20):
            p = random_presentation(rng, max_n=2, bound=4)
            report = p1_image(p, box=3)
            assert report.is_subset

    def test_singular_presentation(self):
        report = p1_image(pres([[0]]), box=6)
        assert _p1_values(report, report.formula_residues) == {Fraction(0)}
        assert report.is_equal

    def test_torsion_cap_comes_before_sweep_cap(self):
        # torsion order 11 and odd c in [-box, box]: 12 and 100 vectors
        for box in (11, 100):
            with pytest.raises(CapExceededError) as info:
                p1_image(pres([[11]]), cap=10, box=box)
            assert str(info.value) == "torsion order 11 exceeds cap 10"
        with pytest.raises(CapExceededError) as info:
            p1_image(pres([[11]]), cap=11, box=11)
        assert str(info.value) == "image-p1 sweep of 12 vectors exceeds cap 11"

    def test_negative_box_or_cap_is_refused(self):
        with pytest.raises(ValueError):
            p1_image(pres([[3]]), box=-1)
        with pytest.raises(ValueError):
            p1_image(pres([[3]]), cap=-1)


class TestTelescoping:
    def test_variation_is_additive(self):
        rng = random.Random(61)
        for _ in range(40):
            p = random_presentation(rng, max_n=4)
            x = random_torsion_combing(rng, p)
            y = random_torsion_combing(rng, p)
            z = random_torsion_combing(rng, p)
            assert (p1(z).value - p1(x).value) == (p1(z).value - p1(y).value) + (
                p1(y).value - p1(x).value
            )
