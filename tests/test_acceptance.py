"""Acceptance suite: one test per criterion, each exact (no tolerances).

Criteria 1-10 run the `verify` battery's checks on pinned seeds and case
counts, so each law is coded once; criterion 11 keeps its own reference
oracles (cofactor determinants, Fraction ranks, the echelon basis of the
Smith kernel), which `verify` cannot import.  Every test prints its own
pass line; run with `pytest -v` to get one pass/fail line per criterion
from the report as well.
"""

import random
from fractions import Fraction
from operator import mul

from combings import verify
from combings.combing import p1, reference_parallelization
from combings.linalg import IntMatrix, analysis, signature, smith_normal_form
from combings.surgery import EMPTY_PRESENTATION
from combings.verify import random_symmetric, random_unimodular

from _oracles import echelon, frac_rank, naive_det, product, smith_kernel, transpose


def _passed(number: int, name: str) -> None:
    print(f"criterion {number} [{name}]: PASS")


def _check(check, seed: int, cases: int, want_cases: int) -> None:
    result = verify.run_check(check.__name__, check(random.Random(seed), cases))
    assert (result.cases, result.failures) == (want_cases, 0), result


def test_criterion_01_gamma_law():
    _check(verify.check_gamma_law, 1001, 200, 200)
    _passed(1, "gamma-law, 200 presentations, t in -3..3")


def test_criterion_02_gompf_surgery_arithmetic():
    _check(verify.check_gompf_surgery_arithmetic, 1002, 0, 1)
    _passed(2, "theta_g(S^3) = -2; +1-framed unknot shifts -4 / +4")


def test_criterion_03_stabilization_invariance():
    _check(verify.check_stabilization_invariance, 1003, 100, 100)
    _passed(3, "p1 invariant under stabilization, 100 combings x 20 moves")


def test_criterion_04_image_theorem():
    _check(verify.check_p1_image_theorem, 1004, 0, len(verify.IMAGE_BATTERY))
    _passed(4, "p1 image: enumeration equals formula side on the battery")


def test_criterion_05_kirby_melvin_parity():
    matrices = verify.random_linking_matrices(random.Random(1005), 500)
    singular = sum(naive_det(m.to_rows()) == 0 for m in matrices)
    assert singular > 50  # singular presentations really are included
    _check(verify.check_kirby_melvin_parity, 1005, 500, len(verify.BUILTIN_MATRICES) + 500)
    # Z-sphere coset: p1 of the S^3 reference is -2, in 2 + 4Z
    ref = p1(reference_parallelization(EMPTY_PRESENTATION)).value
    assert ref == -2
    assert ref % 4 == 2
    _passed(5, "parity holds on 500 random B incl. singular; S^3 in 2+4Z")


def test_criterion_06_spinc_injectivity():
    _check(verify.check_spinc_injectivity, 1006, 0, 1)
    _passed(6, "Spin^c classes and p1 separate combings on RP^3")


def test_criterion_07_framed_calculus():
    _check(verify.check_framed_calculus, 1007, 200, 202)
    _passed(7, "band-sum conservation, Hopf shift +4, opposite pair cancels")


def test_criterion_08_modification_calculus():
    # per eta: 11 r-twists, 11 half-twists and 176 random D / global-Z cases
    _check(verify.check_modification_calculus, 1008, 176, 2 * (11 + 11 + 176))
    _passed(8, "all four modification kinds, 176 D cases per eta")


def test_criterion_09_theta_law():
    # 80 random (lambda, p1, delta) triples, then Theta(0, -2)
    _check(verify.check_theta_law, 1009, 80, 81)
    _passed(9, "Theta variation law on 80 triples; Theta(0,-2) = -1/2")


def test_criterion_10_hf_grading():
    _check(verify.check_gompf_surgery_arithmetic, 1010, 0, 1)  # the S^3 anchors
    _check(verify.check_gamma_law, 1010, 50, 50)
    _passed(10, "grading 0 for the S^3 reference, +1 per gamma step")


def _random_matrix(rng, rows, cols, bound):
    return IntMatrix(rows, cols, tuple(rng.randint(-bound, bound) for _ in range(rows * cols)))


def test_criterion_11_linear_algebra_substrate():
    rng = random.Random(1011)
    for _ in range(1000):
        a = _random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6), bound=9)
        rows, cols = a.rows, a.cols

        # SNF suite
        snf = smith_normal_form(a)
        assert product(snf.U, a, snf.V) == snf.D
        assert abs(naive_det(snf.U.to_rows())) == 1
        assert abs(naive_det(snf.V.to_rows())) == 1
        diag = snf.diag
        assert all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d]
        for i in range(len(nonzero) - 1):
            assert nonzero[i + 1] % nonzero[i] == 0
        assert len(nonzero) == snf.rank == frac_rank(a.to_rows())
        assert not any(diag[snf.rank :])
        if rows == cols:
            d = naive_det(a.to_rows())
            if d:
                total = 1
                for x in nonzero:
                    total *= x
                assert total == abs(d)

        # signature suite on a symmetrization of a
        s = random_symmetric(rng, rows, bound=5)
        sig = signature(s)
        assert sig.n_plus + sig.n_minus + sig.n_zero == rows
        kernel = echelon(smith_kernel(s))
        assert sig.n_zero == len(kernel) and analysis(s).homology.kernel_basis == kernel
        p = random_unimodular(rng, rows)
        assert signature(product(transpose(p), s, p)) == sig

        # solve suite: the library's solve x = G c / L on s, where c lies in
        # the column space of s (the torsion test) iff rank [s | c] = rank s
        if rng.random() < 0.5:
            x0 = [rng.randint(-4, 4) for _ in range(rows)]
            c = list(s.matvec(x0))
        else:
            c = [rng.randint(-6, 6) for _ in range(rows)]
        data = analysis(s)
        rank_s = frac_rank(s.to_rows())
        rank_aug = frac_rank([list(s.row(i)) + [c[i]] for i in range(rows)])
        assert data.is_torsion(c) == (rank_s == rank_aug)
        if rank_s == rank_aug:
            form = data.form
            x = [Fraction(sum(map(mul, row, c)), form.L) for row in form.G]
            assert list(s.matvec(x)) == c
    _passed(11, "SNF/signature/solve suites on 1000 random matrices")
