"""Presentation independence of the class questions.

A change of basis of the meridians replaces (B, v) by (P^T B P, P^T v) for a
unimodular P, and P^T carries B Z^n onto P^T B P Z^n, so it is an
isomorphism of H_1 that keeps the linking form.  The answers must follow:
the homology, the multiset of linking values of `torsion_columns`, the
classes of `reduce_class` and the formula side of `p1_image`, and, through
`cli.main`, the group and the kernel span that `homology` prints, the
`ell` values that `linking-form` prints, the `formula:` line of
`image-p1` and everything the combing commands print on
(P^T B P, P^T c).  The inputs are seeded nonsingular B and singular
P^T (D + 0_k) P, among them B whose pass pivots on a multiple of the core's
lattice (|det A| > 1 in `linalg.MatrixAnalysis.torsion_order`), so an
answer that depends on the pass's pivot order fails the law.
"""

import io
import json
import math
import random
from collections import Counter
from fractions import Fraction
from operator import mul

from _oracles import echelon, frac_inverse, product, torsion_pairs, transpose
from combings.cli import main
from combings.combing import p1_image
from combings.linalg import IntMatrix, analysis
from combings.surgery import SurgeryPresentation, homology_summary, reduce_class
from combings.verify import random_symmetric, random_torsion_characteristic, random_unimodular


def _diagonal(d):
    return IntMatrix.from_rows([[x * (i == j) for j in range(len(d))] for i, x in enumerate(d)])


def _cases(seed):
    """(B, P) pairs: 20 nonsingular B with n <= 6, 30 singular P_0^T (D + 0_k)
    P_0 with d_i in +-{1, ..., 6}, n <= 6 and k <= 2, and [[4, 2], [2, 1]];
    each with its own unimodular P."""
    rng = random.Random(seed)
    matrices = []
    while len(matrices) < 20:
        b = random_symmetric(rng, rng.randint(1, 6), rng.randint(1, 4))
        if analysis(b).signature.n_zero == 0:
            matrices.append(b)
    for _ in range(30):
        n = rng.randint(2, 6)
        k = rng.randint(1, min(2, n - 1))
        d = [rng.choice((1, -1)) * rng.randint(1, 6) for _ in range(n - k)] + [0] * k
        p = random_unimodular(rng, n, steps=2 * n)
        matrices.append(product(transpose(p), _diagonal(d), p))
    matrices.append(IntMatrix.from_rows([[4, 2], [2, 1]]))
    return _with_moves(rng, matrices)


def _with_moves(rng, matrices):
    """Each B with its own unimodular P."""
    return [(b, random_unimodular(rng, b.rows, steps=2 * b.rows)) for b in matrices]


CASES = _cases(2024)


def _cli_cases(seed):
    """CASES with the empty B (n = 0) and a unimodular P_0^T diag(1, -1, 1) P_0
    in front."""
    rng = random.Random(seed)
    p = random_unimodular(rng, 3, steps=6)
    unimodular = product(transpose(p), _diagonal([1, -1, 1]), p)
    return _with_moves(rng, [IntMatrix(0, 0, ()), unimodular]) + CASES


def _pair(b, p):
    return SurgeryPresentation(b), SurgeryPresentation(product(transpose(p), b, p))


def _det_a(b):
    """|det A| of B's pass: sqrt(|D_r| / |det B'|)."""
    data = analysis(b)
    return math.isqrt(abs(data._pass.minor) // data.torsion_order)


def test_cases_reach_singular_b_with_det_a_over_one():
    """The law is asked of singular B on both sides, and on at least ten
    pairs one side has |det A| > 1."""
    singular = [(b, p) for b, p in CASES if analysis(b).signature.n_zero]
    assert len(singular) == 31 and len(CASES) - len(singular) == 20
    hits = sum(1 for b, p in singular if max(_det_a(b), _det_a(product(transpose(p), b, p))) > 1)
    assert hits >= 10


def test_homology_is_presentation_independent():
    for b, p in CASES:
        pres, moved = _pair(b, p)
        got, want = homology_summary(moved), homology_summary(pres)
        assert got.invariant_factors == want.invariant_factors, b
        assert (got.betti_1, got.dim_h1_mod2) == (want.betti_1, want.dim_h1_mod2), b


def test_linking_values_are_presentation_independent():
    """The multisets of linking values r / L of the torsion classes agree;
    L itself may differ for a singular B."""
    for b, p in CASES:
        values = []
        for pres in _pair(b, p):
            L, table = torsion_pairs(pres)
            values.append(Counter(Fraction(r, L) for _, r in table))
        assert values[0] == values[1], b


def test_reduce_class_maps_back():
    """reduce_class on P^T B P of P^T v, carried back by P^{-T}, is in the
    class of v, and P^T carries the representative of v into the class of
    P^T v."""
    rng = random.Random(7)
    for b, p in CASES:
        pres, moved = _pair(b, p)
        inverse = [[int(x) for x in row] for row in frac_inverse(p.to_rows())[0]]
        for _ in range(4):
            v = tuple(rng.randint(-9, 9) for _ in range(b.rows))
            w = reduce_class(moved, transpose(p).matvec(v))
            back = tuple(sum(inverse[j][i] * x for j, x in enumerate(w)) for i in range(b.rows))
            assert reduce_class(pres, back) == reduce_class(pres, v), (b, v)
            forth = transpose(p).matvec(reduce_class(pres, v))
            assert reduce_class(moved, forth) == w, (b, v)


def test_p1_image_formula_is_presentation_independent():
    """The formula side of p1_image, p_1 mod 4 over the torsion combings,
    agrees as a set of rationals; its denominator may differ."""
    for b, p in CASES:
        sides = []
        for pres in _pair(b, p):
            report = p1_image(pres, box=0)
            sides.append({Fraction(r, report.denominator) for r in report.formula_residues})
        assert sides[0] == sides[1], b


def _cli(argv, b, **entries):
    out, err = io.StringIO(), io.StringIO()
    doc = json.dumps({"linking_matrix": b.to_rows(), **entries})
    code = main(argv, stdin=io.StringIO(doc), stdout=out, stderr=err)
    assert (code, err.getvalue()) == (0, ""), (argv, b)
    return out.getvalue()


def test_cli_outputs_are_presentation_independent():
    """Through the CLI: `linking-form` prints the same multiset of `ell`
    values on B and P^T B P, and `image-p1` the same `formula:` line, on
    the empty B, a unimodular B, and nonsingular and singular B."""
    cases = _cli_cases(7)
    unimodular = homology_summary(SurgeryPresentation(cases[1][0]))
    assert cases[0][0].rows == 0 and (unimodular.torsion_order, unimodular.betti_1) == (1, 0)
    for b, p in cases:
        ells, formulas = [], []
        for pres in _pair(b, p):
            entries = json.loads(_cli(["linking-form"], pres.matrix))
            ells.append(Counter(e["ell"] for e in entries))
            formulas.append(_cli(["image-p1", "--box", "0"], pres.matrix).split("\n")[0])
        assert ells[0] == ells[1], b
        assert formulas[0] == formulas[1] and formulas[0].startswith("formula: "), b


def test_cli_homology_is_presentation_independent():
    """Through the CLI, `homology` prints the same group on B and P^T B P,
    and kernel bases that span the same lattice: P carries ker P^T B P onto
    ker B, so the echelon basis of P z, over the printed kernel vectors z of
    P^T B P, is the printed kernel basis of B."""
    for b, p in _cli_cases(7):
        printed = [json.loads(_cli(["homology"], pres.matrix)) for pres in _pair(b, p)]
        group = ("invariant_factors", "betti_1", "dim_h1_mod2", "torsion_order")
        assert [printed[1][key] for key in group] == [printed[0][key] for key in group], b
        carried = echelon([p.matvec(z) for z in printed[1]["kernel_basis"]])
        assert [list(v) for v in carried] == printed[0]["kernel_basis"], b


COMBING_COMMANDS = ("theta-g", "p1", "hf-grading", "spinc-equal", "combing-equal",
                    "orbit-modulus", "parity")


def test_cli_combing_outputs_are_presentation_independent():
    """Through the CLI, every combing command prints the same on (B, c, c')
    and (P^T B P, P^T c, P^T c'), with c and c' torsion and characteristic:
    c' = c + 2 B u, in the Spin^c structure of c, with the gamma offset that
    makes p_1 agree and one off it, and an independent c'.  On the empty B, a
    unimodular B, and nonsingular and singular B."""
    rng = random.Random(11)
    answers = Counter()
    for b, p in _cli_cases(7):
        pres = SurgeryPresentation(b)
        c = random_torsion_characteristic(rng, pres)
        u = [rng.randint(-2, 2) for _ in range(b.rows)]
        bu = b.matvec(u)
        # theta_g(c + 2 B u) - theta_g(c) = 4 (u^T c + u^T B u)
        shift = sum(map(mul, u, c)) + sum(map(mul, u, bu))
        same = tuple(x + 2 * y for x, y in zip(c, bu))
        gamma = rng.randint(-3, 3)
        pairs = ((same, gamma - shift), (same, gamma - shift + 1),
                 (random_torsion_characteristic(rng, pres), gamma))
        moved, carry = product(transpose(p), b, p), transpose(p).matvec
        for c2, gamma2 in pairs:
            printed = []
            for matrix, x, y in ((b, c, c2), (moved, carry(c), carry(c2))):
                doc = {"combing": {"c": list(x), "gamma": gamma},
                       "combing2": {"c": list(y), "gamma": gamma2}}
                printed.append([_cli([command], matrix, **doc) for command in COMBING_COMMANDS])
            assert printed[0] == printed[1], (b, c, c2)
            answers[tuple(printed[0][3:5])] += 1
    assert min(answers[("true\n", "true\n")], answers[("true\n", "false\n")],
               answers[("false\n", "false\n")]) >= 10, answers
