"""Self-verification battery: algebraic property checks on built-in and
randomized inputs, driven by a seeded generator so runs are reproducible.

Each check yields one verdict per case, and `run_check` counts the cases
and the failures.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple

from .combing import (
    CombingSpec,
    apply_modification,
    combing_equal,
    gamma,
    hf_grading,
    p1,
    p1_image,
    parity_check,
    reference_parallelization,
    spin_c_equal,
    stabilize,
    theta_g,
)
from .framed import (
    FramedLinkData,
    add_hopf,
    band_sum,
    cobordism_class,
    framed_cobordant_zsphere,
    pontrjagin_p1,
    total_self_linking,
)
from .linalg import (
    IntMatrix,
    _diagonalize,
    analysis,
    signature,
)
from .surgery import (
    SurgeryPresentation,
    homology_summary,
    linking_form,
    meridian_pairing,
    reduce_class,
    torsion_columns,
)
from .theta import theta_invariant

# linking matrices exercised by every battery run
BUILTIN_MATRICES: tuple[tuple[tuple[int, ...], ...], ...] = (
    (),
    ((0,),),
    ((1,),),
    ((2,),),
    ((3,),),
    ((4,),),
    ((5,),),
    ((2, 1), (1, 2)),
    ((4, 1), (1, 4)),
    ((1, 1), (1, 1)),
    ((0, 0), (0, 0)),
    ((2, 0), (0, 3)),
)

IMAGE_BATTERY = BUILTIN_MATRICES[3:9]  # (2), (3), (4), (5) and the two 2x2 forms


def random_symmetric(rng: random.Random, n: int, bound: int = 5) -> IntMatrix:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-bound, bound)
    return IntMatrix.from_rows(m)


def random_presentation(
    rng: random.Random, max_n: int = 5, bound: int = 5
) -> SurgeryPresentation:
    return SurgeryPresentation(random_symmetric(rng, rng.randint(0, max_n), bound))


def random_linking_matrices(rng: random.Random, count: int) -> Iterator[IntMatrix]:
    """count symmetric B with n in 0..6 and entries in -5..5; every fifth
    with n >= 2 is made singular: its last row and column copy the first."""
    for i in range(count):
        rows = random_symmetric(rng, rng.randint(0, 6)).to_rows()
        if i % 5 == 0 and len(rows) >= 2:
            rows[-1] = rows[0][:]
            for row in rows:
                row[-1] = row[0]
        yield IntMatrix.from_rows(rows)


def random_unimodular(rng: random.Random, n: int, steps: int = 8) -> IntMatrix:
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        kind = rng.randrange(3)
        if kind == 0:
            q = rng.randint(-2, 2)
            for k in range(n):
                m[i][k] += q * m[j][k]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return IntMatrix.from_rows(m)


def saturation_basis(pres: SurgeryPresentation) -> list[tuple[int, ...]]:
    """Basis of the integer vectors lying in the rational column space of B:
    the rows R_1 of its split, as K^T x = 0 gives x = R_1^T W_1^T x."""
    return list(analysis(pres.matrix).split.rows)


def random_torsion_vector(rng: random.Random, pres: SurgeryPresentation) -> tuple[int, ...]:
    """An integer vector in the rational column space of B: a combination
    of the saturation basis whose coefficients in [-2, 2] are drawn in
    basis order."""
    v = [0] * pres.n
    for basis_vector in saturation_basis(pres):
        a = rng.randint(-2, 2)
        v = [x + a * y for x, y in zip(v, basis_vector)]
    return tuple(v)


def random_torsion_characteristic(
    rng: random.Random, pres: SurgeryPresentation
) -> tuple[int, ...]:
    """A characteristic vector in the rational column space of B.

    Every such vector is the reference vector plus twice an integer vector
    of the saturation lattice, so this generator covers all torsion
    Spin^c structures.
    """
    v = random_torsion_vector(rng, pres)
    return tuple(c + 2 * x for c, x in zip(reference_parallelization(pres).c, v))


def random_torsion_combing(rng: random.Random, pres: SurgeryPresentation) -> CombingSpec:
    return CombingSpec(pres, random_torsion_characteristic(rng, pres), rng.randint(-3, 3))


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def random_framed(
    rng: random.Random, max_n: int = 5, with_classes: bool = False
) -> FramedLinkData:
    n = rng.randint(1, max_n)
    lam = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            lam[i][j] = lam[j][i] = random_rational(rng)
    if not with_classes:
        return FramedLinkData(lam)
    # consistent classes: pick torsion classes first, then force off-diagonal
    # linkings onto the pairing value plus a random integer
    pres = SurgeryPresentation(random_symmetric(rng, rng.randint(1, 3), 4))
    classes = [random_torsion_vector(rng, pres) for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            pairing = meridian_pairing(pres, classes[i], classes[j])
            lam[i][j] = lam[j][i] = pairing + rng.randint(-2, 2)
    return FramedLinkData(lam, classes=classes, ambient=pres)


class CheckResult(NamedTuple):
    name: str
    cases: int
    failures: int
    error: str | None = None  # the type of the exception that ended the check

    @property
    def ok(self) -> bool:
        return self.failures == 0


# a check draws its random cases from rng, in order, and yields one verdict
# per case, True where the case obeys the law
Check = Callable[[random.Random, int], Iterator[bool]]


def run_check(name: str, verdicts: Iterable[bool]) -> CheckResult:
    """The tally of one check: a case per verdict, a failure per False.  An
    exception raised by the check ends it as one more failing case, named by
    its type, so a library bug fails its check and the battery goes on."""
    failed, error = [], None
    try:
        for ok in verdicts:
            failed.append(not ok)
    except Exception as exc:  # a bug in the library under test is a failure
        failed.append(True)
        error = type(exc).__name__
    return CheckResult(name, len(failed), sum(failed), error)


def check_signature_congruence(rng: random.Random, cases: int) -> Iterator[bool]:
    for _ in range(cases):
        s = random_symmetric(rng, rng.randint(0, 6))
        sig = signature(s)
        ok = sig.n_plus + sig.n_minus + sig.n_zero == s.rows
        m = s.to_rows()
        _diagonalize(m)  # the Smith pass, which shares no step with the signature's
        ok = ok and sig.n_zero == sum(1 for k, row in enumerate(m) if not row[k])
        cols = list(zip(*random_unimodular(rng, s.rows).to_rows()))  # the columns of P
        moved = [[sum(map(mul, a, s.matvec(b))) for b in cols] for a in cols]  # P^T S P
        yield ok and signature(IntMatrix.from_rows(moved)) == sig


def check_linking_form_laws(rng: random.Random, cases: int) -> Iterator[bool]:
    for _ in range(cases):
        pres = random_presentation(rng, max_n=4, bound=4)
        v, w = random_torsion_vector(rng, pres), random_torsion_vector(rng, pres)
        u = [rng.randint(-2, 2) for _ in range(pres.n)]
        shifted = tuple(a + b for a, b in zip(v, pres.matrix.matvec(u)))
        ok = linking_form(pres, shifted) == linking_form(pres, v)
        ok = ok and meridian_pairing(pres, v, w) == meridian_pairing(pres, w, v)
        vw = tuple(a + b for a, b in zip(v, w))
        ok = ok and meridian_pairing(pres, vw, w) == meridian_pairing(
            pres, v, w
        ) + meridian_pairing(pres, w, w)
        zero = (0,) * pres.n
        ok = ok and linking_form(pres, zero) == 0
        neg = tuple(-a for a in v)
        yield ok and linking_form(pres, neg) == linking_form(pres, v)


def check_torsion_enumeration(rng: random.Random, cases: int) -> Iterator[bool]:
    for matrix in BUILTIN_MATRICES:
        pres = SurgeryPresentation.from_rows(matrix)
        summary = homology_summary(pres)
        L, columns, residues = torsion_columns(pres, cap=10_000)
        reps = [t[:-1] for t in zip(*columns, residues)]  # () per class when n = 0
        ok = len(reps) == summary.torsion_order == len(set(reps))
        # canonical representatives, valued by the pairing G and not the table
        ok = ok and all(
            reduce_class(pres, rep) == rep and linking_form(pres, rep) == Fraction(r, L)
            for rep, r in zip(reps, residues)
        )
        d = analysis(pres.matrix)._pass.det
        if d:
            ok = ok and len(reps) == abs(d)
        yield ok


def check_gamma_law(rng: random.Random, cases: int) -> Iterator[bool]:
    for _ in range(cases):
        x = random_torsion_combing(rng, random_presentation(rng))
        base = p1(x).value
        ok = all(
            p1(gamma(x, t)).value - base == 4 * t for t in range(-3, 4)
        )
        ok = ok and gamma(gamma(x, -1), 1) == x and gamma(x, 0) == x
        yield ok and hf_grading(gamma(x, 1)) - hf_grading(x) == 1


def check_spinc_coset_law(rng: random.Random, cases: int) -> Iterator[bool]:
    for _ in range(cases):
        pres = random_presentation(rng)
        c = random_torsion_characteristic(rng, pres)
        u = [rng.randint(-2, 2) for _ in range(pres.n)]
        shift = pres.matrix.matvec(u)
        c2 = tuple(a + 2 * b for a, b in zip(c, shift))
        diff = theta_g(pres, c2) - theta_g(pres, c)
        ok = diff.denominator == 1 and diff.numerator % 8 == 0
        yield ok and spin_c_equal(pres, c, c2)


def check_kirby_melvin_parity(rng: random.Random, cases: int) -> Iterator[bool]:
    for matrix in BUILTIN_MATRICES:
        yield parity_check(SurgeryPresentation.from_rows(matrix))
    for matrix in random_linking_matrices(rng, cases):
        yield parity_check(SurgeryPresentation(matrix))


def check_stabilization_invariance(rng: random.Random, cases: int) -> Iterator[bool]:
    for _ in range(cases):
        x = random_torsion_combing(rng, random_presentation(rng, max_n=4))
        base = p1(x)
        yield all(
            p1(stabilize(x, sign, c0)) == base
            for sign in (1, -1)
            for c0 in (-9, -7, -5, -3, -1, 1, 3, 5, 7, 9)
        )


def check_p1_image_theorem(rng: random.Random, cases: int) -> Iterator[bool]:
    for matrix in IMAGE_BATTERY:
        report = p1_image(SurgeryPresentation.from_rows(matrix), cap=10_000, box=10)
        yield report.is_subset and report.is_equal


def check_gompf_surgery_arithmetic(rng: random.Random, cases: int) -> Iterator[bool]:
    s3 = SurgeryPresentation.from_rows([])
    x = CombingSpec(s3, (), 0)
    ok = theta_g(s3, ()) == -2
    one = stabilize(x, 1, 1)
    three = stabilize(x, 1, 3)
    ok = ok and theta_g(one.presentation, one.c) - theta_g(s3, ()) == -4
    ok = ok and theta_g(three.presentation, three.c) - theta_g(s3, ()) == 4
    ok = ok and p1(one) == p1(x) == p1(three)
    ok = ok and p1(CombingSpec(s3, (), 1)).value == 2
    ok = ok and hf_grading(x) == 0
    yield ok and all(hf_grading(gamma(x, k)) == k for k in range(-4, 5))


def check_framed_calculus(rng: random.Random, cases: int) -> Iterator[bool]:
    for _ in range(cases):
        f = random_framed(rng, with_classes=rng.random() < 0.5)
        total = total_self_linking(f)
        ok = True
        if f.n_components >= 2:
            i, j = rng.sample(range(f.n_components), 2)
            merged = band_sum(f, i, j)
            ok = total_self_linking(merged) == total
            if f.classes is not None:
                ok = ok and cobordism_class(merged) == cobordism_class(f)
        # gamma step through the Pontrjagin construction
        p_tau = random_rational(rng)
        ok = ok and pontrjagin_p1(p_tau, add_hopf(f, 1)) == pontrjagin_p1(p_tau, f) + 4
        # opposite Hopf pair cancels
        both = add_hopf(add_hopf(f, 1), -1)
        ok = ok and total_self_linking(both) == total
        # meridian move equals hopf-then-band-sum
        idx = rng.randrange(f.n_components)
        eps = rng.choice((1, -1))
        direct_rows = [list(row) for row in f.lambda_matrix]
        direct_rows[idx][idx] += eps
        direct = FramedLinkData(direct_rows, f.classes, f.ambient)
        via_hopf = band_sum(add_hopf(f, -eps), idx, f.n_components)
        ok = ok and total_self_linking(via_hopf) == total_self_linking(direct)
        if f.classes is not None:
            ok = ok and cobordism_class(via_hopf) == cobordism_class(direct)
        yield ok
    empty = FramedLinkData([])
    pair = FramedLinkData([[1, 0], [0, -1]])
    yield framed_cobordant_zsphere(pair, empty)
    yield not framed_cobordant_zsphere(
        FramedLinkData([[-1]]), FramedLinkData([[1]])
    )


def check_modification_calculus(rng: random.Random, cases: int) -> Iterator[bool]:
    """Each modification kind against a route to p_1 that does not go
    through `apply_modification`: an r-twist is the gamma action by eta r, a
    half-twist by -k, global-Z is the Pontrjagin construction along a framed
    link of total self-linking lk_par, and D is global-Z followed by D with
    lk_par = 0, which for an integral lk_euler = r is the r-twist."""
    for eta in (1, -1):
        x = random_torsion_combing(rng, random_presentation(rng, max_n=4))
        p = p1(x)
        for r in range(-5, 6):
            yield apply_modification(p, "r-twist", eta=eta, r=r) == p1(gamma(x, eta * r))
        for k in range(-5, 6):
            yield apply_modification(p, "half-twist", k=k) == p1(gamma(x, -k))
        for _ in range(cases):
            p = p1(random_torsion_combing(rng, random_presentation(rng, max_n=4)))
            f = random_framed(rng)
            lk_par = total_self_linking(f)
            lk_e = random_rational(rng)
            global_z = apply_modification(p, "global-Z", lk_par=lk_par)
            ok = global_z.value == pontrjagin_p1(p.value, f)
            got = apply_modification(p, "D", eta=eta, lk_euler=lk_e, lk_par=lk_par)
            ok = ok and got == apply_modification(global_z, "D", eta=eta, lk_euler=lk_e, lk_par=0)
            r = rng.choice((-3, -2, -1, 1, 2, 3))
            twist = apply_modification(p, "r-twist", eta=eta, r=r)
            yield ok and apply_modification(p, "D", eta=eta, lk_euler=r, lk_par=0) == twist


def check_theta_law(rng: random.Random, cases: int) -> Iterator[bool]:
    for _ in range(cases):
        lam = random_rational(rng)
        p = random_rational(rng)
        delta = random_rational(rng)
        yield theta_invariant(lam, p + 4 * delta) - theta_invariant(lam, p) == delta
    yield theta_invariant(0, -2) == Fraction(-1, 2)


def check_spinc_injectivity(rng: random.Random, cases: int) -> Iterator[bool]:
    pres = SurgeryPresentation.from_rows([[2]])
    ok = combing_equal(CombingSpec(pres, (0,), 1), CombingSpec(pres, (4,), -1))
    ok = ok and not any(
        combing_equal(CombingSpec(pres, (0,), j), CombingSpec(pres, (0,), j2))
        for j, j2 in ((0, 1), (2, -2), (5, 4))
    )
    yield ok and not spin_c_equal(pres, (0,), (2,))
    for _ in range(cases):
        x = random_torsion_combing(rng, random_presentation(rng, max_n=3))
        ok = combing_equal(x, x)
        t = rng.choice((-2, -1, 1, 2))
        yield ok and not combing_equal(x, gamma(x, t))


def check_variation_telescoping(rng: random.Random, cases: int) -> Iterator[bool]:
    """The variation of p_1 as a linking number, along a path x -> y -> z of
    torsion Spin^c structures: for torsion v,
    p_1(c + 2v, j) - p_1(c, j) = -4 (lk(v, c) + lk(v, v)).  Each step v is
    an integer combination of the saturation basis; both steps and the
    whole path must obey the law."""
    for _ in range(cases):
        pres = random_presentation(rng, max_n=4)
        x = random_torsion_combing(rng, pres)
        v1, v2 = random_torsion_vector(rng, pres), random_torsion_vector(rng, pres)
        y = CombingSpec(pres, tuple(c + 2 * v for c, v in zip(x.c, v1)), x.gamma_offset)
        z = CombingSpec(pres, tuple(c + 2 * v for c, v in zip(y.c, v2)), x.gamma_offset)
        w = tuple(a + b for a, b in zip(v1, v2))
        yield all(
            p1(end).value - p1(start).value
            == -4 * (meridian_pairing(pres, v, start.c) + meridian_pairing(pres, v, v))
            for start, end, v in ((x, y, v1), (y, z, v2), (x, z, w))
        )


CASES = 40  # the random cases each check of the battery draws

# each check is reported by its function's name after "check_", with "_"
# written "-", in the order the functions are defined
ALL_CHECKS: tuple[tuple[str, Check], ...] = tuple(
    (name.removeprefix("check_").replace("_", "-"), check)
    for name, check in globals().items() if name.startswith("check_"))


def run_battery(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    return [run_check(name, check(rng, CASES)) for name, check in ALL_CHECKS]


def format_report(results: list[CheckResult], seed: int) -> str:
    lines = [f"verification battery (seed {seed})"]
    for res in results:
        error = f"; {res.error}" if res.error else ""
        status = "pass" if res.ok else f"FAIL ({res.failures} failures{error})"
        lines.append(f"  {res.name}: {status} [{res.cases} cases]")
    passed = sum(1 for r in results if r.ok)
    lines.append(f"passed {passed}/{len(results)} checks")
    return "\n".join(lines)
