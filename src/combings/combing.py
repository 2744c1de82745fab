"""Combings on a surgery presentation and their homotopy invariants.

A combing is encoded by a characteristic coefficient vector c on the
presentation (c_i = B_ii mod 2) together with an integer offset j recording
the pi_3(S^2) orbit coordinate.  The Gompf invariant of (B, c) is

    theta_g = c^T B^{-1} c - 2(n + 1) - 3 signature(B),

the quadratic term being the self-intersection of the dual of the first
Chern class in the trace of the surgery, and p_1 = theta_g + 4 j.  Any
symmetric integer B and characteristic c are accepted; the classical even
presentations are the special case of an even diagonal.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, mod, mul, not_, sub
from typing import NamedTuple, Sequence

from .errors import (
    BadEtaError,
    CapExceededError,
    EvenCoefficientError,
    InvalidInputError,
    NonTorsionError,
    NotCharacteristicError,
    instance,
    integer,
    rational,
)
from .linalg import IntMatrix, MatrixAnalysis, Vector, analysis, walk
from .record import Record
from .surgery import DEFAULT_CAP, MeridianClass, SurgeryPresentation, _check_length

DEFAULT_BOX = 8

# each modification kind is the reframing D with its (eta, lk_euler, lk_par)
# read from an argument, where the table names one, or fixed to a number; a
# kind needs the arguments it names and refuses the others
_REFRAMINGS = {
    "D": ("eta", "lk_euler", "lk_par"),
    "global-Z": (1, 0, "lk_par"),
    "r-twist": ("eta", "r", 0),
    "half-twist": (1, 0, "k"),
}
MODIFICATION_KINDS = tuple(_REFRAMINGS)
# the rule that reads each argument a kind may name
_ARGUMENT_RULES = {"eta": integer, "lk_euler": rational, "lk_par": rational, "r": integer,
                   "k": integer}


def _listing(names: Sequence[str]) -> str:
    """The names as the errors list them: "k", "eta and r", "eta, lk_euler
    and lk_par"."""
    return " and ".join(filter(None, (", ".join(names[:-1]), names[-1])))


def validate_combing(pres: SurgeryPresentation, c: Sequence[int]) -> Vector:
    """Check the characteristic condition c_i = B_ii (mod 2) for all i, in
    one pass of C calls over the diagonal; the first i that fails is named.
    Returns c as a tuple."""
    c = _check_length(pres, c)
    odd = list(map(mod, map(sub, c, pres.matrix.diagonal()), itertools.repeat(2)))
    if any(odd):
        raise NotCharacteristicError(odd.index(1))
    return c


class CombingSpec(Record):
    """A combing: characteristic vector plus pi_3(S^2) offset, an integer."""

    __slots__ = _fields = ("presentation", "c", "gamma_offset")

    def __init__(
        self, presentation: SurgeryPresentation, c: Sequence[int], gamma_offset: int = 0
    ) -> None:
        instance(presentation, SurgeryPresentation, "presentation")
        object.__setattr__(self, "c", validate_combing(presentation, c))
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "gamma_offset", integer(gamma_offset, "gamma_offset"))


class EulerClassInfo(NamedTuple):
    """Euler class of the plane field orthogonal to a combing."""

    class_vector: MeridianClass
    is_torsion: bool
    is_zero: bool


class P1Value(Record):
    """A rational p_1 value; integral whenever c lies in the column
    lattice of B (the combing extends to a parallelization)."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: Fraction) -> None:
        object.__setattr__(self, "value", Fraction(value))


def euler_class(pres: SurgeryPresentation, c: Sequence[int]) -> EulerClassInfo:
    """The combing's Euler class as a meridian class.

    Torsion iff c lies in the rational column space of B; zero iff c lies in
    the integer column lattice, in which case the combing extends to a
    parallelization.
    """
    c = validate_combing(pres, c)
    data = analysis(pres.matrix)
    return EulerClassInfo(class_vector=c, is_torsion=data.is_torsion(c), is_zero=data.in_lattice(c))


def _theta_constant(data: MatrixAnalysis) -> int:
    """The part of theta_g that does not depend on c: -2(n+1) - 3 sig(B)."""
    sig = data.signature
    return -2 * (data.matrix.rows + 1) - 3 * (sig.n_plus - sig.n_minus)


def theta_g(pres: SurgeryPresentation, c: Sequence[int]) -> Fraction:
    """Gompf invariant of the torsion combing with coefficient vector c.

    c^T x - 2(n+1) - 3 sig(B) for any rational solution of B x = c; the
    quadratic term does not depend on the solution choice, and is the
    self-pairing q / d = c^T G_0 c (`MatrixAnalysis.square`): on a fresh B,
    c solved alone through the pass; on a warm one, the packed triangle of
    the integer form.
    """
    validate_combing(pres, c)
    return _theta_g(pres, c)


def _theta_g(pres: SurgeryPresentation, c: Sequence[int]) -> Fraction:
    """`theta_g` of a c already checked by `validate_combing`."""
    data = analysis(pres.matrix)
    if not data.is_torsion(c):
        raise NonTorsionError("combing coefficient vector is not torsion")
    q, d = data.square(c)
    return Fraction(q + _theta_constant(data) * d, d)


def p1(x: CombingSpec) -> P1Value:
    """p_1 of a torsion combing: the Gompf invariant shifted by 4 per
    gamma step; `CombingSpec` has validated c."""
    return P1Value(_theta_g(x.presentation, x.c) + 4 * x.gamma_offset)


def gamma(x: CombingSpec, t: int) -> CombingSpec:
    """Act by the t-th power of the generator of pi_3(S^2); t is an integer."""
    return CombingSpec(x.presentation, x.c, x.gamma_offset + integer(t, "t"))


def spin_c_equal(
    pres: SurgeryPresentation, c: Sequence[int], c_other: Sequence[int]
) -> bool:
    """Do two characteristic vectors represent the same Spin^c structure?

    True iff c - c' lies in 2 B Z^n.  The difference of two characteristic
    vectors is always even, so this asks whether (c - c')/2 lies in B Z^n.
    """
    validate_combing(pres, c)
    validate_combing(pres, c_other)
    return _spin_c_equal(pres, c, c_other)


def _spin_c_equal(pres: SurgeryPresentation, c: Sequence[int], c_other: Sequence[int]) -> bool:
    """`spin_c_equal` for vectors already validated, as a `CombingSpec`'s are."""
    half = tuple((a - b) // 2 for a, b in zip(c, c_other))
    return analysis(pres.matrix).in_lattice(half)


def combing_equal(x: CombingSpec, y: CombingSpec) -> bool:
    """Equality of torsion combings on one presentation.

    p_1 is injective on each torsion Spin^c structure, so two torsion
    combings agree iff their Spin^c structures and p_1 values do.
    Non-torsion input is refused: the relative offset is not decided here.
    Both answers read one solution v / d = G_0 w of w = (c - c') / 2
    (`MatrixAnalysis._solution`): the Spin^c structures agree iff w lies in
    B Z^n (`_integral`), and c^T G_0 c - c'^T G_0 c' = 2 (c + c')^T G_0 w,
    so p_1(x) = p_1(y) iff (c + c')^T v = 2 d (j' - j) for the gamma
    offsets j and j'.  On a fresh B that is one pass and one solve.
    """
    if x.presentation != y.presentation:
        raise InvalidInputError("combings live on different presentations")
    data = analysis(x.presentation.matrix)
    if not data.is_torsion(x.c):
        raise NonTorsionError("first combing is not torsion")
    if not data.is_torsion(y.c):
        raise NonTorsionError("second combing is not torsion")
    v, d = data._solution([(a - b) // 2 for a, b in zip(x.c, y.c)])
    v = list(v)  # read twice
    j = y.gamma_offset - x.gamma_offset
    return data._integral(v, d) and sum(map(mul, map(add, x.c, y.c), v)) == 2 * d * j


def gamma_orbit_modulus(pres: SurgeryPresentation, c: Sequence[int]) -> int:
    """Order of the gamma orbit inside the Spin^c structure of c.

    The combings in one Spin^c structure form an affine space over
    Z / (pairings of the Euler class with surface classes); the surface
    classes are the kernel vectors of B.  Returns 0 when the action is free
    (trivial kernel, read off the signature, or all pairings zero).  Any
    kernel basis gives the gcd: the split's serves, so no homology is built.
    """
    validate_combing(pres, c)
    return math.gcd(*(sum(map(mul, c, z)) for z in analysis(pres.matrix).split.kernel))


def hf_grading(x: CombingSpec) -> Fraction:
    """Heegaard Floer grading of a torsion combing: (2 + p_1) / 4."""
    return (2 + p1(x).value) / 4


def reference_parallelization(pres: SurgeryPresentation) -> CombingSpec:
    """A combing with zero Euler class and integral p_1.

    c_ref = B u where u solves B u = diag(B) over F_2; such a u always
    exists for symmetric B, and c_ref is characteristic by construction.
    For an even presentation this is the zero vector.  Kept in the
    per-matrix memo as `MatrixAnalysis.c_ref`.
    """
    return CombingSpec(pres, analysis(pres.matrix).c_ref, 0)


def parity_check(pres: SurgeryPresentation) -> bool:
    """Kirby-Melvin parity self-test.

    p_1 of the reference parallelization minus dim H_1(M;Z/2) minus the
    first Betti number must be even; returns the truth value.  Both come
    without the homology summary: dim H_1(M;Z/2) = n - rank_F2(B) from the
    F_2 elimination that builds c_ref, and the Betti number is the zero
    count of the signature.
    """
    value = p1(reference_parallelization(pres)).value
    if value.denominator != 1:
        return False
    data = analysis(pres.matrix)
    return (value.numerator - data.dim_h1_mod2 - data.signature.n_zero) % 2 == 0


def stabilize(x: CombingSpec, sign: int, c0: int) -> CombingSpec:
    """Add a +/-1-framed unknot with odd coefficient c0, preserving p_1.

    The Gompf invariant changes by sign*c0^2 - 2 - 3*sign, always a multiple
    of 4 for odd c0, and the gamma offset absorbs it.
    """
    if integer(sign, "sign") not in (1, -1):
        raise InvalidInputError("sign must be +1 or -1")
    if integer(c0, "c0") % 2 == 0:
        raise EvenCoefficientError(
            f"stabilization coefficient {c0} must be odd over a {sign:+d}-framed unknot"
        )
    delta = sign * c0 * c0 - 2 - 3 * sign
    assert delta % 4 == 0
    new_matrix = x.presentation.matrix.direct_sum(IntMatrix.from_rows([[sign]]))
    return CombingSpec(
        SurgeryPresentation(new_matrix),
        x.c + (c0,),
        x.gamma_offset - delta // 4,
    )


def apply_modification(
    p: P1Value | Fraction | int | str,
    kind: str,
    *,
    eta: int | None = None,
    lk_euler: Fraction | int | str | None = None,
    lk_par: Fraction | int | str | None = None,
    r: int | None = None,
    k: int | None = None,
) -> P1Value:
    """p_1 after one of the four combing modifications.

    Each is the reframing D along a link, p + 4(eta*lk_euler - lk_par),
    where lk_euler pairs the link with the zero locus of the orthogonal
    section and lk_par with the chosen parallel; the other three fix some
    of its arguments.  global-Z, the section extends: eta = 1 and
    lk_euler = 0, so p - 4*lk_par; r-twist, the section rotated r times
    along one component: lk_euler = r and lk_par = 0, so p + 4*eta*r;
    half-twist, k half-twists of a two-strand satellite: eta = 1,
    lk_euler = 0 and lk_par = k, so p - 4*k.  A kind takes exactly the
    arguments it reads: one missing, or one it does not read, is an
    InvalidInputError that names them.  p, lk_euler and lk_par are
    rationals (`errors.rational`), and eta, r and k integers.
    """
    value = p.value if isinstance(p, P1Value) else rational(p, "p")
    if kind not in MODIFICATION_KINDS:
        raise InvalidInputError(f"unknown modification kind {kind!r}")
    given = {"eta": eta, "lk_euler": lk_euler, "lk_par": lk_par, "r": r, "k": k}
    reads = [x for x in _REFRAMINGS[kind] if x in given]
    if None in map(given.get, reads):
        raise InvalidInputError(f"kind {kind!r} needs {_listing(reads)}")
    unread = [name for name, x in given.items() if x is not None and name not in reads]
    if unread:
        raise InvalidInputError(f"kind {kind!r} does not read {_listing(unread)}")
    e, le, lp = (_ARGUMENT_RULES[x](given[x], x) if x in given else x for x in _REFRAMINGS[kind])
    if e not in (1, -1):
        raise BadEtaError(f"eta must be +1 or -1, got {eta!r}")
    return P1Value(value + 4 * (e * le - lp))


class P1ImageReport(NamedTuple):
    """Image of p_1 on torsion combings, mod 4Z, from both routes.

    The formula side comes from p_1(reference) - 4*linking form over the
    torsion subgroup; the enumeration side sweeps characteristic torsion
    vectors within the box.  The enumeration is always a subset and equals
    the formula side once the box passes a presentation-dependent threshold.
    Each side is held as the residues p_1 * denominator mod 4 * denominator.
    """

    denominator: int
    formula_residues: frozenset[int]
    enumeration_residues: frozenset[int]
    is_subset: bool
    is_equal: bool


def p1_image(
    pres: SurgeryPresentation, cap: int = DEFAULT_CAP, box: int = DEFAULT_BOX
) -> P1ImageReport:
    """Compute the image of p_1 mod 4Z by formula and by enumeration.

    cap bounds both the torsion order and the number of swept vectors; the
    order is compared with it before any box or integer form is built, on
    singular and nonsingular B (`MatrixAnalysis.torsion_order`).
    """
    if integer(cap, "cap") < 0 or integer(box, "box") < 0:
        raise InvalidInputError(f"cap and box must be nonnegative, got cap={cap}, box={box}")
    data = analysis(pres.matrix)
    torsion_order = data.torsion_order
    if torsion_order > cap:
        raise CapExceededError(torsion_order, cap)
    # the swept c are start + 2y over the box 0 <= y_i < d_i: the v in
    # [-box, box] with v = b_ii mod 2, counted by their bounds, so that
    # nothing is built before the cap is read
    starts = [-box + (-box - b) % 2 for b in pres.matrix.diagonal()]
    factors = [(box - s) // 2 + 1 for s in starts]
    if (size := math.prod(factors)) > cap:
        message = f"image-p1 sweep of {size} vectors exceeds cap {cap}"
        raise CapExceededError(torsion_order, cap, message)

    # residues of c^T G c + const L modulo 4L, i.e. of theta_g mod 4 times L
    form = data.form
    shift = _theta_constant(data) * form.L
    modulus = 4 * form.L
    # p_1(reference) L is an integer, c_ref^T G c_ref + shift, and lk(x, x) =
    # -y^T Q y / L_t (mod 1) for the class of y in the torsion form's box,
    # whose denominator L_t divides L, so p_1(reference) - 4 lk(x, x) is
    # p_1(reference) L + 4 y^T Q y L / L_t over L, modulo 4
    tf = data.torsion_form
    formula = tf.values(4 * form.L // tf.L, modulus, data._quadratic(data.c_ref) + shift)
    # (s + 2y)^T G (s + 2y) = s^T G s + 4 (G s)^T y + 4 y^T G y over the box,
    # walked with the map K^T c over the pass's kernel vectors, which keeps
    # the torsion c (`MatrixAnalysis.is_torsion`): none on a nonsingular B.
    # c and -c are both swept, with one residue and one torsion test, so the
    # last coordinate is walked over its values c_l >= 0 alone
    kernel = data._pass.kernel
    enumeration = set()
    starts[-1:] = [s % 2 for s in starts[-1:]]
    factors[-1:] = [(box - s) // 2 + 1 for s in starts[-1:]]
    gs = [sum(map(mul, row, starts)) for row in form.G]
    for columns, part in walk(factors, [[4 * x for x in row] for row in form.G], modulus,
                              [4 * x for x in gs], sum(map(mul, starts, gs)) + shift,
                              [[2 * x for x in z] for z in kernel],
                              [sum(map(mul, z, starts)) for z in kernel]):
        torsion = map(not_, map(any, zip(*columns)))
        enumeration.update(itertools.compress(part, torsion) if kernel else part)

    return P1ImageReport(
        denominator=form.L,
        formula_residues=frozenset(formula),
        enumeration_residues=frozenset(enumeration),
        is_subset=enumeration <= formula,
        is_equal=enumeration == formula,
    )
