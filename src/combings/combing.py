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
from typing import Literal, NamedTuple, Sequence

from .errors import (
    BadEtaError,
    CapExceededError,
    EvenCoefficientError,
    NonTorsionError,
    NotCharacteristicError,
)
from .linalg import IntMatrix, MatrixAnalysis, analysis
from .record import Record
from .surgery import (
    DEFAULT_CAP,
    MeridianClass,
    SurgeryPresentation,
    _check_length,
    is_torsion_class,
)

DEFAULT_BOX = 8

ModificationKind = Literal["D", "global-Z", "r-twist", "half-twist"]
MODIFICATION_KINDS = ("D", "global-Z", "r-twist", "half-twist")


def validate_combing(pres: SurgeryPresentation, c: Sequence[int]) -> None:
    """Check the characteristic condition c_i = B_ii (mod 2) for all i."""
    c = _check_length(pres, c)
    for i, ci in enumerate(c):
        if (ci - pres.matrix.at(i, i)) % 2:
            raise NotCharacteristicError(i)


class CombingSpec(Record):
    """A combing: characteristic vector plus pi_3(S^2) offset."""

    __slots__ = _fields = ("presentation", "c", "gamma_offset")

    def __init__(
        self, presentation: SurgeryPresentation, c: Sequence[int], gamma_offset: int = 0
    ) -> None:
        c = tuple(c)
        validate_combing(presentation, c)
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "gamma_offset", gamma_offset)


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
    validate_combing(pres, c)
    c = tuple(c)
    data = analysis(pres.matrix)
    return EulerClassInfo(class_vector=c, is_torsion=data.is_torsion(c), is_zero=data.in_lattice(c))


def _theta_constant(data: MatrixAnalysis) -> int:
    """The part of theta_g that does not depend on c: -2(n+1) - 3 sig(B)."""
    sig = data.signature
    return -2 * (data.matrix.rows + 1) - 3 * (sig.n_plus - sig.n_minus)


def theta_g(pres: SurgeryPresentation, c: Sequence[int]) -> Fraction:
    """Gompf invariant of the torsion combing with coefficient vector c.

    c^T x - 2(n+1) - 3 sig(B) for any rational solution of B x = c; the
    quadratic term does not depend on the solution choice, and is read off
    an integer form as c^T G c / L.  On a fresh B that form solves c alone
    through the pass (`MatrixAnalysis.form_on`); once the pass has run, it is
    `form`.
    """
    validate_combing(pres, c)
    return _theta_g(pres, c)


def _theta_g(pres: SurgeryPresentation, c: Sequence[int]) -> Fraction:
    """`theta_g` of a c already checked by `validate_combing`."""
    data = analysis(pres.matrix)
    form, (x,) = data.form_on((c,))
    if not form.is_torsion(x):
        raise NonTorsionError("combing coefficient vector is not torsion")
    return Fraction(form.pair(x, x), form.L) + _theta_constant(data)


def p1(x: CombingSpec) -> P1Value:
    """p_1 of a torsion combing: the Gompf invariant shifted by 4 per
    gamma step; `CombingSpec` has validated c."""
    return P1Value(_theta_g(x.presentation, x.c) + 4 * x.gamma_offset)


def gamma(x: CombingSpec, t: int) -> CombingSpec:
    """Act by the t-th power of the generator of pi_3(S^2)."""
    return CombingSpec(x.presentation, x.c, x.gamma_offset + t)


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
    """
    if x.presentation != y.presentation:
        raise ValueError("combings live on different presentations")
    if not is_torsion_class(x.presentation, x.c):
        raise NonTorsionError("first combing is not torsion")
    if not is_torsion_class(y.presentation, y.c):
        raise NonTorsionError("second combing is not torsion")
    return _spin_c_equal(x.presentation, x.c, y.c) and p1(x) == p1(y)


def gamma_orbit_modulus(pres: SurgeryPresentation, c: Sequence[int]) -> int:
    """Order of the gamma orbit inside the Spin^c structure of c.

    The combings in one Spin^c structure form an affine space over
    Z / (pairings of the Euler class with surface classes); the surface
    classes are the kernel vectors of B.  Returns 0 when the action is free
    (trivial kernel, read off the signature, or all pairings zero).  Any
    kernel basis gives the gcd: the split's serves, so no homology is built.
    """
    validate_combing(pres, c)
    modulus = 0
    for z in analysis(pres.matrix).split.kernel:
        modulus = math.gcd(modulus, abs(sum(ci * zi for ci, zi in zip(c, z))))
    return modulus


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
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if c0 % 2 == 0:
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


def _require_eta(eta: int) -> None:
    if eta not in (1, -1):
        raise BadEtaError(f"eta must be +1 or -1, got {eta!r}")


def apply_modification(
    p: P1Value | Fraction | int,
    kind: ModificationKind,
    *,
    eta: int | None = None,
    lk_euler: Fraction | int | None = None,
    lk_par: Fraction | int | None = None,
    r: int | None = None,
    k: int | None = None,
) -> P1Value:
    """p_1 after one of the four combing modifications.

    D: reframe along a link, p + 4(eta*lk_euler - lk_par), where lk_euler
    pairs the link with the zero locus of the orthogonal section and lk_par
    with the chosen parallel; global-Z: the section extends, p - 4*lk_par;
    r-twist: rotate the section r times along one component, p + 4*eta*r;
    half-twist: k half-twists of a two-strand satellite, p - 4*k.
    """
    value = p.value if isinstance(p, P1Value) else Fraction(p)
    if kind == "D":
        if eta is None or lk_euler is None or lk_par is None:
            raise ValueError("kind 'D' needs eta, lk_euler and lk_par")
        _require_eta(eta)
        return P1Value(value + 4 * (eta * Fraction(lk_euler) - Fraction(lk_par)))
    if kind == "global-Z":
        if lk_par is None:
            raise ValueError("kind 'global-Z' needs lk_par")
        return P1Value(value - 4 * Fraction(lk_par))
    if kind == "r-twist":
        if eta is None or r is None:
            raise ValueError("kind 'r-twist' needs eta and r")
        _require_eta(eta)
        return P1Value(value + 4 * eta * r)
    if kind == "half-twist":
        if k is None:
            raise ValueError("kind 'half-twist' needs k")
        return P1Value(value - 4 * k)
    raise ValueError(f"unknown modification kind {kind!r}")


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

    cap bounds both the torsion order and the number of swept vectors; a
    nonsingular B compares its order with it before any box or integer form
    is built (`MatrixAnalysis.torsion_order`).
    """
    if cap < 0 or box < 0:
        raise ValueError(f"cap and box must be nonnegative, got cap={cap}, box={box}")
    data = analysis(pres.matrix)
    torsion_order = data.torsion_order
    if torsion_order > cap:
        raise CapExceededError(torsion_order, cap)
    # the v in [-box, box] with v = b_ii mod 2, as lazy ranges whose length is
    # known before anything is built
    ranges = [
        range(-box + (-box - pres.matrix.at(i, i)) % 2, box + 1, 2)
        for i in range(pres.n)
    ]
    # len() overflows past sys.maxsize, so each range is counted by its bounds
    size = math.prod(max(0, (r.stop - r.start + 1) // 2) for r in ranges)
    if size > cap:
        message = f"image-p1 sweep of {size} vectors exceeds cap {cap}"
        raise CapExceededError(torsion_order, cap, message)

    # residues of c^T G c + const L modulo 4L, i.e. of theta_g mod 4 times L
    form = data.form
    shift = _theta_constant(data) * form.L
    modulus = 4 * form.L
    # p_1(reference) L = ref is an integer and lk(x, x) = r / L (mod 1) for the
    # residue r of the torsion form, so p_1(reference) - 4 lk(x, x) is
    # (ref - 4 r) / L modulo 4
    ref = form.pair(data.c_ref, data.c_ref) + shift
    formula = {(ref - 4 * r) % modulus for r in set(data.torsion_form.table()[1])}
    enumeration = {
        (form.pair(c, c) + shift) % modulus
        for c in itertools.product(*ranges)
        if data.is_torsion(c)
    }

    return P1ImageReport(
        denominator=form.L,
        formula_residues=frozenset(formula),
        enumeration_residues=frozenset(enumeration),
        is_subset=enumeration <= formula,
        is_equal=enumeration == formula,
    )
