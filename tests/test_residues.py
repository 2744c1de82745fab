"""The torsion residues print as the values of the linking form and of p_1,
and the table they come from holds the torsion form at every box point.

`linking-form` and `image-p1` print integer residues over the torsion
form's denominator L.  Their stdout is compared with values computed
without the table, on seeded presentations: lens spaces L(d, 1) up to
d ~ 2000, signed permutations of A_k, random n <= 4, singular B with
torsion, unimodular B and the empty B.  `linking-form` is checked against
the pairing G (`linking_form`) on each representative of
`torsion_columns`, `image-p1` against p_1 of the reference
parallelization and of every swept torsion combing.
`TorsionForm.table`, which builds the residues and lifts by finite
differences, is compared point by point with -(y^T Q y) mod L and
`generators` y computed directly, on boxes with no factor, one factor, a
small last or first factor, eight factors and a singular B.
"""

import io
import itertools
import json
import random
from fractions import Fraction

import pytest

from _oracles import torsion_pairs
from combings.cli import main
from combings.combing import CombingSpec, p1, p1_image, reference_parallelization
from combings.linalg import analysis
from combings.surgery import (
    SurgeryPresentation,
    format_residue,
    homology_summary,
    is_torsion_class,
    linking_form,
    reduce_class,
    torsion_columns,
)
from combings.verify import random_symmetric


def _run(argv, rows):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdin=io.StringIO(json.dumps({"linking_matrix": rows})),
                stdout=out, stderr=err)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def _plumbing(rng, k):
    a = [[-2 if i == j else int(abs(i - j) == 1) for j in range(k)] for i in range(k)]
    perm = list(range(k))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(k)]
    return [[sign[i] * sign[j] * a[perm[i]][perm[j]] for j in range(k)] for i in range(k)]


def _random_symmetric(rng, n, bound):
    return random_symmetric(rng, n, bound).to_rows()


def _singular(rng, n, bound):
    """P^T (B_0 + 0) P for a random B_0 of size n - 1 and a unimodular P
    made of row additions, so H_1 has a free part and, mostly, torsion."""
    b = _random_symmetric(rng, n - 1, bound)
    b = [row + [0] for row in b] + [[0] * n]
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        p[i] = [x + y for x, y in zip(p[i], p[j])]
    pb = [[sum(p[k][i] * b[k][l] for k in range(n)) for l in range(n)] for i in range(n)]
    return [[sum(pb[i][l] * p[l][j] for l in range(n)) for j in range(n)] for i in range(n)]


def _presentations():
    """(name, rows, box for image-p1)."""
    rng = random.Random(20120913)
    out = [("empty", [], 0), ("unimodular+1", [[1]], 4), ("unimodular-1", [[-1]], 4),
           ("hyperbolic", [[0, 1], [1, 0]], 3), ("unimodular2", [[2, 1], [1, 1]], 3)]
    for d in (2, 3, 12, 60, -7, 97, 360, 1001, 1999, 2048):
        out.append((f"lens{d}", [[d]], 8))
    for k in range(1, 8):
        out.append((f"a{k}", _plumbing(rng, k), 2 if k > 3 else 4))
    for i in range(12):
        n = rng.randint(1, 4)
        out.append((f"random{i}", _random_symmetric(rng, n, 6 - n), 2))
    for i in range(6):
        out.append((f"singular{i}", _singular(rng, rng.randint(2, 4), 4), 2))
    return out


PRESENTATIONS = _presentations()


# The name is older than `torsion_columns`; it is kept so that the test
# ids stay stable.
@pytest.mark.parametrize("name, rows, box", PRESENTATIONS, ids=[p[0] for p in PRESENTATIONS])
def test_linking_form_prints_enumerate_torsion(name, rows, box):
    """stdout is the indented json of the classes of `torsion_columns`,
    one per torsion class and each its own `reduce_class`, valued by the
    pairing G on the class, byte for byte."""
    pres = SurgeryPresentation.from_rows(rows)
    L, entries = torsion_pairs(pres)
    reps = [rep for rep, _ in entries]
    assert len(reps) == len(set(reps)) == homology_summary(pres).torsion_order
    assert all(reduce_class(pres, rep) == rep for rep in reps)
    values = [linking_form(pres, rep) for rep in reps]
    assert [Fraction(r, L) for _, r in entries] == values
    want = [{"class": list(rep), "ell": f"{value} (mod 1)"} for rep, value in zip(reps, values)]
    assert _run(["linking-form"], rows) == json.dumps(want, indent=2) + "\n"


def _sweep(pres, box):
    """The characteristic torsion vectors c with every |c_i| <= box."""
    ranges = [[v for v in range(-box, box + 1) if (v - pres.matrix.at(i, i)) % 2 == 0]
              for i in range(pres.n)]
    return [c for c in itertools.product(*ranges) if is_torsion_class(pres, c)]


@pytest.mark.parametrize("name, rows, box", PRESENTATIONS, ids=[p[0] for p in PRESENTATIONS])
def test_image_p1_prints_sorted_side_sets(name, rows, box):
    """Each side is printed as its set of p_1 values mod 4 sorted by value:
    p_1(reference) - 4 lk(x, x) over the torsion classes x, and p_1 of
    every swept torsion combing."""
    pres = SurgeryPresentation.from_rows(rows)
    ref = p1(reference_parallelization(pres)).value
    formula = {(ref - 4 * linking_form(pres, rep)) % 4
               for rep, _ in torsion_pairs(pres)[1]}
    enumeration = {p1(CombingSpec(pres, c)).value % 4 for c in _sweep(pres, box)}

    def line(values):
        return ", ".join(f"{v} (mod 4)" for v in sorted(values))

    lines = _run(["image-p1", "--box", str(box)], rows).split("\n")
    assert lines[:2] == [f"formula: {line(formula)}", f"enumeration: {line(enumeration)}"]
    report = p1_image(pres, box=box)
    assert report.formula_residues == {v * report.denominator for v in formula}
    assert report.enumeration_residues == {v * report.denominator for v in enumeration}


def test_presentations_cover_their_kinds():
    """Some singular B has torsion, and some B is unimodular."""
    orders = {name: len(torsion_columns(SurgeryPresentation.from_rows(rows))[2])
              for name, rows, _ in PRESENTATIONS}
    assert any(orders[name] > 1 for name in orders if name.startswith("singular"))
    assert orders["unimodular2"] == orders["hyperbolic"] == orders["empty"] == 1
    assert orders["lens1999"] == 1999


# The name is older than the removal of the residue class type it was
# compared with; it is kept so that the test ids stay stable.
@pytest.mark.parametrize("L", [1, 2, 3, 12, 60, 97, 360])
@pytest.mark.parametrize("m", [1, 4])
def test_format_residue_is_modclass_str(L, m):
    for r in range(m * L):
        assert format_residue(r, L, m) == f"{Fraction(r, L) % m} (mod {m})"


def _diag(*d):
    return [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]


# (name, rows, box factors of the torsion form)
TABLE_CASES = [
    ("unimodular2", [[2, 1], [1, 1]], ()),
    ("empty", [], ()),
    *((f"lens{d}", [[d]], (abs(d),)) for d in (2, 97, -7, 2048)),
    ("small-last", _diag(898, 2), (898, 2)),
    ("three-factor", [[2, 3, 0], [3, -5, 2], [0, 2, -2]], (5, 3, 2)),
    ("small-first", _diag(2, 898), (2, 898)),
    ("eight-twos", _diag(*[2] * 8), (2,) * 8),
    ("singular", [[4, 2, 6], [2, -2, 0], [6, 0, 6]], (2, 6)),
]


@pytest.mark.parametrize("name, rows, factors", TABLE_CASES, ids=[c[0] for c in TABLE_CASES])
def test_table_is_the_form_at_every_box_point(name, rows, factors):
    """Residue and lift of the i-th box point of `itertools.product`, as
    -(y^T Q y) mod L and `generators` y, the lift read as the i-th entry of
    every column; without lifts, the same residues and no columns.
    The formula side of `p1_image` is p_1(reference) L - 4 r mod 4L over
    those residues."""
    pres = SurgeryPresentation.from_rows(rows)
    tf = analysis(pres.matrix).torsion_form
    assert tf.factors == factors
    if name == "three-factor":  # the box pairs its coordinates
        assert any(tf.Q[i][j] for i in range(3) for j in range(3) if i != j)
    points = list(itertools.product(*(range(d) for d in tf.factors)))
    want_r = [-sum(tf.Q[i][j] * y[i] * y[j] for i in range(len(y)) for j in range(len(y))) % tf.L
              for y in points]
    want_lifts = [tuple(sum(g * t for g, t in zip(row, y)) for row in tf.generators)
                  for y in points]
    columns, residues = tf.table(lifts=True)
    assert len(columns) == len(tf.generators)
    assert all(len(column) == len(points) for column in columns)
    assert [tuple(column[i] for column in columns) for i in range(len(points))] == want_lifts
    assert residues == want_r
    assert tf.table() == ([], want_r)
    ref = p1(reference_parallelization(pres)).value * tf.L
    assert ref.denominator == 1
    formula = {(int(ref) - 4 * r) % (4 * tf.L) for r in want_r}
    assert p1_image(pres, box=0).formula_residues == formula
