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
The torsion form's walk (`torsion_chunks`), which builds the residues
and lifts by finite differences, is compared point by point with
-(y^T Q y) mod L and `generators` y computed directly, on boxes with no
factor, one factor, a small last or first factor, eight factors and a
singular B.  The walk itself (`linalg.walk`) is compared with a per-point
oracle on seeded boxes and chunk sizes, and on boxes longer than one
`CHUNK`; the sweep of `image-p1` with {c^T G c + shift} over
`itertools.product`, filtered by the torsion test, on singular B.
"""

import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from _oracles import torsion_pairs
from combings.cli import main
from combings.combing import CombingSpec, p1, p1_image, reference_parallelization
from combings import linalg
from combings.linalg import CHUNK, analysis, walk
from combings.surgery import (
    SurgeryPresentation,
    format_residue,
    homology_summary,
    is_torsion_class,
    linking_form,
    reduce_class,
    torsion_chunks,
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


def _joined(chunks):
    """The chunks of a walk as one (columns, residues)."""
    chunks = list(chunks)
    columns = [list(itertools.chain.from_iterable(c)) for c in zip(*(c for c, _ in chunks))]
    return columns, list(itertools.chain.from_iterable(r for _, r in chunks))


# The name is older than the chunked walk, which replaced the table; it is
# kept so that the test ids stay stable.
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
    columns, residues = _joined(torsion_chunks(pres, cap=len(points))[1])
    assert len(columns) == len(tf.generators)
    assert all(len(column) == len(points) for column in columns)
    assert [tuple(column[i] for column in columns) for i in range(len(points))] == want_lifts
    assert residues == want_r
    assert _joined(walk(tf.factors, [[-x for x in row] for row in tf.Q], tf.L)) == ([], want_r)
    ref = p1(reference_parallelization(pres)).value * tf.L
    assert ref.denominator == 1
    formula = {(int(ref) - 4 * r) % (4 * tf.L) for r in want_r}
    assert p1_image(pres, box=0).formula_residues == formula


def _walk_oracle(factors, Q, M, b, a, A, a0):
    """(columns, residues) of `walk`, one point at a time."""
    points = list(itertools.product(*map(range, factors)))
    residues = [(sum(Q[i][j] * y[i] * y[j] for i in range(len(y)) for j in range(len(y)))
                 + sum(map(int.__mul__, b, y)) + a) % M for y in points]
    columns = [[sum(map(int.__mul__, row, y)) + x for y in points] for row, x in zip(A, a0)]
    return columns, residues


def _random_walk(rng, factors):
    """A random symmetric Q with Q_ll != 0, b, a, M and a map A y + a0 of
    one to three coordinates, some of them constant along the last factor."""
    k = len(factors)
    Q = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            Q[i][j] = Q[j][i] = rng.randint(-9, 9)
    Q[-1][-1] = rng.choice((-1, 1)) * rng.randint(1, 9)
    rows = rng.randint(1, 3)
    A = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(rows)]
    A[0][-1] = 0
    return (Q, rng.randint(2, 500), [rng.randint(-20, 20) for _ in range(k)],
            rng.randint(-1000, 1000), A, [rng.randint(-9, 9) for _ in range(rows)])


def _walk_cases():
    rng = random.Random(4711)
    shapes = [(1,), (5,), (2, 3), (3, 1, 4), (2, 2, 2, 2, 2), (4, 7, 3), (1, 6, 1, 2), (9, 2)]
    return [(shape, _random_walk(rng, shape), chunk) for shape in shapes for chunk in (1, 3, 5, 64)]


WALK_CASES = _walk_cases()


@pytest.mark.parametrize("factors, form, chunk", WALK_CASES,
                         ids=[f"{'x'.join(map(str, f))}-chunk{c}" for f, _, c in WALK_CASES])
def test_walk_is_the_form_at_every_point(factors, form, chunk, monkeypatch):
    """With `CHUNK` set to `chunk`, a chunk holds at most `chunk` points, in
    whole runs of the last factor's length, or of `chunk` where that is
    longer, and every chunk but the last has no room for one more run; the
    chunks joined are the quadratic's residues and the map's coordinates
    point by point, in product order."""
    Q, M, b, a, A, a0 = form
    monkeypatch.setattr(linalg, "CHUNK", chunk)
    chunks = list(walk(factors, Q, M, b, a, A, a0))
    run = min(factors[-1], chunk)
    assert all(0 < len(r) <= chunk and len(r) % run in (0, factors[-1] % chunk) for _, r in chunks)
    assert all(len(r) + run > chunk for _, r in chunks[:-1])
    assert _joined(chunks) == _walk_oracle(factors, Q, M, b, a, A, a0)


@pytest.mark.parametrize("factors", [(CHUNK + 4321,), (3, 2 * CHUNK + 5), (2, 3, 5000)],
                         ids=["one-row", "rows-cut-twice", "whole-rows"])
def test_walk_longer_than_one_chunk(factors):
    """A box longer than one `CHUNK`, with Q_ll != 0: a row longer than a
    chunk is cut, and the run that starts inside it starts from the closed
    form at its first point."""
    Q, M, b, a, A, a0 = _random_walk(random.Random(len(factors)), factors)
    chunks = list(walk(factors, Q, M, b, a, A, a0))
    assert sum(len(r) for _, r in chunks) == math.prod(factors) and len(chunks) > 1
    assert _joined(chunks) == _walk_oracle(factors, Q, M, b, a, A, a0)


def test_walk_of_an_empty_box():
    """No factor is one point, a + the map's offset; a zero factor, none."""
    assert list(walk((), [], 7, a=9, A=[[], []], a0=[1, 2])) == [([[1], [2]], [2])]
    assert list(walk((3, 0), [[1, 0], [0, 1]], 7)) == []


def _singular_diagonal(rng, n, k):
    """P^T (D + 0_k) P for a random diagonal D of size n - k and a random
    unimodular P."""
    d = [rng.choice((-1, 1)) * rng.randint(1, 6) for _ in range(n - k)] + [0] * k
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        (i, j), sign = rng.sample(range(n), 2), rng.choice((-1, 1))
        p[i] = [x + sign * y for x, y in zip(p[i], p[j])]
    return [[sum(p[m][i] * d[m] * p[m][j] for m in range(n)) for j in range(n)] for i in range(n)]


def _sweep_oracle(pres, box, every=False):
    """{c^T G c + shift mod 4L} over the characteristic torsion c of the box,
    c^T G c one product per pair of coordinates; over every characteristic
    c of the box if `every`."""
    data = analysis(pres.matrix)
    G, L = data.form.G, data.form.L
    sig = data.signature
    shift = (-2 * (pres.n + 1) - 3 * (sig.n_plus - sig.n_minus)) * L
    ranges = [[v for v in range(-box, box + 1) if (v - pres.matrix.at(i, i)) % 2 == 0]
              for i in range(pres.n)]
    return {(sum(G[i][j] * c[i] * c[j] for i in range(pres.n) for j in range(pres.n)) + shift)
            % (4 * L) for c in itertools.product(*ranges) if every or data.is_torsion(c)}


def _sweep_cases():
    rng = random.Random(1729)
    cases = []
    for i in range(12):
        n = rng.randint(2, 5)
        cases.append((f"singular{i}", _singular_diagonal(rng, n, rng.randint(1, min(3, n - 1))),
                      3 if n < 5 else 1))
    return cases


SWEEP_CASES = _sweep_cases()


@pytest.mark.parametrize("name, rows, box", SWEEP_CASES, ids=[c[0] for c in SWEEP_CASES])
def test_sweep_keeps_the_torsion_vectors(name, rows, box):
    """On a singular P^T (D + 0_k) P, the sweep of `p1_image` is the set of
    c^T G c + shift over the box's characteristic vectors that are torsion
    (`is_torsion`)."""
    pres = SurgeryPresentation.from_rows(rows)
    assert analysis(pres.matrix).signature.n_zero
    assert p1_image(pres, box=box).enumeration_residues == _sweep_oracle(pres, box)


def test_sweep_cases_need_the_torsion_test():
    """On most of the cases, the vectors that are not torsion would add a
    residue."""
    changed = [name for name, rows, box in SWEEP_CASES
               if _sweep_oracle(SurgeryPresentation.from_rows(rows), box)
               != _sweep_oracle(SurgeryPresentation.from_rows(rows), box, every=True)]
    assert len(changed) > len(SWEEP_CASES) // 2


def test_sweep_longer_than_one_chunk():
    """A sweep of more than `CHUNK` vectors on a singular B."""
    pres = SurgeryPresentation.from_rows(_singular_diagonal(random.Random(5), 3, 1))
    box = 26  # 27^3 = 19683 vectors
    assert p1_image(pres, cap=20000, box=box).enumeration_residues == _sweep_oracle(pres, box)
