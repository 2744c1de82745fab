"""The torsion residues print exactly as their ModClass values do.

`linking-form` and `image-p1` print integer residues over the torsion
form's denominator L.  Their stdout is compared with what the ModClass
values of `enumerate_torsion` and `p1_image` print, on seeded
presentations: lens spaces L(d, 1) up to d ~ 2000, signed permutations of
A_k, random n <= 4, singular B with torsion, unimodular B and the empty B.
"""

import io
import json
import random
from fractions import Fraction

import pytest

from combings.cli import main
from combings.combing import p1_image
from combings.surgery import ModClass, SurgeryPresentation, enumerate_torsion, format_residue
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


@pytest.mark.parametrize("name, rows, box", PRESENTATIONS, ids=[p[0] for p in PRESENTATIONS])
def test_linking_form_prints_enumerate_torsion(name, rows, box):
    """stdout is json.dumps of the ModClass enumeration, byte for byte."""
    entries = enumerate_torsion(SurgeryPresentation.from_rows(rows))
    want = [{"class": list(rep), "ell": str(ell)} for rep, ell in entries]
    assert _run(["linking-form"], rows) == json.dumps(want, indent=2) + "\n"


@pytest.mark.parametrize("name, rows, box", PRESENTATIONS, ids=[p[0] for p in PRESENTATIONS])
def test_image_p1_prints_sorted_side_sets(name, rows, box):
    """Each side is printed as its ModClass set sorted by value."""
    report = p1_image(SurgeryPresentation.from_rows(rows), box=box)

    def line(side):
        return ", ".join(str(m) for m in sorted(side, key=lambda m: m.value))

    lines = _run(["image-p1", "--box", str(box)], rows).split("\n")
    assert lines[:2] == [f"formula: {line(report.formula_side)}",
                         f"enumeration: {line(report.enumeration_side)}"]


def test_presentations_cover_their_kinds():
    """Some singular B has torsion, and some B is unimodular."""
    orders = {name: len(enumerate_torsion(SurgeryPresentation.from_rows(rows)))
              for name, rows, _ in PRESENTATIONS}
    assert any(orders[name] > 1 for name in orders if name.startswith("singular"))
    assert orders["unimodular2"] == orders["hyperbolic"] == orders["empty"] == 1
    assert orders["lens1999"] == 1999


@pytest.mark.parametrize("L", [1, 2, 3, 12, 60, 97, 360])
@pytest.mark.parametrize("m", [1, 4])
def test_format_residue_is_modclass_str(L, m):
    for r in range(m * L):
        assert format_residue(r, L, m) == str(ModClass(Fraction(r, L), m))
