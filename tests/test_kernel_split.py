"""Singular B through its nonsingular core, against the Smith reference.

Every lattice question on a singular symmetric B is answered through the
split Z^n = W_1 Z^r + K Z^k along ker B (`linalg.KernelSplit`) and the
Hermite box of the core B' = W_1^T B W_1.  Here the answers are checked
against the Smith form with transforms, which the library never builds
for them: `smith_coordinates`, `smith_generators` and `smith_kernel` in
`_oracles`, the Fraction solve for the linking form, and an echelon form
by 2 x 2 extended-gcd steps for the kernel lattice.
"""

import io
import json
import math
import random
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest

from _oracles import echelon, frac_solve, smith_coordinates, smith_generators, smith_kernel
from combings import linalg
from combings.cli import main
from combings.combing import reference_parallelization
from combings.linalg import IntMatrix, analysis, smith_normal_form
from combings.surgery import SurgeryPresentation, homology_summary, reduce_class, torsion_residues
from combings.verify import random_symmetric, random_unimodular

MAX_ORDER = 1000


def _diagonal(d):
    return IntMatrix.from_rows([[x * (i == j) for j in range(len(d))] for i, x in enumerate(d)])


def _torsion_order(b):
    return math.prod(d for d in smith_normal_form(b).diag if d > 1)


def _pdp(rng, n):
    """P^T D P with 1..n zeros in D, so D = 0 now and then."""
    d = [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in range(n)]
    for i in rng.sample(range(n), rng.randint(1, n)):
        d[i] = 0
    p = random_unimodular(rng, n, steps=2 * n)
    return p.transpose() @ _diagonal(d) @ p


def _ata(rng, n):
    """A^T D A for a random r x n matrix A with r < n."""
    r = rng.randint(0, n - 1)
    d = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r)]
    a = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)])
    return a.transpose() @ _diagonal(d) @ a if r else _diagonal([0] * n)


def _hollow(rng, n):
    """A hollow (zero-diagonal) singular B: a hollow H on n - 1 coordinates,
    zero on a set S, extended by the coordinate x_S c for a c supported on S,
    so c^T H c = 0 keeps the diagonal zero, then permuted."""
    m = n - 1
    h = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            h[i][j] = h[j][i] = rng.randint(-4, 4)
    s = rng.sample(range(m), rng.randint(1, min(m, 3)))
    for i in s:
        for j in s:
            h[i][j] = 0
    c = [rng.choice((-2, -1, 1, 2)) if i in s else 0 for i in range(m)]
    hc = [sum(map(mul, row, c)) for row in h]
    rows = [row + [x] for row, x in zip(h, hc)] + [hc + [0]]
    perm = rng.sample(range(n), n)
    return IntMatrix.from_rows([[rows[i][j] for j in perm] for i in perm])


def _family(seed, count):
    """Seeded singular B with n <= 8 and torsion order <= MAX_ORDER, one
    third each from `_pdp`, `_ata` and `_hollow`."""
    out = []
    for k in range(count):
        rng = random.Random(f"{seed}:{k}")
        make = (_pdp, _ata, _hollow)[k % 3]
        while True:
            b = make(rng, rng.randint(2 if make is _hollow else 1, 8))
            if _torsion_order(b) <= MAX_ORDER:
                break
        out.append((rng, SurgeryPresentation(b)))
    return out


FAMILY = _family(71, 108)


def _large(n, k, seed):
    """P^T (B_0 + 0_k) P with B_0 a random symmetric (n - k)-square matrix."""
    rng = random.Random(f"{seed}:{n}:{k}")
    b = random_symmetric(rng, n - k, 5).direct_sum(_diagonal([0] * k))
    p = random_unimodular(rng, n, steps=2 * n)
    return rng, SurgeryPresentation(p.transpose() @ b @ p)


def test_family_is_singular_and_covers_its_kinds():
    hollow = 0
    for k, (_, pres) in enumerate(FAMILY):
        assert smith_normal_form(pres.matrix).rank < pres.n
        if k % 3 == 2:
            hollow += not any(pres.matrix.diagonal())
    assert hollow == len(FAMILY) // 3
    assert sum(1 for _, p in FAMILY if not any(p.matrix.entries)) >= 3  # D = 0
    assert sum(1 for _, p in FAMILY if _torsion_order(p.matrix) > 1) >= len(FAMILY) // 2


def _check(rng, pres, enumerate_classes):
    """The split route against the Smith reference on one singular B."""
    b = pres.matrix
    diag = smith_normal_form(b).diag
    coords = smith_coordinates(b)
    summary = homology_summary(pres)
    order = math.prod(d for d in diag if d > 1)
    assert summary.invariant_factors == tuple(d for d in diag if d > 1)
    assert summary.betti_1 == diag.count(0) > 0
    assert summary.dim_h1_mod2 == sum(1 for d in diag if d % 2 == 0)
    assert summary.torsion_order == order
    assert summary.kernel_basis == echelon(smith_kernel(b))
    data = analysis(b)
    gens = smith_generators(b)

    def vector(bound):
        return [rng.randint(-bound, bound) for _ in range(pres.n)]

    for _ in range(5):
        v = vector(9)
        bu = b.matvec(vector(3))
        t = [sum(rng.randrange(d) * g[i] for g, d in gens) for i in range(pres.n)]
        for w in (v, bu, t, [x + y for x, y in zip(t, bu)]):
            assert data.in_lattice(w) == (not any(coords(w)))
            rep = reduce_class(pres, w)
            assert rep == reduce_class(pres, [x + y for x, y in zip(w, b.matvec(vector(3)))])
            assert not any(coords([x - y for x, y in zip(rep, w)]))  # rep - w in B Z^n
    if not enumerate_classes:
        return
    L, got = torsion_residues(pres, cap=MAX_ORDER)
    assert len(got) == order == len({coords(rep) for rep, _ in got})
    for rep, r in got:
        x = frac_solve(b.to_rows(), rep)[0]
        assert Fraction(r, L) == -sum((Fraction(a) * y for a, y in zip(rep, x)), Fraction(0)) % 1


@pytest.mark.parametrize("index", range(len(FAMILY)))
def test_split_matches_smith_reference(index):
    """Invariant factors, betti_1, dim_h1_mod2, torsion order, the echelon
    kernel basis, lattice membership, reduce_class and the enumerated
    classes with their values, against the Smith reference."""
    _check(*FAMILY[index], enumerate_classes=True)


@pytest.mark.parametrize("n, k", [(20, 1), (20, 3), (40, 2)])
def test_split_matches_smith_reference_large(n, k):
    """The same at n = 20 and 40, without the enumeration: the torsion
    orders there have over a hundred bits."""
    _check(*_large(n, k, 5), enumerate_classes=False)


def _run(argv, doc):
    out = io.StringIO()
    code = main(argv, stdin=io.StringIO(json.dumps(doc)), stdout=out, stderr=io.StringIO())
    return code, out.getvalue()


def test_n40_representatives_stay_small():
    """On a pinned n = 40, rank-38 P^T (B_0 + 0_2) P, framed-class prints
    representatives of at most torsion_order.bit_length() + 16 bits, for a
    torsion class and for a free one; the Smith route printed ~2 400."""
    rng = random.Random("n40")
    b0 = random_symmetric(rng, 38, 5).direct_sum(_diagonal([0, 0]))
    p = random_unimodular(rng, 40, steps=80)
    b = p.transpose() @ b0 @ p
    torsion = list(p.row(0))  # P^T e_0 pairs to zero with ker B = P^{-1} <e_38, e_39>
    code, out = _run(["homology"], {"linking_matrix": b.to_rows()})
    summary = json.loads(out)
    assert code == 0 and summary["betti_1"] == 2
    bound = summary["torsion_order"].bit_length() + 16
    for cls in (torsion, [1] + [0] * 39):
        doc = {"linking_matrix": b.to_rows(),
               "framed": {"lambda_matrix": [["1"]], "classes": [cls]}}
        code, out = _run(["framed-class"], doc)
        rep = json.loads(out)["class"]
        assert code == 0 and max(abs(x).bit_length() for x in rep) <= bound
    assert sum(map(mul, torsion, summary["kernel_basis"][0])) == 0


def test_singular_commands_build_no_smith_form(monkeypatch):
    """homology, framed-class, linking-form, spinc-equal, combing-equal,
    orbit-modulus and image-p1 on seeded singular B never run a bordered
    Smith pass, the one every copy of `smith_normal_form` runs, and all
    seven run one symmetric pass on each B and one on its core."""
    docs = []
    for _, pres in FAMILY[:24]:
        b = pres.matrix
        c = list(reference_parallelization(pres).c)
        c2 = [x + 2 * y for x, y in zip(c, b.row(0))]
        v = [1] + [0] * (pres.n - 1)
        docs.append({"linking_matrix": b.to_rows(), "combing": {"c": c, "gamma": 0},
                     "combing2": {"c": c2, "gamma": 1},
                     "framed": {"lambda_matrix": [["1"]], "classes": [v]}})
    calls = []
    passes = Counter()
    diagonalize, signature_pass = linalg._diagonalize, linalg._signature

    def counting_diagonalize(m, r=None, c=None):
        if r is not None:
            calls.append(m)
        return diagonalize(m, r, c)

    def counting_signature(s):
        passes[s] += 1
        return signature_pass(s)

    monkeypatch.setattr(linalg, "_diagonalize", counting_diagonalize)
    monkeypatch.setattr(linalg, "_signature", counting_signature)
    analysis.cache_clear()
    for doc in docs:
        b = IntMatrix.from_rows(doc["linking_matrix"])
        passes.clear()
        for argv in (["homology"], ["framed-class"], ["linking-form"], ["spinc-equal"],
                     ["combing-equal"], ["orbit-modulus"], ["image-p1", "--box", "1"]):
            code, _ = _run(argv, doc)
            assert code == 0, (argv, doc)
        assert passes[b] == 1 and sorted(passes.values()) == [1, 1], doc
    assert calls == []
