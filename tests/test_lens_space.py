"""theta_g and hf_grading against an outside theorem: the d-invariants of
lens spaces.

Let p/q = [a_1, ..., a_k]^- with every a_i >= 2, and let B be the linear
chain with diagonal -a_i and 1 next to it: a negative-definite plumbing
whose boundary is -L(p, q).  Its signature is -n, so hf_grading(c, 0) is
(c^T B^{-1} c + n) / 4, and the maximum over the characteristic c of one
Spin^c class (c modulo 2 B Z^n) is d(-L(p, q), i) (Ozsvath-Szabo 2003).  The
maximum may be searched over the box -a_i + 2 <= c_i <= a_i, c_i = a_i
(mod 2) (Ozsvath-Szabo, On the Floer homology of plumbed three-manifolds).
The recursion and the class keys come from `_oracles`.
"""

import itertools
from collections import Counter

import pytest

from _oracles import lens_d, spin_c_key
from combings.combing import CombingSpec, hf_grading
from combings.surgery import SurgeryPresentation

# (p, q) with p <= 60 and chains of length at most 6
LENS = (
    (2, 1), (3, 1), (5, 1), (5, 2), (7, 2), (7, 3), (7, 6), (11, 3), (13, 5),
    (17, 5), (19, 7), (19, 16), (23, 9), (29, 12), (31, 11), (37, 10),
    (37, 31), (43, 18), (53, 20), (59, 23), (60, 1), (60, 7), (60, 13),
)


def _chain(p, q):
    """[a_1, ..., a_k] with p/q = a_1 - 1/(a_2 - ...), every a_i >= 2."""
    out = []
    while q:
        a = -(-p // q)
        out.append(a)
        p, q = q, a * q - p
    return out


def _plumbing(chain):
    k = len(chain)
    return [[-chain[i] if i == j else int(abs(i - j) == 1) for j in range(k)] for i in range(k)]


def _block_diagonal(a, b):
    return [list(row) + [0] * len(b) for row in a] + [[0] * len(a) + list(row) for row in b]


def _box(chains):
    """-a_i + 2 <= c_i <= a_i, c_i = a_i (mod 2), chain after chain."""
    return itertools.product(*(range(2 - a, a + 1, 2) for a in itertools.chain(*chains)))


def _extrema(rows, box, pick=max):
    """The class key of each characteristic c in the box mapped to pick of
    hf_grading(c, 0) over the box's vectors of that class."""
    pres = SurgeryPresentation.from_rows(rows)
    key = spin_c_key(rows)
    best = {}
    for c in box:
        k, value = key(c), hf_grading(CombingSpec(pres, c, 0))
        best[k] = value if k not in best else pick(best[k], value)
    return best, key


def _d_multiset(p, q):
    return Counter(lens_d(p, q, i) for i in range(p))


@pytest.mark.parametrize("p, q", LENS)
def test_maxima_are_lens_space_d_invariants(p, q):
    chain = _chain(p, q)
    assert len(chain) <= 6 and min(chain) >= 2
    best, key = _extrema(_plumbing(chain), _box([chain]))
    assert len(best) == p  # the box meets every Spin^c class
    assert Counter(best.values()) == _d_multiset(p, q)
    # conjugation c -> -c keeps each maximum
    for c in _box([chain]):
        assert best[key(tuple(-x for x in c))] == best[key(c)]


@pytest.mark.parametrize("p, q", LENS[:12])
def test_reversed_orientation_gives_minima(p, q):
    """-B bounds L(p, q), whose d-invariants are -d(-L(p, q), i): the
    minimum over a class of (c^T (-B)^{-1} c - n) / 4.  The signature of
    -B is +n, so that is hf_grading(c, 0) + n."""
    chain = _chain(p, q)
    rows = [[-x for x in row] for row in _plumbing(chain)]
    worst, _ = _extrema(rows, _box([chain]), pick=min)
    n = len(chain)
    assert Counter(value + n for value in worst.values()) == Counter(
        -d for d in _d_multiset(p, q).elements()
    )


@pytest.mark.parametrize(
    "first, second", [((2, 1), (3, 1)), ((5, 2), (7, 3)), ((3, 1), (11, 3)), ((5, 1), (13, 5))]
)
def test_connected_sums_add_d_invariants(first, second):
    chains = [_chain(*first), _chain(*second)]
    rows = _block_diagonal(_plumbing(chains[0]), _plumbing(chains[1]))
    best, _ = _extrema(rows, _box(chains))
    want = Counter(
        a + b for a in _d_multiset(*first).elements() for b in _d_multiset(*second).elements()
    )
    assert len(best) == first[0] * second[0]
    assert Counter(best.values()) == want
