"""Golden CLI corpus: every document command on a fixed set of documents.

`golden_cli.json` holds argv, stdin, exit code, stdout and stderr of each
case, captured from a trusted build of the CLI; every case must replay
byte for byte.  Regenerate it only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden_cli.py

`test_replay_by_property` also checks every stored `homology`,
`linking-form` and `framed-class` output by property, whatever kernel basis
or representatives it prints, so a regenerated case can be shown to hold
the same lattice, or the same classes with the same values.
`test_verify_seed_is_pinned` pins the md5 of what `verify` prints on seeds
0, 1, 7 and 123.
"""

import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from operator import mul
from pathlib import Path

import pytest

from _oracles import (
    frac_inverse, frac_rank, frac_solve, naive_det, smith_generators, solve_integer,
)
from combings.cli import main
from combings.linalg import IntMatrix, analysis

CORPUS = Path(__file__).with_name("golden_cli.json")


def run(argv, text):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdin=io.StringIO(text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _random_symmetric(rng, n, bound):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-bound, bound)
    return m


def _documents():
    """(name, document) pairs: empty, lens, plumbing, singular, n >= 10, and
    dense, zero-diagonal and non-cyclic B for the routes of the Hermite box."""
    from combings import SurgeryPresentation, reference_parallelization

    def with_reference(b, **extra):
        c_ref = list(reference_parallelization(SurgeryPresentation.from_rows(b)).c)
        return {"linking_matrix": b, "combing": {"c": c_ref, "gamma": 1}, **extra}

    rng = random.Random(20120912)
    big = _random_symmetric(rng, 10, 3)
    base = _random_symmetric(rng, 11, 3)
    extra = [x + y for x, y in zip(base[0], base[1])]  # row 11 = row 0 + row 1
    big_singular = [row + [extra[i]] for i, row in enumerate(base)]
    big_singular.append(extra + [extra[0] + extra[1]])
    chain10 = [[(2, 3)[i % 2] if i == j else int(abs(i - j) == 1) for j in range(10)]
               for i in range(10)]
    a4 = [[-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1], [0, 0, 1, -2]]
    rng = random.Random(3)
    dense24, dense40 = _random_symmetric(rng, 24, 3), _random_symmetric(rng, 40, 3)
    hollow6 = [[0, 0, -1, 2, 1, 2], [0, 0, -1, -2, 0, -3], [-1, -1, 0, -1, 0, -1],
               [2, -2, -1, 0, 2, 3], [1, 0, 0, 2, 0, 0], [2, -3, -1, 3, 0, 0]]
    # P^T (2 I_8 + diag(3, 3, 12)) P by symmetric row and column steps with a
    # pinned seed: coker (Z/2)^8 + Z/3 + Z/3 + Z/12 needs nine generators
    generators11 = [[(2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 12)[i] * (i == j) for j in range(11)]
                    for i in range(11)]
    rng = random.Random(23)
    for _ in range(22):
        i, j = rng.sample(range(11), 2)
        q = rng.choice((-1, 1))
        generators11[i] = [x + q * y for x, y in zip(generators11[i], generators11[j])]
        for row in generators11:
            row[i] += q * row[j]
    return [
        ("empty", {
            "linking_matrix": [],
            "combing": {"c": [], "gamma": 0},
            "combing2": {"c": [], "gamma": 3},
            "meridian": [],
            "framed": {"lambda_matrix": [["1/2", "1"], ["1", "-3/4"]]},
            "lambda": "1/3",
        }),
        ("unknot+1", {
            "linking_matrix": [[1]],
            "combing": {"c": [3], "gamma": 2},
            "combing2": {"c": [-1], "gamma": 0},
            "meridian": [4],
            "framed": {"lambda_matrix": [["2"]], "classes": [[1]]},
            "lambda": "0",
        }),
        ("lens5", {
            "linking_matrix": [[5]],
            "combing": {"c": [1], "gamma": 0},
            "combing2": {"c": [11], "gamma": -1},
            "meridian": [2],
            "framed": {"lambda_matrix": [["-1/5", "2/5"], ["2/5", "3"]],
                       "classes": [[1], [3]]},
            "lambda": "-1/10",
        }),
        ("lens12", {
            "linking_matrix": [[12]],
            "combing": {"c": [2], "gamma": 1},
            "combing2": {"c": [-22], "gamma": 1},
            "meridian": [5],
            "lambda": "7/4",
        }),
        ("diag23", {
            "linking_matrix": [[2, 0], [0, 3]],
            "combing": {"c": [0, 1], "gamma": 0},
            "combing2": {"c": [4, 7], "gamma": 2},
            "meridian": [1, 1],
            "framed": {"lambda_matrix": [["1/2", "1/3"], ["1/3", "0"]],
                       "classes": [[1, 0], [0, 1]]},
        }),
        ("a4", with_reference(a4, meridian=[1, 0, 1, 0],
                              framed={"lambda_matrix": [["3/4"]],
                                      "classes": [[1, 0, 1, 0]]},
                              **{"lambda": "0"})),
        ("s1xs2", {
            "linking_matrix": [[0]],
            "combing": {"c": [2], "gamma": 0},
            "combing2": {"c": [0], "gamma": 0},
            "meridian": [0],
        }),
        ("singular-torsion", {
            "linking_matrix": [[2, 2], [2, 2]],
            "combing": {"c": [4, 4], "gamma": -2},
            "combing2": {"c": [0, 0], "gamma": 0},
            "meridian": [2, 2],
            "framed": {"lambda_matrix": [["1", "0"], ["0", "1"]],
                       "classes": [[2, 2], [1, -1]]},
        }),
        ("singular-free", {
            "linking_matrix": [[1, 1, 0], [1, 1, 0], [0, 0, 3]],
            "combing": {"c": [1, -1, 1], "gamma": 0},
            "combing2": {"c": [3, 3, 1], "gamma": 1},
            "meridian": [1, 0, 0],
        }),
        ("zero2", {
            "linking_matrix": [[0, 0], [0, 0]],
            "combing": {"c": [0, 2], "gamma": 0},
            "combing2": {"c": [0, 0], "gamma": 0},
            "meridian": [0, 0],
        }),
        ("n10", with_reference(big, meridian=[1] + [0] * 9,
                               framed={"lambda_matrix": [["1/2"]],
                                       "classes": [[0, 1] + [0] * 8]})),
        ("chain10", with_reference(chain10, meridian=[1, 0] * 5,
                                   framed={"lambda_matrix": [["0", "1"], ["1", "1/3"]],
                                           "classes": [[1] * 10, [0, 1] * 5]})),
        ("n12-singular", with_reference(big_singular)),
        ("not-characteristic", {
            "linking_matrix": [[2, 1], [1, 2]],
            "combing": {"c": [1, 0], "gamma": 0},
        }),
        # no meridian, so linking-form prints the whole enumeration
        ("lens12-classes", with_reference([[12]])),
        ("singular-z2z6", with_reference([[4, 2, 6], [2, -2, 0], [6, 0, 6]])),
        # a nonsingular B with three box factors (5, 3, 2), the last one small,
        # and an off-diagonal torsion form
        ("three-factor", with_reference([[2, 3, 0], [3, -5, 2], [0, 2, -2]])),
        # dense B whose box questions read the functional a = adj(B) (1, ..., 1):
        # gcd(a, det B) is 1 at n = 24 and 2 at n = 40 (test_functional_documents)
        ("dense24", with_reference(dense24, framed={"lambda_matrix": [["2/3"]],
                                                    "classes": [[1, -1] * 12]})),
        ("dense40", with_reference(dense40, framed={"lambda_matrix": [["-1/2"]],
                                                    "classes": [[0, 2, -1, 1] * 10]})),
        # a zero diagonal, so the symmetric pass starts with e_0 -> e_0 + e_partner;
        # det B = -76
        ("hollow6", with_reference(hollow6, framed={"lambda_matrix": [["1"]],
                                                    "classes": [[1, 2, 3, 4, 5, 6]]})),
        # P^T diag(2, 2, 4, 3) P: coker Z/2 + Z/2 + Z/12 is not cyclic
        ("noncyclic", with_reference([[13, 0, -2, -9], [0, 4, 8, 0], [-2, 8, 18, 2],
                                      [-9, 0, 2, 7]])),
        # a cokernel with nine generators, so the box reads many adjugate
        # columns before they cut out B Z^n
        ("generators11", with_reference(generators11, meridian=[1] * 11,
                                        framed={"lambda_matrix": [["1/2"]],
                                                "classes": [[1, 0] * 5 + [1]]})),
        # singular, H_1 = Z + Z/2: image-p1 --box 3 sweeps non-torsion c too,
        # and only the kernel filter keeps them out of the enumeration
        ("singular-z-z2", with_reference([[-2, -2, -2], [-2, 2, 0], [-2, 0, -1]])),
    ]


def _argvs(n):
    box = ["--box", "1"] if n >= 10 else (["--box", "3"] if n >= 3 else [])
    return [
        ["homology"],
        ["linking-form"],
        ["linking-form", "--cap", "4"],
        ["theta-g"],
        ["p1"],
        ["spinc-equal"],
        ["combing-equal"],
        ["orbit-modulus"],
        ["hf-grading"],
        ["image-p1", *box],
        ["parity"],
        ["framed-total"],
        ["framed-class"],
        ["pontrjagin-p1"],
        ["stabilize", "--sign", "-1", "--c0", "3"],
        ["stabilize", "--sign", "1", "--c0", "1"],
        ["modify", "--kind", "D", "--eta", "1", "--lk-euler", "1/2", "--lk-par", "-1/3"],
        ["modify", "--kind", "global-Z", "--lk-par", "2"],
        ["modify", "--kind", "r-twist", "--eta", "-1", "--r", "2"],
        ["modify", "--kind", "half-twist", "--k", "3"],
        ["modify", "--kind", "D"],
        ["theta"],
    ]


def _cases():
    cases = []
    for name, doc in _documents():
        text = json.dumps(doc)
        for argv in _argvs(len(doc["linking_matrix"])):
            cases.append({"name": name, "argv": argv, "stdin": text})
    cases.append({"name": "verify", "argv": ["verify", "--seed", "0"], "stdin": ""})
    return cases


def capture():
    corpus = []
    for case in _cases():
        code, out, err = run(case["argv"], case["stdin"])
        corpus.append({**case, "code": code, "stdout": out, "stderr": err})
    return corpus


def _load():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


# a missing corpus fails the coverage test below rather than the import
@pytest.mark.parametrize(
    "case", _load() if CORPUS.exists() else [], ids=lambda c: f"{c['name']}:{' '.join(c['argv'])}"
)
def test_golden_case(case):
    assert run(case["argv"], case["stdin"]) == (
        case["code"], case["stdout"], case["stderr"]
    )


def test_corpus_replays_in_any_memo_history():
    """A vector question is answered by one solve or by `form` depending on
    what the memo entry was asked before, and never differently: the whole
    corpus replays byte for byte in one process with the memo cleared
    before each case, in corpus order, and in reverse order."""
    cases = _load()
    for order, clear in ((cases, True), (cases, False), (cases[::-1], False)):
        analysis.cache_clear()
        for case in order:
            if clear:
                analysis.cache_clear()
            got = run(case["argv"], case["stdin"])
            assert got == (case["code"], case["stdout"], case["stderr"]), (clear, case["name"])


def _replay_case(argv, doc, stdout):
    """Check one successful linking-form or framed-class output by property,
    whatever representatives it prints: each printed class is the class it
    stands for (the input's, or a distinct torsion class per entry), its
    value is -v^T B^{-1} v mod 1, and for nonsingular B every coordinate is
    bounded by |det B|.  B^{-1} comes from the Fraction oracle; for singular
    B, lattice membership from solve_integer and values from any rational
    solution of B x = v."""
    b = doc["linking_matrix"]
    inv, det = frac_inverse(b)
    bound = abs(det)

    def solve(v):
        if inv is not None:
            return [sum(map(mul, row, v)) for row in inv]
        return frac_solve(b, v)[0]

    def in_lattice(v):
        if inv is not None:
            return all(x.denominator == 1 for x in solve(v))
        return solve_integer(IntMatrix.from_rows(b), v) is not None

    def ell(v):
        return f"{-sum(map(mul, v, solve(v))) % 1} (mod 1)"

    def bounded(v):
        return inv is None or all(abs(x) <= bound for x in v)

    if argv[0] == "framed-class":
        obj = json.loads(stdout)
        total = [sum(col) for col in zip(*doc["framed"]["classes"])]
        assert in_lattice([x - y for x, y in zip(obj["class"], total)])
        assert bounded(obj["class"])
    elif doc.get("meridian") is not None:
        assert stdout == ell(doc["meridian"]) + "\n"
    else:
        entries = json.loads(stdout)
        reps = [e["class"] for e in entries]
        for rep, e in zip(reps, entries):
            assert e["ell"] == ell(rep) and bounded(rep)
        for i, v in enumerate(reps):
            for w in reps[i + 1 :]:
                assert not in_lattice([x - y for x, y in zip(v, w)])
        if inv is not None:
            assert len(reps) == bound


def _replay_homology(doc, stdout):
    """Check one homology output by property: the kernel basis has betti_1 =
    n - rank B vectors, each annihilated by B, and it is saturated, the gcd
    of its k x k minors being 1; the invariant factors exceed 1, each
    divides the next, and their product is the torsion order."""
    b = doc["linking_matrix"]
    obj = json.loads(stdout)
    kernel = obj["kernel_basis"]
    assert len(kernel) == obj["betti_1"] == len(b) - frac_rank(b)
    for z in kernel:
        assert not any(sum(map(mul, row, z)) for row in b)
    minors = 0
    for rows in itertools.combinations(range(len(b)), len(kernel)):
        minors = math.gcd(minors, naive_det([[z[i] for z in kernel] for i in rows]))
    assert minors == 1
    factors = obj["invariant_factors"]
    assert all(d > 1 for d in factors)
    assert all(e % d == 0 for d, e in zip(factors, factors[1:]))
    assert math.prod(factors) == obj["torsion_order"]


def test_replay_by_property():
    """Every stored homology, linking-form and framed-class output that
    succeeded holds by property: kernel bases and representatives may
    change, lattices, classes and values may not."""
    replayed = homologies = 0
    for case in _load():
        if case["code"] != 0:
            continue
        if case["argv"][0] in ("linking-form", "framed-class"):
            _replay_case(case["argv"], json.loads(case["stdin"]), case["stdout"])
            replayed += 1
        elif case["argv"][0] == "homology":
            _replay_homology(json.loads(case["stdin"]), case["stdout"])
            homologies += 1
    assert replayed >= 29
    assert homologies == len(_documents())


def test_functional_documents():
    """The dense documents pin both routes of the box: with a = adj(B) c for
    c = (1, ..., 1), gcd(a, det B) is 1 for dense24 and 2 for dense40.  The
    cokernel of generators11 needs nine generators (its Smith form, through
    the oracle)."""
    docs = dict(_documents())
    for name, want in (("dense24", 1), ("dense40", 2)):
        inv, det = frac_inverse(docs[name]["linking_matrix"])
        assert math.gcd(det, *(int(det * sum(row)) for row in inv)) == want
    generators = smith_generators(IntMatrix.from_rows(docs["generators11"]["linking_matrix"]))
    assert sorted(d for _, d in generators) == [2] * 6 + [6, 6, 12]


def test_corpus_covers_every_document_command():
    from combings.cli import COMMANDS

    seen = {case["argv"][0] for case in _load()}
    assert seen == set(COMMANDS)


@pytest.mark.parametrize("seed, digest", [
    (0, "de8ad0578f1671d22a5d90acaf710f48"),
    (1, "01e38e84c428c922c7d58c92deed45ca"),
    (7, "7ec371aedbc65c202619f20cdf94e8d6"),
    (123, "2712f2ca2544707fd4c03acfb8acb5f3"),
])
def test_verify_seed_is_pinned(seed, digest):
    """The md5 of what `verify --seed s` prints; seed 0 is also a corpus
    case, replayed byte for byte."""
    code, out, err = run(["verify", "--seed", str(seed)], "")
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, argv", [("verify", ["verify", "--seed", "0"]),
                                        ("s1xs2", ["theta-g"])])
def test_fresh_process_replays_case(name, argv):
    """`python -m combings.cli` in a new interpreter (through `console`)
    replays the verify battery, and a non-torsion theta-g that exits 2 with
    one `error: NonTorsion:` line."""
    (case,) = [c for c in _load() if c["name"] == name and c["argv"] == argv]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "combings.cli", *argv], input=case["stdin"],
                          capture_output=True, text=True, env=env, timeout=60)
    got = (proc.returncode, proc.stdout, proc.stderr)
    assert got == (case["code"], case["stdout"], case["stderr"])


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(capture(), indent=1) + "\n", encoding="utf-8")
