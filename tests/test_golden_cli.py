"""Golden CLI corpus: every document command on a fixed set of documents.

`golden_cli.json` holds argv, stdin, exit code, stdout and stderr of each
case, captured from a trusted build of the CLI; every case must replay
byte for byte.  Regenerate it only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden_cli.py

`test_replay_by_property` also checks every stored `homology`,
`linking-form` and `framed-class` output by property, whatever kernel basis
or representatives it prints, so a regenerated case can be shown to hold
the same lattice, or the same classes with the same values.
"""

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

from _oracles import frac_inverse, frac_rank, frac_solve, naive_det, solve_integer
from combings.cli import main
from combings.linalg import IntMatrix

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
    """(name, document) pairs: empty, lens, plumbing, singular and n >= 10."""
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


def test_corpus_covers_every_document_command():
    from combings.cli import COMMANDS

    seen = {case["argv"][0] for case in _load()}
    assert seen == set(COMMANDS)


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
