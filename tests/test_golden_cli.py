"""Golden CLI corpus: every document command on a fixed set of documents.

`golden_cli.json` holds argv, stdin, exit code, stdout and stderr of each
case, captured from a trusted build of the CLI; every case must replay
byte for byte.  Regenerate it only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from combings.cli import main

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
