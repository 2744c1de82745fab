"""Property test of the CLI: arbitrary documents and argv for every command.

Whatever it is given, the CLI exits 0, 1 or 2, prints no traceback, writes
exactly one `error:` line when it fails, and answers within a wall-clock
bound (the caps keep every input here small).  The profile is derandomized,
so every run tries the same inputs.
"""

import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combings.cli import COMMANDS, main
from combings.combing import MODIFICATION_KINDS

small = st.integers(-6, 6)
# hypothesis favours small draws, so a rare branch is taken on the top value
rare = st.integers(0, 9).map(lambda k: k == 9)
rationals = st.builds("{}/{}".format, small, st.integers(1, 4))
bad_rationals = st.sampled_from(["", "1/", "1/0", "1/-2", "0.5", "x"])
json_values = st.recursive(
    st.none() | st.booleans() | small | st.floats() | st.text(max_size=4) | bad_rationals,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)


def _symmetric(draw, n, values):
    upper = {(i, j): draw(values) for i in range(n) for j in range(i, n)}
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


@st.composite
def documents(draw):
    """Mostly a well-formed document with n <= 6 (characteristic combings
    included), some keys then dropped, replaced by any JSON or added."""
    if draw(rare):
        return draw(st.text(max_size=12) | json_values.map(json.dumps))
    n = draw(st.integers(0, 6))
    b = _symmetric(draw, n, st.integers(-3, 3))
    vector = st.lists(small, min_size=n, max_size=n)

    def combing():
        c = [x if draw(rare) else b[i][i] % 2 + 2 * x for i, x in enumerate(draw(vector))]
        return {"c": c, "gamma": draw(small)}

    m = draw(st.integers(0, 3))
    framed = {"lambda_matrix": _symmetric(draw, m, rationals)}
    if draw(st.booleans()):
        framed["classes"] = [draw(vector) for _ in range(m)]
    doc = {"linking_matrix": b, "combing": combing(), "combing2": combing(),
           "meridian": draw(vector), "framed": framed, "lambda": draw(rationals)}
    if draw(rare):
        for key in draw(st.lists(st.sampled_from([*doc, "bogus"]), min_size=1, max_size=2)):
            if draw(st.booleans()):
                doc.pop(key, None)
            else:
                doc[key] = draw(json_values)
    return json.dumps(doc)


signs = rare.flatmap(lambda bad: st.sampled_from(["0", "2"] if bad else ["1", "-1"]))
caps = st.integers(-2, 3000).map(str)
FLAGS = {  # the flags each command reads, with the values to try
    "linking-form": {"--cap": caps},
    "image-p1": {"--cap": caps, "--box": st.integers(-2, 6).map(str)},
    "verify": {"--seed": small.map(str)},
    "stabilize": {"--sign": signs, "--c0": small.map(str)},
    "modify": {"--kind": st.sampled_from([*MODIFICATION_KINDS, "bogus"]), "--eta": signs,
               "--lk-euler": rationals | bad_rationals, "--lk-par": rationals | bad_rationals,
               "--r": small.map(str), "--k": small.map(str)},
}
ANY_FLAG = {flag: values for own in FLAGS.values() for flag, values in own.items()}
# no token can be a prefix of --input or --output, so no file is touched
JUNK = st.sampled_from(["", "-", "--", "--bogus", "-x", "1", "-1", "1/0", "--seed=x"])


@st.composite
def argvs(draw, command):
    flags = [f for f in FLAGS.get(command, ()) if not draw(rare)]
    if draw(rare):
        flags.append(draw(st.sampled_from(sorted(ANY_FLAG))))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv += [flag, draw(ANY_FLAG[flag])]
    if draw(rare):
        argv.append(draw(JUNK))
    return argv


@pytest.mark.parametrize("command", COMMANDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(data=st.data())
def test_cli_contract(command, data):
    argv, text = data.draw(argvs(command)), data.draw(documents())
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = main(argv, stdin=io.StringIO(text), stdout=out, stderr=err)
    assert time.perf_counter() - start < 2.0
    err = err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err
    assert err.count("\n") == (code != 0) and err.startswith("error: " if code else "")
