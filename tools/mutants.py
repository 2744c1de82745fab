"""Run the committed list of mutants and report which the tests kill.

Each mutant replaces one source fragment, which must occur exactly once in
its file, in a fresh copy of `src/`, `tests/`, `pyproject.toml` and
`README.md` (whose examples `tests/test_package.py` replays), and runs
`python -m pytest -q -x -p no:cacheprovider` on the tests listed for it (test
files, or node ids where one file is slow).  A mutant is killed when those
tests fail or run out of time or memory, survived when they pass, and stale
when its fragment no longer occurs exactly once or its tests select nothing
(pytest exits 4 on a node id it does not find, 5 when it collects no test):
a change to the code or the tests it targets must then re-anchor or retire
it.  A control run of every selected test on the unmutated tree comes
first, so that a kill means the mutant failed them.  The exit status is
nonzero if the control fails or any mutant survived or is stale.  Standard
library only; pytest does not collect it.

    python tools/mutants.py [ID ...]
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
MEMORY = 1 << 30  # address-space limit of each test run, in bytes
TIMEOUT = 600.0  # seconds of each test run before it counts as failed
# a mutant's status by pytest's exit status on its tests; any other fails them
STATUS = {0: "survived", 4: "stale", 5: "stale"}


class Mutant(NamedTuple):
    id: str
    file: str
    fragment: str
    replacement: str
    tests: tuple[str, ...]


LINALG = "src/combings/linalg.py"
CLI = "src/combings/cli.py"
VERIFY = "src/combings/verify.py"
SURGERY = "src/combings/surgery.py"
COMBING = "src/combings/combing.py"
DOCUMENT = "src/combings/document.py"
PACKAGE = "src/combings/__init__.py"
ERRORS = "src/combings/errors.py"
FRAMED = "src/combings/framed.py"
FAILING_CHECK = "tests/test_cli.py::TestDeterminism::test_verify_reports_a_failing_check"
MOD2 = "tests/test_linalg.py::TestMod2::test_diagonal_always_solvable"

MUTANTS = (
    Mutant("in-lattice-skips-r1", LINALG,
           "y = map(sum, map(map, repeat(mul), self.split.rows, repeat(y)))", "pass",
           ("tests/test_kernel_split.py",)),
    Mutant("solution-never-asked", LINALG,
           "self._asked = True", "self._asked = False",
           ("tests/test_integer_form.py",)),
    Mutant("warm-solution-divides-by-d-r", LINALG,
           "return self._product(w), self.form.L", "return self._product(w), self._pass.minor",
           ("tests/test_integer_form.py",)),
    Mutant("torsion-form-reads-col-0", LINALG,
           "factors=tuple(self.box[i][i] for i in positions)",
           "factors=tuple(self.box[i].get(0, 0) for i in positions)",
           ("tests/test_surgery.py", "tests/test_residues.py")),
    Mutant("p1-image-drops-scale", COMBING,
           "tf.values(4 * form.L // tf.L,", "tf.values(4,",
           ("tests/test_residues.py",)),
    Mutant("integer-form-drops-sign", LINALG,
           "* (1 if scale > 0 else -1)", "",
           ("tests/test_bareiss.py::test_integer_form_is_pinned",)),
    Mutant("meridian-pairing-sign", SURGERY,
           "return -data.pairing(v, w)", "return data.pairing(v, w)",
           ("tests/test_surgery.py",)),
    # each modification is the reframing D with some arguments fixed: one
    # formula, and a row of the table for each kind
    Mutant("modification-d-eta-sign", COMBING,
           "e * le - lp", "-e * le - lp",
           ("tests/test_acceptance.py",)),
    Mutant("modification-r-twist-sign", COMBING,
           '("eta", "r", 0)', '("eta", 0, "r")',
           ("tests/test_acceptance.py",)),
    Mutant("modification-half-twist-sign", COMBING,
           '(1, 0, "k")', '(1, "k", 0)',
           ("tests/test_acceptance.py",)),
    Mutant("modification-global-z-sign", COMBING,
           '(1, 0, "lk_par")', '(1, "lk_par", 0)',
           ("tests/test_acceptance.py",)),
    # combing_equal reads both answers off one solution of (c - c') / 2
    Mutant("combing-equal-reads-2c", COMBING,
           "map(add, x.c, y.c)", "map(add, x.c, x.c)",
           ("tests/test_combing.py::TestCombingEqual",)),
    Mutant("combing-equal-gamma-swapped", COMBING,
           "j = y.gamma_offset - x.gamma_offset", "j = x.gamma_offset - y.gamma_offset",
           ("tests/test_combing.py::TestCombingEqual",)),
    Mutant("combing-equal-skips-spinc", COMBING,
           "data._integral(v, d) and ", "",
           ("tests/test_combing.py::TestCombingEqual", "tests/test_package.py::TestReadmeExamples")),
    Mutant("torsion-order-drops-det-a", LINALG,
           "return abs(p.minor) // (p.kernel_scale // t) ** 2", "return abs(p.minor)",
           ("tests/test_kirby.py", "tests/test_hermite.py")),
    Mutant("kernel-scale-never-accumulated", LINALG,
           "scale *= abs(z[i])", "scale *= 1",
           ("tests/test_bareiss.py", "tests/test_hermite.py")),
    Mutant("singular-box-skips-r1", LINALG,
           "[sum(map(mul, x, y)) // square for x in rows]", "[e // square for e in y]",
           ("tests/test_hermite.py",)),
    # the two-step sweep of `_signature`, pivots k and k+1 at once
    Mutant("two-step-divides-by-d-k", LINALG,
           "scale, square = after * prev, prev * prev", "scale, square = after * prev, prev",
           ("tests/test_bareiss.py",)),
    Mutant("two-step-z-factor-sign", LINALG,
           "fy, fz = b * v - d * u, b * u - p * v", "fy, fz = b * v - d * u, p * v - b * u",
           ("tests/test_bareiss.py",)),
    Mutant("two-step-without-fallback", LINALG,
           "if after := (p * d - b * b) // prev:", "if (after := (p * d - b * b) // prev) or True:",
           ("tests/test_bareiss.py",)),
    Mutant("two-step-skips-row-k1", LINALG,
           "pl[k + 1 :] = [(p * z - b * y) // prev for y, z in zip(pk[k + 1 :], pl[k + 1 :])]",
           "pass",
           ("tests/test_bareiss.py",)),
    # the partner step, the substitution, the box and the torsion table
    Mutant("partner-step-skips-column", LINALG,
           "row[k] += row[partner]", "pass",
           ("tests/test_bareiss.py",)),
    Mutant("substitute-skips-scaling-to-stage-j", LINALG,
           "w[j:k] = [before * x for x in w[j:k]]", "pass",
           ("tests/test_bareiss.py",)),
    Mutant("substitute-keeps-before", LINALG,
           "before = p", "pass",
           ("tests/test_bareiss.py",)),
    Mutant("box-columns-from-the-first", LINALG,
           "zip(reversed(columns), reversed(steps))", "zip(columns, steps)",
           ("tests/test_hermite.py",)),
    Mutant("box-drops-d-scaling", LINALG,
           "col[k] *= d", "col[k] *= 1",
           ("tests/test_hermite.py",)),
    Mutant("box-digit-row-shifted", LINALG,
           "digits.append((i, y))", "digits.append((i - 1, y))",
           ("tests/test_hermite.py",)),
    Mutant("kernel-in-split-order", LINALG,
           "reversed(splits)", "splits",
           ("tests/test_bareiss.py",)),
    Mutant("solve-partner-step-transposed", LINALG,
           "w[k] += w[i]", "w[i] += w[k]",
           ("tests/test_bareiss.py",)),
    # the one walk: the torsion table and the image-p1 sweep, in chunks
    Mutant("table-drops-q-jj", LINALG,
           "[Q[j][j] + b[j] for j in range(k)]", "list(b)",
           ("tests/test_residues.py",)),
    Mutant("table-column-repeats", LINALG,
           "map(range, xs, map(add, xs, repeat(m * g)), repeat(g))",
           "map(repeat, xs, repeat(m))",
           ("tests/test_residues.py",)),
    Mutant("walk-chunk-starts-late", LINALG,
           "initial=sl + second * t), q + (sl + second * (t - 1) // 2) * t",
           "initial=sl + second * (t + 1)), q + (sl + second * t // 2) * (t + 1)",
           ("tests/test_residues.py",)),
    Mutant("sweep-drops-linear-term", COMBING,
           "[4 * x for x in gs]", "[0] * len(gs)",
           ("tests/test_residues.py",)),
    Mutant("sweep-skips-kernel-filter", COMBING,
           "itertools.compress(part, torsion) if kernel else part", "part",
           ("tests/test_residues.py",
            "tests/test_golden_cli.py::test_golden_case[singular-z-z2:image-p1 --box 3]")),
    # the F_2 elimination on bit-mask rows behind c_ref and dim H_1(M; F_2)
    Mutant("mod2-skips-row-swap", LINALG,
           "rows[k], rows[pivot] = rows[pivot], rows[k]",
           "rows[k], rows[pivot] = rows[k], rows[pivot]",
           (MOD2,)),
    Mutant("mod2-eliminates-below-only", LINALG,
           "if i != k and rows[i] >> j & 1", "if i > k and rows[i] >> j & 1",
           (MOD2,)),
    Mutant("mod2-reads-bit-n-minus-1", LINALG,
           "u[j] = rows[k] >> n & 1", "u[j] = rows[k] >> n - 1 & 1",
           (MOD2,)),
    # G c off G's packed columns: warm vector questions and the reference's p_1
    Mutant("p1-image-reference-unpaired", COMBING,
           "sum(map(mul, data.c_ref, data._product(data.c_ref)))",
           "sum(map(mul, data.c_ref, data.c_ref))",
           ("tests/test_residues.py",)),
    Mutant("theta-constant-unscaled", COMBING,
           "q + _theta_constant(data) * d", "q + _theta_constant(data)",
           ("tests/test_integer_form.py",)),
    Mutant("warm-square-divides-by-d-r", LINALG,
           "return sum(map(mul, c, y)), d", "return sum(map(mul, c, y)), self._pass.minor",
           ("tests/test_integer_form.py",)),
    Mutant("packed-drops-bias", LINALG,
           "total = sum(map(mul, columns, c)) + bias", "total = sum(map(mul, columns, c))",
           ("tests/test_integer_form.py::test_packed_product_is_g_c",)),
    # the width check admits only the first packing: room < 0, nothing packed
    Mutant("packed-never-widens", LINALG,
           "if bits > room:", "if room < 0:",
           ("tests/test_integer_form.py::test_packed_product_is_g_c",)),
    Mutant("packed-width-ignores-n", LINALG,
           "extra = top.bit_length() + n.bit_length() + 2", "extra = top.bit_length() + 2",
           ("tests/test_integer_form.py::test_packed_slots_hold_n_entries_at_their_bound",)),
    # error paths: a missing flag or a malformed entry is a typed error
    Mutant("r-twist-without-its-flags", COMBING,
           '"r-twist": ("eta", "r", 0)', '"r-twist": (1, 0, 0)',
           ("tests/test_cli.py::TestTransformingCommands::test_modify_without_its_flags",)),
    Mutant("modification-needs-nothing", COMBING,
           "if None in map(given.get, reads):", "if False:",
           ("tests/test_cli.py::TestTransformingCommands::test_modify_without_its_flags",)),
    Mutant("framed-need-not-be-an-object", DOCUMENT,
           'raise ParseError("framed must be an object")', "pass",
           ("tests/test_document.py::test_validation_messages_are_pinned",)),
    # the battery's failure path: a failing check must fail the report
    Mutant("verify-exits-0-on-failure", CLI,
           "return 0 if all(r.ok for r in results) else 2", "return 0",
           (FAILING_CHECK,)),
    Mutant("report-prints-pass-for-failure", VERIFY,
           'status = "pass" if res.ok else f"FAIL ({res.failures} failures{error})"',
           'status = "pass"',
           (FAILING_CHECK,)),
    Mutant("run-check-counts-no-failures", VERIFY,
           "return CheckResult(name, len(failed), sum(failed), error)",
           "return CheckResult(name, len(failed), 0, error)",
           (FAILING_CHECK,)),
    # a check that raises is one failing case, and the battery goes on
    Mutant("run-check-stops-at-an-exception", VERIFY,
           "except Exception as exc:  # a bug", "except OSError as exc:  # a bug",
           (FAILING_CHECK,)),
    # each distinct argv keeps its own parse; symmetry is checked where a
    # bare matrix enters
    Mutant("argv-memo-keys-command-only", CLI,
           "    return build_parser().parse_args(list(argv))",
           "    return _parse.__dict__.setdefault(argv[:1], build_parser().parse_args(list(argv)))",
           ("tests/test_cli.py::TestDeterminism::test_parse_memo_keeps_no_refusal",)),
    Mutant("signature-skips-symmetry-check", LINALG,
           'if not s.is_symmetric():\n        raise InvalidInputError("signature needs a symmetric matrix")\n'
           "    return analysis(s).signature",
           "return analysis(s).signature",
           ("tests/test_linalg.py::TestSignature::test_rejects_nonsymmetric",)),
    # the public names are the imports, less the submodules they bind; a
    # --help request is written where main writes, and main returns
    Mutant("all-exports-submodules", PACKAGE,
           " and not isinstance(value, _ModuleType)", "",
           ("tests/test_package.py::TestAll::test_public_names_are_pinned",)),
    Mutant("help-escapes-main", CLI,
           "raise _Help(self.format_help())", "super().print_help(file)",
           ("tests/test_cli.py::TestErrorChannel::test_help_is_written_to_the_given_stdout",)),
    # an error's code is its class name less "Error"; the image battery is a
    # slice of the built-in matrices; random framed links draw torsion
    # classes, not classes of B Z^n, which are all zero in H_1
    Mutant("domain-code-keeps-suffix", ERRORS,
           'removesuffix("Error")', 'removesuffix("")',
           ("tests/test_cli.py::TestErrorChannel::test_every_domain_error_code_is_pinned",)),
    Mutant("image-battery-one-short", VERIFY,
           "BUILTIN_MATRICES[3:9]", "BUILTIN_MATRICES[3:8]",
           ("tests/test_golden_cli.py::test_verify_seed_is_pinned",)),
    Mutant("framed-classes-in-lattice", VERIFY,
           "classes = [random_torsion_vector(rng, pres) for _ in range(n)]",
           "classes = [pres.matrix.matvec([rng.randint(-2, 2) for _ in range(pres.n)])"
           " for _ in range(n)]",
           ("tests/test_framed.py::test_random_framed_draws_nonzero_classes",)),
    # the command and check tables are read off their functions' names; a
    # vector entry must be an int; orbit-modulus checks its combing once
    Mutant("command-names-keep-underscores", CLI,
           'name.removeprefix("_cmd_").replace("_", "-")', 'name.removeprefix("_cmd_")',
           ("tests/test_cli.py::test_command_names_are_pinned",)),
    Mutant("check-names-keep-underscores", VERIFY,
           'name.removeprefix("check_").replace("_", "-")', 'name.removeprefix("check_")',
           ("tests/test_cli.py::test_check_names_are_pinned",)),
    Mutant("vector-check-admits-non-integers", SURGERY,
           "if not integers(v):", "if False:",
           ("tests/test_surgery.py::TestLinkingForm::test_non_integer_entry",
            "tests/test_combing.py::TestValidateCombing::test_non_integer_entry")),
    Mutant("orbit-modulus-through-spec", CLI,
           'gamma_orbit_modulus(pres, _entry(doc.combing, "combing").c)',
           "gamma_orbit_modulus(pres, _combing(doc, pres).c)",
           ("tests/test_cli.py::test_each_command_builds_the_presentation_once",)),
    # one input boundary: the one integer rule, the one vector check, typed
    # refusals, and a bare ValueError from inside the library is a bug
    Mutant("integers-accept-bool", ERRORS,
           "return {int}.issuperset(map(type, values))",
           "return {int, bool}.issuperset(map(type, values))",
           ("tests/test_inputs.py", "tests/test_document.py::test_validation_messages_are_pinned")),
    Mutant("cli-catches-valueerror", CLI,
           "except InvalidInputError as exc:", "except ValueError as exc:",
           ("tests/test_cli.py::TestErrorChannel::test_unexpected_exception_is_internal_error",)),
    Mutant("framed-skips-check-length", FRAMED,
           "tuple(_check_length(ambient, v) for v in classes)", "tuple(map(tuple, classes))",
           ("tests/test_records.py::TestFramedLinkData",
            "tests/test_cli.py::TestFramedCommands::test_framed_class_of_wrong_length")),
    Mutant("digit-limit-untyped", DOCUMENT,
           'raise ParseError("invalid JSON: nested too deeply") from exc\n'
           "    except ValueError as exc:  # CPython's int/str digit limit\n"
           "        raise InvalidInputError(str(exc)) from exc\n",
           'raise ParseError("invalid JSON: nested too deeply") from exc\n',
           ("tests/test_cli.py::TestLongIntegers",)),
    Mutant("rational-digit-limit-untyped", ERRORS,
           "    try:\n        return Fraction(value)\n"
           "    except ValueError as exc:  # CPython's int/str digit limit\n"
           "        raise InvalidInputError(str(exc)) from exc\n",
           "    return Fraction(value)\n",
           ("tests/test_cli.py::TestErrorChannel"
            "::test_rational_longer_than_the_limit_is_invalid_input",)),
    Mutant("gamma-offset-unchecked", COMBING,
           'integer(gamma_offset, "gamma_offset")', "gamma_offset",
           ("tests/test_inputs.py",)),
    # one check per input: a rational is an integer, a Fraction or "p/q";
    # framed links read the memo, lambda_ij against the meridian pairing,
    # -pairing, and a Z-sphere is refused on a kernel as on torsion
    Mutant("rational-admits-any-string", ERRORS,
           "isinstance(value, str) and RATIONAL_SYNTAX.match(value)", "isinstance(value, str)",
           ("tests/test_inputs.py",)),
    Mutant("framed-consistency-pairing-sign", FRAMED,
           "lambda_matrix[i][j] + data.pairing", "lambda_matrix[i][j] - data.pairing",
           ("tests/test_records.py::TestFramedLinkData", "tests/test_framed.py::TestConstruction")),
    Mutant("zsphere-ignores-kernel", FRAMED,
           "e.signature.n_zero or ", "",
           ("tests/test_framed.py::TestFramedCobordant",)),
)

# Mutants whose code is gone, kept with the reason so that the list's
# history shows in its diff.
RETIRED = {
    "torsion-order-multiplies-col-0":
        "torsion_order of a singular B no longer reads the box diagonal",
    "p1-image-packed-weight-one":
        "the packed triangle of G is gone; p1_image pairs c_ref with G c_ref "
        "(p1-image-reference-unpaired)",
}


def _copy(tmp: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tmp / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, tmp / name)


def _limit() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def _pytest(tests: tuple[str, ...], edit: tuple[str, str] | None = None) -> int:
    """pytest's exit status on the tests in a fresh copy of the tree, with
    the file edit[0] given the text edit[1]; a run out of time fails (1)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as name:
        tmp = Path(name)
        _copy(tmp)
        if edit:
            (tmp / edit[0]).write_text(edit[1], encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        try:
            proc = subprocess.run(argv, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=TIMEOUT, preexec_fn=_limit)
        except subprocess.TimeoutExpired:
            return 1
        return proc.returncode


def run(mutant: Mutant) -> str:
    """The status of one mutant: killed, survived or stale."""
    source = (ROOT / mutant.file).read_text(encoding="utf-8")
    if source.count(mutant.fragment) != 1:
        return "stale"
    edit = (mutant.file, source.replace(mutant.fragment, mutant.replacement))
    return STATUS.get(_pytest(mutant.tests, edit), "killed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    unknown = set(args.ids) - {m.id for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutant ids: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.ids or m.id in args.ids]
    start = time.perf_counter()
    # the unmutated tree must pass every selected test, or a kill shows nothing
    if status := _pytest(tuple(dict.fromkeys(t for m in chosen for t in m.tests))):
        print(f"the selected tests fail on the unmutated tree (pytest exit {status})")
        return 2
    print(f"control   {time.perf_counter() - start:6.1f} s  the unmutated tree passes", flush=True)
    counts = {"killed": 0, "survived": 0, "stale": 0}
    for mutant in chosen:
        began = time.perf_counter()
        status = run(mutant)
        counts[status] += 1
        print(f"{status:9s} {time.perf_counter() - began:6.1f} s  {mutant.id}", flush=True)
    for mutant_id, reason in RETIRED.items():
        print(f"retired             {mutant_id}: {reason}")
    print(", ".join(f"{n} {s}" for s, n in counts.items())
          + f" in {time.perf_counter() - start:.0f} s")
    return 1 if counts["survived"] or counts["stale"] else 0


if __name__ == "__main__":
    sys.exit(main())
