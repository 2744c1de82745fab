"""Command-line front end: outputs, exit codes, determinism."""

import argparse
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from combings import cli
from combings.cli import build_parser, main
from combings.errors import CapExceededError, DomainError, NotCharacteristicError
from combings.linalg import CHUNK


def run(args, text=""):
    out, err = io.StringIO(), io.StringIO()
    code = main(args, stdin=io.StringIO(text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


S3 = '{"linking_matrix": [], "combing": {"c": [], "gamma": 0}}'


class TestBasicCommands:
    def test_theta_g_s3(self):
        code, out, _ = run(["theta-g"], S3)
        assert code == 0
        assert out == "-2\n"

    def test_p1_not_characteristic(self):
        code, _, err = run(
            ["p1"], '{"linking_matrix": [[2]], "combing": {"c": [1], "gamma": 0}}'
        )
        assert code == 2
        assert "NotCharacteristic" in err

    def test_p1_value(self):
        code, out, _ = run(
            ["p1"], '{"linking_matrix": [[2]], "combing": {"c": [0], "gamma": 1}}'
        )
        assert code == 0 and out == "-3\n"

    def test_homology(self):
        code, out, _ = run(["homology"], '{"linking_matrix": [[2, 1], [1, 2]]}')
        assert code == 0
        obj = json.loads(out)
        assert obj == {
            "invariant_factors": [3],
            "betti_1": 0,
            "dim_h1_mod2": 0,
            "torsion_order": 3,
            "kernel_basis": [],
        }

    def test_linking_form_single(self):
        code, out, _ = run(["linking-form"], '{"linking_matrix": [[4]], "meridian": [1]}')
        assert code == 0 and out == "3/4 (mod 1)\n"

    def test_linking_form_enumerates(self):
        code, out, _ = run(["linking-form"], '{"linking_matrix": [[3]]}')
        assert code == 0
        obj = json.loads(out)
        assert [entry["ell"] for entry in obj] == [
            "0 (mod 1)",
            "2/3 (mod 1)",
            "2/3 (mod 1)",
        ]

    def test_linking_form_non_torsion(self):
        code, _, err = run(["linking-form"], '{"linking_matrix": [[0]], "meridian": [1]}')
        assert code == 2 and "NonTorsion" in err

    def test_spinc_equal(self):
        doc = (
            '{"linking_matrix": [[2]], "combing": {"c": [0], "gamma": 0},'
            ' "combing2": {"c": [2], "gamma": 0}}'
        )
        code, out, _ = run(["spinc-equal"], doc)
        assert code == 0 and out == "false\n"

    def test_combing_equal(self):
        doc = (
            '{"linking_matrix": [[2]], "combing": {"c": [0], "gamma": 1},'
            ' "combing2": {"c": [4], "gamma": -1}}'
        )
        code, out, _ = run(["combing-equal"], doc)
        assert code == 0 and out == "true\n"

    def test_orbit_modulus(self):
        code, out, _ = run(
            ["orbit-modulus"],
            '{"linking_matrix": [[0]], "combing": {"c": [2], "gamma": 0}}',
        )
        assert code == 0 and out == "2\n"

    def test_hf_grading(self):
        code, out, _ = run(
            ["hf-grading"],
            '{"linking_matrix": [[2]], "combing": {"c": [2], "gamma": 0}}',
        )
        assert code == 0 and out == "-3/4\n"

    def test_parity(self):
        code, out, _ = run(["parity"], '{"linking_matrix": [[2]]}')
        assert code == 0 and out == "true\n"

    def test_image_p1(self):
        code, out, _ = run(["image-p1", "--cap", "100", "--box", "8"], '{"linking_matrix": [[2]]}')
        assert code == 0
        assert out.splitlines() == [
            "formula: 1 (mod 4), 3 (mod 4)",
            "enumeration: 1 (mod 4), 3 (mod 4)",
            "check: equal",
        ]

    def test_image_p1_cap_exceeded(self):
        code, _, err = run(["image-p1", "--cap", "2"], '{"linking_matrix": [[5]]}')
        assert code == 2 and "CapExceeded" in err

    def test_image_p1_sweep_is_capped(self):
        # the A9 chain: torsion order 10, but the default box sweeps 9^9 vectors
        a9 = [[2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(9)]
              for i in range(9)]
        start = time.perf_counter()
        code, out, err = run(["image-p1"], json.dumps({"linking_matrix": a9}))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == "error: CapExceeded: image-p1 sweep of 387420489 vectors exceeds cap 10000\n"

    def test_image_p1_huge_box_is_capped_before_building(self):
        # 10^12 + 1 even values per coordinate: the cap check must come first
        start = time.perf_counter()
        code, out, err = run(
            ["image-p1", "--box", "1000000000000"], '{"linking_matrix": [[2, 1], [1, 2]]}'
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == (
            "error: CapExceeded: image-p1 sweep of 1000000000002000000000001 vectors"
            " exceeds cap 10000\n"
        )

    def test_image_p1_box_past_maxsize_is_capped(self):
        # 10^20 + 1 even values per coordinate: more than len() of a range can report
        code, out, err = run(
            ["image-p1", "--box", str(10**20)], '{"linking_matrix": [[2, 1], [1, 2]]}'
        )
        assert code == 2 and out == ""
        assert err == (
            f"error: CapExceeded: image-p1 sweep of {(10**20 + 1) ** 2} vectors"
            " exceeds cap 10000\n"
        )

    def test_negative_cap_or_box_is_parse_error(self):
        doc = '{"linking_matrix": [[3]]}'
        for argv in (["image-p1", "--box"], ["image-p1", "--cap"], ["linking-form", "--cap"]):
            code, out, err = run([*argv, "-1"], doc)
            assert (code, out) == (1, "")
            assert err == f"error: parse: argument {argv[1]}: must be nonnegative, got -1\n"
            code, out, err = run([*argv, "abc"], doc)
            assert (code, out) == (1, "")
            assert err == f"error: parse: argument {argv[1]}: invalid int value: 'abc'\n"
        code, out, _ = run(["image-p1", "--box", "0"], doc)  # zero stays valid
        assert code == 0 and out.endswith("check: subset (box threshold not reached)\n")


class TestFramedCommands:
    def test_framed_total(self):
        doc = '{"linking_matrix": [], "framed": {"lambda_matrix": [["1", "2"], ["2", "0"]]}}'
        code, out, _ = run(["framed-total"], doc)
        assert code == 0 and out == "5\n"

    def test_framed_class(self):
        doc = (
            '{"linking_matrix": [[2]], "framed": {"lambda_matrix": [["-1/2"]],'
            ' "classes": [[1]]}}'
        )
        code, out, _ = run(["framed-class"], doc)
        assert code == 0
        assert json.loads(out) == {"class": [1], "total": "-1/2"}

    def test_framed_class_missing_classes(self):
        doc = '{"linking_matrix": [[2]], "framed": {"lambda_matrix": [["-1/2"]]}}'
        code, _, err = run(["framed-class"], doc)
        assert code == 2 and "MissingClasses" in err

    def test_pontrjagin(self):
        doc = (
            '{"linking_matrix": [], "combing": {"c": [], "gamma": 0},'
            ' "framed": {"lambda_matrix": [["-1"]]}}'
        )
        code, out, _ = run(["pontrjagin-p1"], doc)
        assert code == 0 and out == "2\n"

    def test_framed_class_of_wrong_length(self):
        """A class of the wrong length is a DimensionMismatch, as a meridian's
        is."""
        doc = '{"linking_matrix": [[2]], "framed": {"lambda_matrix": [["0"]], "classes": [[1, 0]]}}'
        code, out, err = run(["framed-class"], doc)
        assert (code, out) == (2, "")
        assert err == (
            "error: DimensionMismatch: class vector has length 2, presentation has 1 components\n"
        )

    def test_inconsistent_framed_is_parse_error(self):
        doc = (
            '{"linking_matrix": [[2]], "framed":'
            ' {"lambda_matrix": [["0", "1/3"], ["1/3", "0"]],'
            ' "classes": [[1], [1]]}}'
        )
        code, _, err = run(["framed-total"], doc)
        assert code == 1 and "inconsistent" in err


class TestTransformingCommands:
    def test_stabilize(self):
        doc = '{"linking_matrix": [], "combing": {"c": [], "gamma": 0}}'
        code, out, _ = run(["stabilize", "--sign", "1", "--c0", "1"], doc)
        assert code == 0
        obj = json.loads(out)
        assert obj == {
            "linking_matrix": [[1]],
            "combing": {"c": [1], "gamma": 1},
        }
        # the round trip the command promises: its output is a document
        # whose p_1 is the input's
        lens = '{"linking_matrix": [[4, 1], [1, -3]], "combing": {"c": [2, 1], "gamma": 2}}'
        for before, sign, c0, p1 in ((doc, "1", "1", "-2"), (lens, "-1", "3", "38/13"),
                                     (lens, "1", "-5", "38/13")):
            assert run(["p1"], before) == (0, p1 + "\n", "")
            code, after, _ = run(["stabilize", "--sign", sign, "--c0", c0], before)
            assert code == 0
            assert run(["p1"], after) == (0, p1 + "\n", "")

    def test_stabilize_even_coefficient(self):
        doc = '{"linking_matrix": [], "combing": {"c": [], "gamma": 0}}'
        code, _, err = run(["stabilize", "--sign", "1", "--c0", "2"], doc)
        assert code == 2 and "EvenCoefficient" in err

    def test_modify(self):
        code, out, _ = run(
            ["modify", "--kind", "D", "--eta", "1", "--lk-euler", "0", "--lk-par", "-1"],
            S3,
        )
        assert code == 0 and out == "2\n"

    def test_modify_negative_fraction_as_separate_word(self):
        doc = '{"linking_matrix": [[5]], "combing": {"c": [1], "gamma": 0}}'
        base = ["modify", "--kind", "D", "--eta", "1"]
        for flag, other in (("--lk-par", "--lk-euler=1/2"), ("--lk-euler", "--lk-par=2/5")):
            joined = run([*base, other, f"{flag}=-1/3"], doc)
            assert joined[0] == 0
            assert run([*base, other, flag, "-1/3"], doc) == joined

    @pytest.mark.parametrize("kind, needs", [
        ("D", "eta, lk_euler and lk_par"),
        ("global-Z", "lk_par"),
        ("r-twist", "eta and r"),
        ("half-twist", "k"),
    ])
    def test_modify_without_its_flags(self, kind, needs):
        code, out, err = run(["modify", "--kind", kind], S3)
        assert (code, out) == (1, "")
        assert err == f"error: invalid input: kind '{kind}' needs {needs}\n"

    @pytest.mark.parametrize("flags, unread", [
        (["--kind", "D", "--eta", "1", "--lk-euler", "1", "--lk-par", "0", "--r", "3"], "r"),
        (["--kind", "global-Z", "--lk-par", "1", "--k", "2"], "k"),
        (["--kind", "r-twist", "--eta", "1", "--r", "2", "--lk-par", "0", "--k", "1"],
         "lk_par and k"),
        (["--kind", "half-twist", "--k", "1", "--eta", "1", "--lk-euler", "0", "--r", "1"],
         "eta, lk_euler and r"),
    ])
    def test_modify_refuses_an_unread_flag(self, flags, unread):
        code, out, err = run(["modify", *flags], S3)
        assert (code, out) == (1, "")
        kind = flags[1]
        assert err == f"error: invalid input: kind '{kind}' does not read {unread}\n"

    def test_modify_missing_flag_is_named_before_an_unread_one(self):
        code, _, err = run(["modify", "--kind", "r-twist", "--r", "1", "--k", "1"], S3)
        assert (code, err) == (1, "error: invalid input: kind 'r-twist' needs eta and r\n")

    def test_modify_bad_eta(self):
        code, _, err = run(
            ["modify", "--kind", "r-twist", "--eta", "2", "--r", "1"], S3
        )
        assert code == 2 and "BadEta" in err

    def test_theta(self):
        doc = '{"linking_matrix": [], "combing": {"c": [], "gamma": 0}, "lambda": "0"}'
        code, out, _ = run(["theta"], doc)
        assert code == 0 and out == "-1/2\n"

    def test_theta_needs_lambda(self):
        code, _, err = run(["theta"], S3)
        assert code == 1 and "lambda" in err


class TestErrorChannel:
    def test_bad_json(self):
        code, out, err = run(["homology"], "nope")
        assert code == 1 and out == "" and "parse" in err

    def test_unknown_command(self):
        code, _, err = run(["frobnicate"], "")
        assert code == 1

    def test_missing_combing(self):
        code, _, err = run(["theta-g"], '{"linking_matrix": []}')
        assert code == 1 and "combing" in err

    def test_flag_of_another_command(self):
        code, out, err = run(["homology", "--seed", "1"], '{"linking_matrix": []}')
        assert code == 1 and out == ""
        assert err == "error: parse: unrecognized arguments: --seed 1\n"

    def test_deeply_nested_json(self):
        code, out, err = run(["homology"], "[" * 100_000 + "]" * 100_000)
        assert code == 1 and out == ""
        assert err.startswith("error: parse: ") and "Traceback" not in err

    def test_unexpected_exception_is_internal_error(self, monkeypatch):
        def broken(args, doc, pres):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setitem(cli._HANDLERS, "homology", broken)
        code, out, err = run(["homology"], '{"linking_matrix": [[2]]}')
        assert code == 3 and out == ""
        assert err == "error: internal: ZeroDivisionError: division by zero\n"
        assert "Traceback" not in err

        # the library refuses input with InvalidInputError, so a bare
        # ValueError from inside it is a bug too
        def bare(args, doc, pres):
            raise ValueError("not an input check")

        monkeypatch.setitem(cli._HANDLERS, "homology", bare)
        code, out, err = run(["homology"], '{"linking_matrix": [[2]]}')
        assert (code, out, err) == (3, "", "error: internal: ValueError: not an input check\n")

    def test_rational_longer_than_the_limit_is_invalid_input(self):
        """CPython's int/str digit limit refuses a "p/q" of the document as it
        refuses a JSON integer."""
        doc = {"linking_matrix": [], "combing": {"c": [], "gamma": 0}, "lambda": "7" * 4301}
        code, out, err = run(["theta"], json.dumps(doc))
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid input: Exceeds the limit (4300")

    def test_every_domain_error_code_is_pinned(self, monkeypatch):
        """Each DomainError's code is its class name without "Error", and
        main prints it after "error:" and exits 2 when a handler raises it."""
        classes = [DomainError, *DomainError.__subclasses__()]
        assert {cls.__name__: cls.code for cls in classes} == {
            "DomainError": "DomainError",
            "NonTorsionError": "NonTorsion",
            "NotCharacteristicError": "NotCharacteristic",
            "CapExceededError": "CapExceeded",
            "DimensionMismatchError": "DimensionMismatch",
            "EvenCoefficientError": "EvenCoefficient",
            "BadEtaError": "BadEta",
            "NotZSphereError": "NotZSphere",
            "MissingClassesError": "MissingClasses",
        }
        init = {NotCharacteristicError: (3,), CapExceededError: (12, 10)}
        for cls in classes:
            exc = cls(*init.get(cls, ("refused",)))

            def raising(args, doc, pres):
                raise exc

            monkeypatch.setitem(cli._HANDLERS, "homology", raising)
            code, out, err = run(["homology"], '{"linking_matrix": [[2]]}')
            assert (code, out, err) == (2, "", f"error: {cls.code}: {exc}\n"), cls
        assert err == "error: MissingClasses: refused\n"

    def test_help_is_written_to_the_given_stdout(self, monkeypatch):
        """--help of each command returns 0 with the subparser's help on the
        stdout main was given, nothing on stderr and nothing in the memo;
        as a process it prints the same bytes and exits 0."""
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        cli._parse.cache_clear()
        for command in cli.COMMANDS:
            want = sub.choices[command].format_help()
            assert want.startswith(f"usage: combings {command} ")
            assert run([command, "--help"]) == (0, want, ""), command
            assert cli._parse.cache_info().currsize == 0
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        proc = subprocess.run([sys.executable, "-m", "combings.cli", "theta", "--help"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, run(["theta", "--help"])[1], "")


class TestDeterminism:
    def test_identical_runs(self):
        doc = '{"linking_matrix": [[4, 1], [1, 4]]}'
        first = run(["image-p1", "--box", "6"], doc)
        second = run(["image-p1", "--box", "6"], doc)
        assert first == second

    def test_shared_parser_keeps_no_state(self):
        doc = '{"linking_matrix": [[2, 1], [1, 2]], "combing": {"c": [0, 0], "gamma": 1}}'
        sequence = [
            ["image-p1", "--box", "6"],
            ["image-p1"],
            ["stabilize", "--sign", "-1", "--c0", "3"],
            ["p1"],
        ]
        assert build_parser() is build_parser()
        shared = [run(argv, doc) for argv in sequence]
        fresh = []
        for argv in sequence:
            build_parser.cache_clear()
            cli._parse.cache_clear()
            fresh.append(run(argv, doc))
        assert shared == fresh

    def test_parse_memo_keeps_no_refusal(self):
        """The memo stores no exception: a refused argv exits 1 with one
        message on every call, and a good argv parses after it.  Two argv of
        one command each read their own flags, as a fresh parser does."""
        doc = '{"linking_matrix": [[2, 1], [1, 2]]}'
        cli._parse.cache_clear()
        refused = (1, "", "error: parse: argument --box: must be nonnegative, got -1\n")
        assert [run(["image-p1", "--box", "-1"], doc) for _ in range(2)] == [refused] * 2
        assert cli._parse.cache_info().currsize == 0
        sweeps = [["image-p1", "--box", "6"], ["image-p1", "--box", "0"]]
        shared = [run(argv, doc) for argv in sweeps]
        assert cli._parse.cache_info().currsize == 2
        fresh = []
        for argv in sweeps:
            build_parser.cache_clear()
            cli._parse.cache_clear()
            fresh.append(run(argv, doc))
        assert shared == fresh
        checks = [out.splitlines()[-1] for _, out, _ in shared]
        assert checks == ["check: equal", "check: subset (box threshold not reached)"]

    def test_verify_seeded(self):
        first = run(["verify", "--seed", "3"])
        second = run(["verify", "--seed", "3"])
        assert first == second
        assert first[0] == 0
        assert "passed" in first[1]

    def test_verify_reports_all_checks(self):
        code, out, _ = run(["verify"])
        assert code == 0
        assert "passed 14/14 checks" in out

    def test_verify_reports_a_failing_check(self, monkeypatch):
        """A check with one False verdict fails the battery: exit 2, its line
        counts the failure and its cases, and every other line is as in a
        passing run.  A check that raises fails as one more case, its line
        names the exception's type, and the battery goes on."""
        from combings import verify

        def failing(rng, cases):
            yield from (True, False, True)

        def raising(rng, cases):
            yield from (True, False)
            raise ZeroDivisionError("division by zero")

        _, passing, _ = run(["verify"])
        broken = {"linking-form-laws": failing, "gamma-law": raising}
        checks = tuple((n, broken.get(n, c)) for n, c in verify.ALL_CHECKS)
        monkeypatch.setattr(verify, "ALL_CHECKS", checks)
        code, out, err = run(["verify"])
        lines = {
            "linking-form-laws": "  linking-form-laws: FAIL (1 failures) [3 cases]",
            "gamma-law": "  gamma-law: FAIL (2 failures; ZeroDivisionError) [3 cases]",
        }
        want = [lines.get(x.split(":")[0].strip(), x) for x in passing.splitlines()]
        assert (code, err) == (2, "")
        assert out.splitlines() == [*want[:-1], "passed 12/14 checks"]
        assert all(line in out for line in lines.values())
        assert want[-1] == "passed 14/14 checks"


class TestFileIO:
    def test_input_output_files(self, tmp_path):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.txt"
        src.write_text(S3, encoding="utf-8")
        code, out, _ = run(["theta-g", "--input", str(src), "--output", str(dst)])
        assert code == 0 and out == ""
        assert dst.read_text(encoding="utf-8") == "-2\n"

    def test_missing_input_file(self, tmp_path):
        code, _, err = run(["theta-g", "--input", str(tmp_path / "absent.json")])
        assert code == 1 and "io" in err

    def test_unwritable_output_is_io_error(self, tmp_path):
        dst = str(tmp_path / "absent" / "out.txt")
        for argv, text in ((["homology"], '{"linking_matrix": [[2]]}'), (["verify"], "")):
            code, out, err = run([*argv, "--output", dst], text)
            assert (code, out) == (1, "")
            assert err.startswith("error: io: ") and err.count("\n") == 1


class TestStreaming:
    """`linking-form` writes its classes one chunk at a time: the text is
    the one `json.dumps` would write, and memory is a chunk's, not the
    output's.  The refusals come before the first piece."""

    def test_output_of_many_chunks(self, tmp_path):
        """On L(p, 1) with p past one chunk, the classes [k] with
        lk = -k^2 / p mod 1, byte for byte, on stdout and in --output."""
        p = CHUNK + 1000
        doc = json.dumps({"linking_matrix": [[p]]})
        want = [{"class": [k], "ell": f"{Fraction(-k * k, p) % 1} (mod 1)"} for k in range(p)]
        code, out, err = run(["linking-form", "--cap", str(p)], doc)
        assert (code, err) == (0, "")
        assert out == json.dumps(want, indent=2) + "\n"
        dst = tmp_path / "out.json"
        assert run(["linking-form", "--cap", str(p), "--output", str(dst)], doc) == (0, "", "")
        assert dst.read_text(encoding="utf-8") == out

    @pytest.mark.parametrize("argv", [["linking-form", "--cap", "4"],
                                      ["image-p1", "--cap", "4"],
                                      ["image-p1", "--box", "9", "--cap", "100"]])
    def test_refusal_writes_nothing(self, tmp_path, argv):
        """A walk or a sweep over its cap writes nothing to stdout and
        creates no --output file."""
        doc = '{"linking_matrix": [[4, 2, 6], [2, -2, 0], [6, 0, 6]]}'
        dst = tmp_path / "out.txt"
        for extra in ([], ["--output", str(dst)]):
            code, out, err = run([*argv, *extra], doc)
            assert (code, out) == (2, "")
            assert err.startswith("error: CapExceeded: ")
        assert not dst.exists()

    def test_walk_memory_is_a_chunk(self):
        """The tracemalloc peak of `linking-form` on L(2 * 10^5, 1), written
        to a sink that keeps nothing, is at most a quarter of the 59 MB that
        the whole output held as lists and one string."""
        class Sink(io.TextIOBase):
            def write(self, text):
                return len(text)

        doc = io.StringIO(json.dumps({"linking_matrix": [[200_000]]}))
        tracemalloc.start()
        try:
            code = main(["linking-form", "--cap", "300000"], stdin=doc, stdout=Sink(),
                        stderr=io.StringIO())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 59e6 / 4


def _str_without_limit(n):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


class TestLongIntegers:
    """CPython limits int/str conversion to 4300 digits: inputs keep the
    limit, exact answers are printed in full."""

    def test_answer_longer_than_the_limit(self):
        a, b = int("7" * 3000), int("3" * 3000)
        limit = sys.get_int_max_str_digits()
        code, out, err = run(["homology"], json.dumps({"linking_matrix": [[a, 0], [0, b]]}))
        assert (code, err) == (0, "")
        assert f'"torsion_order": {_str_without_limit(a * b)},' in out
        assert sys.get_int_max_str_digits() == limit

    def test_input_longer_than_the_limit_is_rejected(self):
        code, out, err = run(["homology"], '{"linking_matrix": [[%s]]}' % ("7" * 4301))
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid input: Exceeds the limit (4300")
        argv = ["modify", "--kind", "global-Z", "--lk-par", "1" * 4301]
        code, out, err = run(argv, S3)
        assert (code, out) == (1, "")
        assert err.startswith("error: parse: argument --lk-par: Exceeds the limit")


def test_cli_import_leaves_verify_out():
    """Only the verify command reads the verify battery, so a fresh process
    that imports the CLI does not load it."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    code = "import sys, combings.cli; print('combings.verify' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def _package_stdlib_imports():
    """The top-level modules that `src/combings` imports from outside itself,
    but for the two that the import check below looks for."""
    names = set()
    for path in (Path(__file__).parents[1] / "src" / "combings").glob("*.py"):
        for line in path.read_text(encoding="utf-8").splitlines():
            m = re.match(r"(?:from|import) ([a-z_]\w*)", line)
            if m:
                names.add(m.group(1))
    return sorted(names - {"__future__", "dataclasses", "inspect"})


@pytest.mark.parametrize("module", ["combings.cli", "combings"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    """The value types are NamedTuples and slotted records, so a fresh
    process that imports the package loads no `dataclasses` or `inspect`
    beyond what the package's own stdlib imports load on this Python.  Those
    imports are all in the standard library."""
    stdlib = _package_stdlib_imports()
    assert {"argparse", "fractions", "json", "typing"} <= set(stdlib)
    assert set(stdlib) <= sys.stdlib_module_names  # the runtime needs no third-party package
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    code = (
        f"import sys\nfor name in {stdlib!r}: __import__(name)\n"
        f"before = set(sys.modules)\nimport {module}\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_each_command_builds_the_presentation_once(monkeypatch):
    """A command that reads the document twice (two combings, or a combing
    and framed data) builds, validates and hashes its matrix once, and
    checks each combing once: one `validate_combing` per combing entry it
    reads, plus one for a combing it builds (the stabilized one, or the
    reference parallelization of `parity`)."""
    from combings import combing

    built, from_rows = [], cli.SurgeryPresentation.from_rows
    validated, validate = [], combing.validate_combing

    def counting(rows):
        built.append(rows)
        return from_rows(rows)

    def counting_validations(pres, c):
        validated.append(c)
        return validate(pres, c)

    monkeypatch.setattr(cli.SurgeryPresentation, "from_rows", counting)
    monkeypatch.setattr(combing, "validate_combing", counting_validations)
    doc = json.dumps({
        "linking_matrix": [[2, 1], [1, 2]],
        "combing": {"c": [0, 0], "gamma": 0},
        "combing2": {"c": [2, 2], "gamma": 1},
        "meridian": [1, 0],
        "framed": {"lambda_matrix": [["1/3"]], "classes": [[1, 1]]},
        "lambda": "1/3",
    })
    extra = {
        "stabilize": ["--sign", "1", "--c0", "1"],
        "modify": ["--kind", "half-twist", "--k", "1"],
    }
    validations = {
        "homology": 0, "linking-form": 0, "theta-g": 1, "p1": 1, "spinc-equal": 2,
        "combing-equal": 2, "orbit-modulus": 1, "hf-grading": 1, "image-p1": 0, "parity": 1,
        "framed-total": 0, "framed-class": 0, "pontrjagin-p1": 1, "stabilize": 2, "modify": 1,
        "theta": 1,
    }
    assert set(validations) == set(cli._HANDLERS)
    for command in cli._HANDLERS:
        built.clear()
        validated.clear()
        code, _, err = run([command, *extra.get(command, [])], doc)
        assert (code, err, len(built)) == (0, "", 1), command
        assert len(validated) == validations[command], command


def test_command_names_are_pinned():
    """Each command is its handler's name after "_cmd_", with "_" written
    "-"; the handlers' order is the order of --help."""
    assert cli.COMMANDS == (
        "homology", "linking-form", "theta-g", "p1", "spinc-equal", "combing-equal",
        "orbit-modulus", "hf-grading", "image-p1", "parity", "framed-total", "framed-class",
        "pontrjagin-p1", "stabilize", "modify", "theta", "verify",
    )


def test_check_names_are_pinned():
    """Each check of the battery is its function's name after "check_",
    with "_" written "-", in the order `verify` reports them."""
    from combings import verify

    assert [name for name, _ in verify.ALL_CHECKS] == [
        "signature-congruence", "linking-form-laws", "torsion-enumeration", "gamma-law",
        "spinc-coset-law", "kirby-melvin-parity", "stabilization-invariance",
        "p1-image-theorem", "gompf-surgery-arithmetic", "framed-calculus",
        "modification-calculus", "theta-law", "spinc-injectivity", "variation-telescoping",
    ]
