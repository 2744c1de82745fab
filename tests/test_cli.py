"""Command-line front end: outputs, exit codes, determinism."""

import io
import json
import sys
import time

from combings import cli
from combings.cli import build_parser, main


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
        def broken(args, doc):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setitem(cli._HANDLERS, "homology", broken)
        code, out, err = run(["homology"], '{"linking_matrix": [[2]]}')
        assert code == 3 and out == ""
        assert err == "error: internal: ZeroDivisionError: division by zero\n"
        assert "Traceback" not in err


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
            fresh.append(run(argv, doc))
        assert shared == fresh

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
