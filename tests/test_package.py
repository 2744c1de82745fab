"""The package's public face: the names `combings` exports and the CLI
examples in README.md."""

import io
import re
import shlex
from pathlib import Path
from types import ModuleType

import combings
from combings.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


class TestAll:
    def test_every_name_resolves(self):
        assert all(hasattr(combings, name) for name in combings.__all__)
        namespace = {}
        exec("from combings import *", namespace)
        assert set(combings.__all__) <= set(namespace)

    def test_sorted_without_duplicates(self):
        assert combings.__all__ == sorted(set(combings.__all__))

    def test_public_names_are_pinned(self):
        """The package exports these names and no module: the imports of
        `combings/__init__.py` are the one list of them."""
        assert combings.__all__ == [
            "BadEtaError", "CapExceededError", "CombingSpec", "DEFAULT_BOX", "DEFAULT_CAP",
            "DimensionMismatchError", "DomainError", "EMPTY_PRESENTATION", "EulerClassInfo",
            "EvenCoefficientError", "FramedCobordismClass", "FramedLinkData", "HomologySummary",
            "IntMatrix", "InvalidInputError", "MissingClassesError", "NonTorsionError",
            "NotCharacteristicError", "NotZSphereError", "P1ImageReport", "P1Value", "ParseError",
            "SignatureTriple", "SurgeryPresentation", "add_hopf", "apply_modification", "band_sum",
            "classes_equal", "cobordism_class", "combing_equal", "euler_class",
            "framed_cobordant_zsphere", "gamma", "gamma_orbit_modulus", "hf_grading",
            "homology_summary", "is_torsion_class", "linking_form", "meridian_pairing", "p1",
            "p1_image", "parity_check", "pontrjagin_p1", "reduce_class",
            "reference_parallelization", "signature", "spin_c_equal", "stabilize", "theta_g",
            "theta_invariant", "total_self_linking", "validate_combing",
        ]
        namespace = {}
        exec("from combings import *", namespace)
        assert not any(isinstance(value, ModuleType) for value in namespace.values())
        # the Smith form is reached through `combings.linalg` only
        assert not {"SnfResult", "smith_normal_form", "torsion_residues"} & vars(combings).keys()

    def test_exported_value_types(self):
        # the linking form is a Fraction and Theta takes two rationals, so
        # no residue or Theta input type is exported
        types = {name for name in combings.__all__
                 if isinstance(getattr(combings, name), type)
                 and not issubclass(getattr(combings, name), Exception)}
        assert types == {
            "CombingSpec", "EulerClassInfo", "FramedCobordismClass", "FramedLinkData",
            "HomologySummary", "IntMatrix", "P1ImageReport", "P1Value",
            "SignatureTriple", "SurgeryPresentation",
        }


def _readme_examples():
    """(stdin, argv, stdout) of each `$ echo '...' | combings ...` line of
    README's CLI examples, with the lines printed under it."""
    text = README.read_text(encoding="utf-8")
    start = text.index("Examples:\n\n```sh\n") + len("Examples:\n\n```sh\n")
    block = text[start : text.index("\n```", start)]
    examples = []
    for chunk in block.split("\n\n"):
        command, *printed = chunk.split("\n")
        m = re.fullmatch(r"\$ echo '([^']*)' \| combings (.*)", command)
        assert m, f"unreadable example: {command!r}"
        stdout = "".join(f"{line}\n" for line in printed)
        examples.append((m.group(1) + "\n", shlex.split(m.group(2)), stdout))
    return examples


class TestReadmeExamples:
    def test_examples_replay(self):
        examples = _readme_examples()
        assert len(examples) >= 3
        for stdin, argv, want in examples:
            out, err = io.StringIO(), io.StringIO()
            code = main(argv, stdin=io.StringIO(stdin), stdout=out, stderr=err)
            assert (code, out.getvalue(), err.getvalue()) == (0, want, ""), argv
