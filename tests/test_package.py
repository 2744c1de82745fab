"""The package's public face: the names `combings` exports and the CLI
examples in README.md."""

import io
import re
import shlex
from pathlib import Path

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

    def test_torsion_residues_is_the_enumeration(self):
        assert "torsion_residues" in combings.__all__
        assert "enumerate_torsion" not in combings.__all__
        assert not hasattr(combings, "enumerate_torsion")

    def test_exported_value_types(self):
        # the linking form is a Fraction and Theta takes two rationals, so
        # no residue or Theta input type is exported
        types = {name for name in combings.__all__
                 if isinstance(getattr(combings, name), type)
                 and not issubclass(getattr(combings, name), Exception)}
        assert types == {
            "CombingSpec", "EulerClassInfo", "FramedCobordismClass", "FramedLinkData",
            "HomologySummary", "IntMatrix", "P1ImageReport", "P1Value",
            "SignatureTriple", "SnfResult", "SurgeryPresentation",
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
