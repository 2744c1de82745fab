"""Command-line front end.

Reads a JSON document from stdin (or --input), prints an exact result and
exits 0 on success, 2 on domain errors (NonTorsion, NotCharacteristic,
CapExceeded, ...), 1 on parse, invalid-input and I/O errors.  Any other
exception, a bare ValueError from inside the library included, is a bug: it
prints one line, `error: internal: <Type>: <message>`, and exits 3.  All
output is deterministic; `verify` is driven by --seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain
from typing import IO, Iterable, Iterator

from .combing import (
    DEFAULT_BOX,
    MODIFICATION_KINDS,
    CombingSpec,
    _spin_c_equal,
    apply_modification,
    combing_equal,
    gamma_orbit_modulus,
    hf_grading,
    p1,
    p1_image,
    parity_check,
    stabilize,
    theta_g,
)
from .document import (
    Document,
    format_rational,
    parse_document,
    parse_rational,
)
from .errors import DomainError, InvalidInputError, ParseError
from .framed import (
    FramedLinkData,
    cobordism_class,
    pontrjagin_p1,
    total_self_linking,
)
from .linalg import CHUNK, Chunk
from .surgery import (
    DEFAULT_CAP,
    SurgeryPresentation,
    format_residue,
    homology_summary,
    linking_form,
    torsion_chunks,
)
from .theta import theta_invariant


class _Help(Exception):
    """A --help request, carrying the help text for `main` to write."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse reads a word that starts with "-" as a flag unless it looks
        # like a negative number; a negative "p/q" of the document syntax is a
        # value too, so "--lk-par -1/3" parses like "--lk-par=-1/3"
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/[1-9]\d*$")

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ParseError(message)

    def print_help(self, file: IO[str] | None = None) -> None:
        raise _Help(self.format_help())  # main writes it to its stdout, and returns 0


def _rational_flag(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _count_flag(text: str) -> int:
    """--cap and --box bound a count, so a negative one is refused."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    call; parse_args keeps no state between calls."""
    parser = _Parser(prog="combings", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        if name != "verify":
            cmd.add_argument("--input", default=None, help="read the document from a file")
        cmd.add_argument("--output", default=None, help="write results to a file")
        if name in ("linking-form", "image-p1"):
            cmd.add_argument("--cap", type=_count_flag, default=DEFAULT_CAP)
        if name == "image-p1":
            cmd.add_argument("--box", type=_count_flag, default=DEFAULT_BOX)
        if name == "verify":
            cmd.add_argument("--seed", type=int, default=0)
        if name == "stabilize":
            cmd.add_argument("--sign", type=int, required=True, choices=(1, -1))
            cmd.add_argument("--c0", type=int, required=True)
        if name == "modify":
            cmd.add_argument("--kind", required=True, choices=MODIFICATION_KINDS)
            cmd.add_argument("--eta", type=int, default=None)
            cmd.add_argument("--lk-euler", type=_rational_flag, default=None)
            cmd.add_argument("--lk-par", type=_rational_flag, default=None)
            cmd.add_argument("--r", type=int, default=None)
            cmd.add_argument("--k", type=int, default=None)
    return parser


PARSE_MEMO_SIZE = 64  # distinct argv kept parsed; an embedding caller may pass many --input paths


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def _parse(argv: tuple[str, ...]) -> argparse.Namespace:
    """The parsed arguments of argv, parsed once per process for each of the
    PARSE_MEMO_SIZE most recently used argv.  A refused argv or a --help
    request raises and is never stored, so it prints its message on every
    call.  The Namespace is shared by every call with the same argv:
    handlers only read `args`."""
    return build_parser().parse_args(list(argv))


def _entry(value, key: str):
    """`value`, the document's `key` entry, when the document has one."""
    if value is None:
        raise ParseError(f"this command needs a '{key}' entry in the document")
    return value


def _combing(doc: Document, pres: SurgeryPresentation, key: str = "combing") -> CombingSpec:
    return CombingSpec(pres, *_entry(getattr(doc, key), key))


def _framed(doc: Document, pres: SurgeryPresentation) -> FramedLinkData:
    return FramedLinkData.from_rows(*_entry(doc.framed, "framed"), pres)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _residues(residues: frozenset[int], L: int, m: int) -> str:
    """The classes r / L mod m, in increasing order, as `format_residue`
    prints them."""
    return ", ".join(format_residue(r, L, m) for r in sorted(residues))


def _cmd_homology(args, doc: Document, pres: SurgeryPresentation) -> str:
    return json.dumps(homology_summary(pres)._asdict(), indent=2)


def _enumeration_json(n: int, L: int, chunks: Iterable[Chunk]) -> Iterator[str]:
    """The pieces of `json.dumps([{"class": [...], "ell": format_residue(r,
    L, 1)}, ...], indent=2)` over the classes of `torsion_chunks`, byte for
    byte (ell = r / L mod 1), one piece per chunk; there is always one class,
    the zero class.  json's indented encoder runs in Python, so the fixed
    layout is one `%` template for the n coordinates, each written as json
    writes an int (`%d` is its repr), and each distinct residue is
    formatted once while the texts kept from earlier chunks number at most
    `linalg.CHUNK`; past that they are dropped, so they never outgrow two
    chunks' worth.  A text holds only digits, "/", spaces, parentheses and
    "mod", which json writes unescaped, so the template holds the quotes.
    The template is filled from a chunk's columns and the residues' texts
    zipped together, and zip reuses its result tuple, so no object outlives
    its class, and no text outlives its chunk but those kept."""
    cls = "[\n      " + ",\n      ".join(["%d"] * n) + "\n    ]" if n else "[]"
    item = '  {\n    "class": ' + cls + ',\n    "ell": "%s"\n  }'
    head, ells = "[\n", {}
    for columns, residues in chunks:
        ells = ells if len(ells) <= CHUNK else {}  # texts kept from earlier chunks
        ells.update({r: format_residue(r, L, 1) for r in set(residues).difference(ells)})
        yield head + ",\n".join(map(item.__mod__, zip(*columns, map(ells.__getitem__, residues))))
        head = ",\n"
    yield "\n]"


def _cmd_linking_form(args, doc: Document, pres: SurgeryPresentation) -> str | Iterator[str]:
    if doc.meridian is not None:
        return format_residue(*linking_form(pres, doc.meridian).as_integer_ratio(), 1)
    return _enumeration_json(pres.n, *torsion_chunks(pres, cap=args.cap))


def _cmd_theta_g(args, doc: Document, pres: SurgeryPresentation) -> str:
    return format_rational(theta_g(pres, _entry(doc.combing, "combing").c))


def _cmd_p1(args, doc: Document, pres: SurgeryPresentation) -> str:
    return format_rational(p1(_combing(doc, pres)).value)


def _cmd_spinc_equal(args, doc: Document, pres: SurgeryPresentation) -> str:
    x, y = _combing(doc, pres), _combing(doc, pres, "combing2")
    return _bool(_spin_c_equal(pres, x.c, y.c))


def _cmd_combing_equal(args, doc: Document, pres: SurgeryPresentation) -> str:
    return _bool(combing_equal(_combing(doc, pres), _combing(doc, pres, "combing2")))


def _cmd_orbit_modulus(args, doc: Document, pres: SurgeryPresentation) -> str:
    return str(gamma_orbit_modulus(pres, _entry(doc.combing, "combing").c))


def _cmd_hf_grading(args, doc: Document, pres: SurgeryPresentation) -> str:
    return format_rational(hf_grading(_combing(doc, pres)))


def _cmd_image_p1(args, doc: Document, pres: SurgeryPresentation) -> str:
    report = p1_image(pres, cap=args.cap, box=args.box)
    check = "equal" if report.is_equal else (
        "subset (box threshold not reached)" if report.is_subset else "MISMATCH"
    )
    return "\n".join(
        [
            f"formula: {_residues(report.formula_residues, report.denominator, 4)}",
            f"enumeration: {_residues(report.enumeration_residues, report.denominator, 4)}",
            f"check: {check}",
        ]
    )


def _cmd_parity(args, doc: Document, pres: SurgeryPresentation) -> str:
    return _bool(parity_check(pres))


def _cmd_framed_total(args, doc: Document, pres: SurgeryPresentation) -> str:
    return format_rational(total_self_linking(_framed(doc, pres)))


def _cmd_framed_class(args, doc: Document, pres: SurgeryPresentation) -> str:
    cls = cobordism_class(_framed(doc, pres))
    obj = {"class": list(cls.homology), "total": format_rational(cls.total)}
    return json.dumps(obj, indent=2)


def _cmd_pontrjagin_p1(args, doc: Document, pres: SurgeryPresentation) -> str:
    x = _combing(doc, pres)
    return format_rational(pontrjagin_p1(p1(x).value, _framed(doc, pres)))


def _cmd_stabilize(args, doc: Document, pres: SurgeryPresentation) -> str:
    new = stabilize(_combing(doc, pres), args.sign, args.c0)
    combing = {"c": list(new.c), "gamma": new.gamma_offset}
    obj = {"linking_matrix": new.presentation.matrix.to_rows(), "combing": combing}
    return json.dumps(obj, indent=2)


def _cmd_modify(args, doc: Document, pres: SurgeryPresentation) -> str:
    result = apply_modification(
        p1(_combing(doc, pres)), args.kind, eta=args.eta, lk_euler=args.lk_euler,
        lk_par=args.lk_par, r=args.r, k=args.k,
    )
    return format_rational(result.value)


def _cmd_theta(args, doc: Document, pres: SurgeryPresentation) -> str:
    lam = _entry(doc.casson_walker, "lambda")  # asked for before the combing
    return format_rational(theta_invariant(lam, p1(_combing(doc, pres)).value))


# each command is its handler's name after "_cmd_", with "_" written "-"
_HANDLERS = {name.removeprefix("_cmd_").replace("_", "-"): handler
             for name, handler in globals().items() if name.startswith("_cmd_")}
COMMANDS = (*_HANDLERS, "verify")


def _read_document(args, stdin: IO[str]) -> Document:
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = stdin.read()
    return parse_document(text)


def _write(args, stdout: IO[str], output: str | Iterable[str]) -> None:
    """Write a handler's text, or each of its pieces in turn, to --output
    or stdout, and then the final newline.  The file is opened only here,
    after the handler has returned, so a refusal creates none."""
    pieces = (output + "\n",) if isinstance(output, str) else chain(output, "\n")
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            return handle.writelines(pieces)
    stdout.writelines(pieces)


def main(
    argv: list[str] | None = None,
    stdin: IO[str] | None = None,
    stdout: IO[str] | None = None,
    stderr: IO[str] | None = None,
) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _parse(tuple(sys.argv[1:] if argv is None else argv))
        if args.command == "verify":
            from .verify import format_report, run_battery  # only this command reads it

            results = run_battery(seed=args.seed)
            _write(args, stdout, format_report(results, args.seed))
            return 0 if all(r.ok for r in results) else 2
        doc = _read_document(args, stdin)
        pres = SurgeryPresentation.from_rows(doc.linking_matrix)
        # input integers keep CPython's int/str digit limit; an exact answer
        # may be longer than any of them, so the handler runs without it, and
        # so does the writing of its pieces, which a handler may make lazily
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            _write(args, stdout, _HANDLERS[args.command](args, doc, pres))
        finally:
            sys.set_int_max_str_digits(limit)
    except _Help as exc:
        stdout.write(str(exc))
    except DomainError as exc:
        print(f"error: {exc.code}: {exc}", file=stderr)
        return 2
    except ParseError as exc:
        print(f"error: parse: {exc}", file=stderr)
        return 1
    except InvalidInputError as exc:
        print(f"error: invalid input: {exc}", file=stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=stderr)
        return 1
    except Exception as exc:  # a bug; the caller still gets one line, no traceback
        print(f"error: internal: {type(exc).__name__}: {exc}", file=stderr)
        return 3
    return 0


def console() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console()
