"""Command-line front end.

Reads a JSON document from stdin (or --input), prints an exact result and
exits 0 on success, 2 on domain errors (NonTorsion, NotCharacteristic,
CapExceeded, ...), 1 on parse and I/O errors.  Any other exception is a bug:
it prints one line, `error: internal: <Type>: <message>`, and exits 3.  All
output is deterministic; `verify` is driven by --seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache
from typing import IO

from .combing import (
    DEFAULT_BOX,
    MODIFICATION_KINDS,
    CombingSpec,
    apply_modification,
    combing_equal,
    gamma_orbit_modulus,
    hf_grading,
    p1,
    p1_image,
    parity_check,
    spin_c_equal,
    stabilize,
    theta_g,
)
from .document import (
    CombingDoc,
    Document,
    emit_document,
    format_rational,
    parse_document,
    parse_rational,
)
from .errors import DomainError, ParseError
from .framed import (
    FramedLinkData,
    cobordism_class,
    pontrjagin_p1,
    total_self_linking,
)
from .surgery import (
    DEFAULT_CAP,
    ModClass,
    SurgeryPresentation,
    enumerate_torsion,
    homology_summary,
    linking_form,
)
from .theta import ThetaInput, theta_invariant
from .verify import format_report, run_battery

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse reads a word that starts with "-" as a flag unless it looks
        # like a negative number; a negative "p/q" of the document syntax is a
        # value too, so "--lk-par -1/3" parses like "--lk-par=-1/3"
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/[1-9]\d*$")

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ParseError(message)


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


def _presentation(doc: Document) -> SurgeryPresentation:
    return SurgeryPresentation.from_rows(doc.linking_matrix)


def _combing(doc: Document, which: str = "combing") -> CombingSpec:
    raw = doc.combing if which == "combing" else doc.combing2
    if raw is None:
        raise ParseError(f"this command needs a '{which}' entry in the document")
    return CombingSpec(_presentation(doc), raw.c, raw.gamma)


def _framed(doc: Document) -> FramedLinkData:
    if doc.framed is None:
        raise ParseError("this command needs a 'framed' entry in the document")
    return FramedLinkData.from_rows(
        doc.framed.lambda_matrix,
        classes=doc.framed.classes,
        ambient=_presentation(doc),
    )


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _residues(classes: frozenset[ModClass]) -> str:
    ordered = sorted(classes, key=lambda m: m.value)
    return ", ".join(str(m) for m in ordered)


def _cmd_homology(args, doc: Document) -> str:
    summary = homology_summary(_presentation(doc))
    obj = {
        "invariant_factors": list(summary.invariant_factors),
        "betti_1": summary.betti_1,
        "dim_h1_mod2": summary.dim_h1_mod2,
        "torsion_order": summary.torsion_order,
        "kernel_basis": [list(v) for v in summary.kernel_basis],
    }
    return json.dumps(obj, indent=2)


def _enumeration_json(entries: tuple[tuple[tuple[int, ...], ModClass], ...]) -> str:
    """`json.dumps([{"class": [...], "ell": str(ell)}, ...], indent=2)`,
    byte for byte.  json's indented encoder runs in Python, so the fixed
    layout is written here: each distinct ModClass is formatted and quoted by
    json once, and each coordinate is written as json writes an int, its
    repr."""
    if not entries:
        return "[]"
    ells: dict[ModClass, str] = {}
    items = []
    for rep, ell in entries:
        text = ells.get(ell)
        if text is None:
            text = ells[ell] = json.dumps(str(ell))
        cls = "[\n      " + ",\n      ".join(map(repr, rep)) + "\n    ]" if rep else "[]"
        items.append(f'  {{\n    "class": {cls},\n    "ell": {text}\n  }}')
    return "[\n" + ",\n".join(items) + "\n]"


def _cmd_linking_form(args, doc: Document) -> str:
    pres = _presentation(doc)
    if doc.meridian is not None:
        return str(linking_form(pres, doc.meridian))
    return _enumeration_json(enumerate_torsion(pres, cap=args.cap))


def _cmd_theta_g(args, doc: Document) -> str:
    x = _combing(doc)
    return format_rational(theta_g(x.presentation, x.c))


def _cmd_p1(args, doc: Document) -> str:
    return format_rational(p1(_combing(doc)).value)


def _cmd_spinc_equal(args, doc: Document) -> str:
    x = _combing(doc)
    y = _combing(doc, "combing2")
    return _bool(spin_c_equal(x.presentation, x.c, y.c))


def _cmd_combing_equal(args, doc: Document) -> str:
    return _bool(combing_equal(_combing(doc), _combing(doc, "combing2")))


def _cmd_orbit_modulus(args, doc: Document) -> str:
    x = _combing(doc)
    return str(gamma_orbit_modulus(x.presentation, x.c))


def _cmd_hf_grading(args, doc: Document) -> str:
    return format_rational(hf_grading(_combing(doc)))


def _cmd_image_p1(args, doc: Document) -> str:
    report = p1_image(_presentation(doc), cap=args.cap, box=args.box)
    check = "equal" if report.is_equal else (
        "subset (box threshold not reached)" if report.is_subset else "MISMATCH"
    )
    return "\n".join(
        [
            f"formula: {_residues(report.formula_side)}",
            f"enumeration: {_residues(report.enumeration_side)}",
            f"check: {check}",
        ]
    )


def _cmd_parity(args, doc: Document) -> str:
    return _bool(parity_check(_presentation(doc)))


def _cmd_framed_total(args, doc: Document) -> str:
    return format_rational(total_self_linking(_framed(doc)))


def _cmd_framed_class(args, doc: Document) -> str:
    cls = cobordism_class(_framed(doc))
    obj = {"class": list(cls.homology), "total": format_rational(cls.total)}
    return json.dumps(obj, indent=2)


def _cmd_pontrjagin_p1(args, doc: Document) -> str:
    p_tau = p1(_combing(doc)).value
    return format_rational(pontrjagin_p1(p_tau, _framed(doc)))


def _cmd_stabilize(args, doc: Document) -> str:
    new = stabilize(_combing(doc), args.sign, args.c0)
    out = Document(
        linking_matrix=tuple(
            tuple(new.presentation.matrix.row(i)) for i in range(new.presentation.n)
        ),
        combing=CombingDoc(c=new.c, gamma=new.gamma_offset),
    )
    return emit_document(out).rstrip("\n")


def _cmd_modify(args, doc: Document) -> str:
    result = apply_modification(
        p1(_combing(doc)), args.kind, eta=args.eta, lk_euler=args.lk_euler,
        lk_par=args.lk_par, r=args.r, k=args.k,
    )
    return format_rational(result.value)


def _cmd_theta(args, doc: Document) -> str:
    if doc.casson_walker is None:
        raise ParseError("this command needs a 'lambda' entry in the document")
    value = theta_invariant(ThetaInput(doc.casson_walker, p1(_combing(doc)).value))
    return format_rational(value)


_HANDLERS = {
    "homology": _cmd_homology,
    "linking-form": _cmd_linking_form,
    "theta-g": _cmd_theta_g,
    "p1": _cmd_p1,
    "spinc-equal": _cmd_spinc_equal,
    "combing-equal": _cmd_combing_equal,
    "orbit-modulus": _cmd_orbit_modulus,
    "hf-grading": _cmd_hf_grading,
    "image-p1": _cmd_image_p1,
    "parity": _cmd_parity,
    "framed-total": _cmd_framed_total,
    "framed-class": _cmd_framed_class,
    "pontrjagin-p1": _cmd_pontrjagin_p1,
    "stabilize": _cmd_stabilize,
    "modify": _cmd_modify,
    "theta": _cmd_theta,
}

COMMANDS = (*_HANDLERS, "verify")


def _read_document(args, stdin: IO[str]) -> Document:
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = stdin.read()
    return parse_document(text)


def _write(args, stdout: IO[str], text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        stdout.write(text)


def main(
    argv: list[str] | None = None,
    stdin: IO[str] | None = None,
    stdout: IO[str] | None = None,
    stderr: IO[str] | None = None,
) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            results = run_battery(seed=args.seed)
            _write(args, stdout, format_report(results, args.seed))
            return 0 if all(r.ok for r in results) else 2
        doc = _read_document(args, stdin)
        # input integers keep CPython's int/str digit limit; an exact answer
        # may be longer than any of them, so the handler runs without it
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            output = _HANDLERS[args.command](args, doc)
        finally:
            sys.set_int_max_str_digits(limit)
        _write(args, stdout, output)
    except DomainError as exc:
        print(f"error: {exc.code}: {exc}", file=stderr)
        return 2
    except ParseError as exc:
        print(f"error: parse: {exc}", file=stderr)
        return 1
    except ValueError as exc:
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
