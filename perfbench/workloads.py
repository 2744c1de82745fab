"""The benchmark's workloads: seeded inputs and a check for every output.

A workload yields rounds of operations.  A round has a fixed mix of
commands and sizes, drawn afresh from the seed, so the latency
distribution of a run depends on the seed only through matrix entries.
Each operation carries its own check; the expected values come from
`oracle` or from the way the input was built, never from `combings`.

Library calls look functions up on their module at call time, so the
traced run sees the wrapped versions.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracle
from combings import cli, combing, linalg, surgery


@dataclass
class Op:
    """One operation: `call` is timed, `check` is not.

    `check(result)` returns None when the output is right, else a reason.
    `inputs` is what a failure report prints.  `rep_bits(result)` gives the
    largest bit length of printed class representatives, if the command
    prints any.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    inputs: dict
    rep_bits: Callable[[Any], int] | None = None


def rng_for(seed: int, *stream) -> random.Random:
    return random.Random(":".join(str(s) for s in (seed,) + stream))


def random_symmetric(rng: random.Random, n: int, bound: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-bound, bound)
    return m


def random_nonsingular(rng, n, bound, det_range=None) -> tuple[list[list[int]], int]:
    while True:
        b = random_symmetric(rng, n, bound)
        d = oracle.det(b)
        if d and (det_range is None or det_range[0] <= abs(d) <= det_range[1]):
            return b, d


# --- CLI calls ---------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def cli_op(name: str, argv: list[str], doc: dict, check, rep_bits=None) -> Op:
    text = json.dumps(doc)

    def call() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(argv, stdin=io.StringIO(text), stdout=out, stderr=err)
        return CliResult(code, out.getvalue(), err.getvalue())

    def checked(res: CliResult) -> str | None:
        if "Traceback" in res.err:
            return "traceback on stderr"
        if res.code != 0:
            return f"exit code {res.code}: {res.err.strip()}"
        try:
            return check(res.out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output ({exc!r}): {res.out[:200]!r}"

    bits = (lambda res: rep_bits(res.out)) if rep_bits else None
    return Op(name, call, checked, {"argv": argv, "document": doc}, bits)


def expect_rational(expected: Fraction):
    def check(out: str) -> str | None:
        got = Fraction(out.strip())
        return None if got == expected else f"got {got}, expected {expected}"

    return check


def expect_text(expected: str):
    def check(out: str) -> str | None:
        got = out.strip()
        return None if got == expected else f"got {got!r}, expected {expected!r}"

    return check


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _residues(line: str, label: str) -> set[Fraction]:
    head, _, body = line.partition(": ")
    if head != label:
        raise ValueError(f"expected a {label!r} line, got {line!r}")
    out = set()
    for item in filter(None, body.split(", ")):
        value, _, modulus = item.partition(" (mod ")
        if modulus != "4)":
            raise ValueError(f"residue not mod 4: {item!r}")
        out.add(Fraction(value))
    return out


# --- cli-small -------------------------------------------------------------------

SMALL_COMMANDS = (
    "homology",
    "theta-g",
    "p1",
    "hf-grading",
    "parity",
    "spinc-equal",
    "combing-equal",
    "orbit-modulus",
)
SMALL_SIZES = (1, 2, 3, 4, 5, 6)
SMALL_BOUND = 5


@dataclass
class Congruent:
    """B = P^T D P with D diagonal and P unimodular, both known."""

    b: list[list[int]]
    p: list[list[int]]
    d: list[int]

    def pt(self, w: list[int]) -> list[int]:
        n = len(self.d)
        return [sum(self.p[k][i] * w[k] for k in range(n)) for i in range(n)]

    def characteristic(self, rng, torsion: bool) -> list[int]:
        """w with w_i = d_i mod 2; c = P^T w is then characteristic for B.
        Torsion c needs w_i = 0 wherever d_i = 0."""
        w = []
        for di in self.d:
            if di == 0 and torsion:
                w.append(0)
            else:
                w.append(di % 2 + 2 * rng.randint(-2, 2))
        return w

    def theta(self, w: list[int]) -> Fraction:
        """theta_g(B, P^T w) = sum w_i^2/d_i - 2(n+1) - 3 sig(D)."""
        n = len(self.d)
        sig = sum(1 for x in self.d if x > 0) - sum(1 for x in self.d if x < 0)
        q = sum((Fraction(wi * wi, di) for wi, di in zip(w, self.d) if di), Fraction(0))
        return q - 2 * (n + 1) - 3 * sig

    def in_d_lattice(self, v: list[int]) -> bool:
        return all((vi % di == 0) if di else vi == 0 for vi, di in zip(v, self.d))


def congruent_presentation(rng: random.Random, n: int) -> Congruent:
    """A small presentation P^T D P made by random elementary congruences,
    each kept only while every entry stays within SMALL_BOUND."""
    d = [0 if rng.random() < 0.15 else rng.choice((1, -1)) * rng.randint(1, SMALL_BOUND)
         for _ in range(n)]
    b = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        nb = oracle.congruence(b, i, j, s)
        if max(abs(x) for row in nb for x in row) <= SMALL_BOUND:
            b = nb
            for row in p:  # P <- P E: column i += s * column j
                row[i] += s * row[j]
    pt_d_p = [
        [sum(p[k][i] * d[k] * p[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    if pt_d_p != b:
        raise AssertionError("congruent_presentation lost track of P")
    return Congruent(b, p, d)


def _check_homology(pres: Congruent):
    n = len(pres.d)
    zeros = [i for i, x in enumerate(pres.d) if x == 0]
    nonzero = [x for x in pres.d if x]

    def check(out: str) -> str | None:
        obj = json.loads(out)
        want = {
            "invariant_factors": oracle.diagonal_invariant_factors(nonzero),
            "betti_1": len(zeros),
            "dim_h1_mod2": sum(1 for x in pres.d if x % 2 == 0),
            "torsion_order": math.prod(abs(x) for x in nonzero),
        }
        for key, value in want.items():
            if obj[key] != value:
                return f"{key}: got {obj[key]}, expected {value}"
        kernel = obj["kernel_basis"]
        if len(kernel) != len(zeros):
            return f"kernel basis has {len(kernel)} vectors, expected {len(zeros)}"
        # z is in the kernel iff (P z)_i = 0 wherever d_i != 0; the basis is
        # a lattice basis iff its P-coordinates on the zero slots are unimodular.
        coords = []
        for z in kernel:
            y = oracle.matvec(pres.p, z)
            if any(y[i] for i in range(n) if pres.d[i]):
                return f"kernel vector {z} is not in the kernel"
            coords.append([y[i] for i in zeros])
        if zeros and abs(oracle.det(coords)) != 1:
            return "kernel basis does not span the kernel lattice"
        return None

    return check


def small_op(rng: random.Random, command: str, n: int) -> Op:
    pres = congruent_presentation(rng, n)
    doc: dict = {"linking_matrix": pres.b}
    gamma = rng.randint(-3, 3)
    if command == "homology":
        return cli_op(command, [command], doc, _check_homology(pres))
    if command == "parity":  # Kirby-Melvin: the parity law holds for every B
        return cli_op(command, [command], doc, expect_text("true"))
    if command in ("theta-g", "p1", "hf-grading"):
        w = pres.characteristic(rng, torsion=True)
        doc["combing"] = {"c": pres.pt(w), "gamma": gamma}
        p1 = pres.theta(w) + 4 * gamma
        want = {"theta-g": pres.theta(w), "p1": p1, "hf-grading": (2 + p1) / 4}
        return cli_op(command, [command], doc, expect_rational(want[command]))
    if command == "orbit-modulus":
        w = pres.characteristic(rng, torsion=False)
        doc["combing"] = {"c": pres.pt(w), "gamma": gamma}
        # the kernel lattice is P^{-1} span{e_i : d_i = 0}, and c . P^{-1} e_i = w_i
        modulus = 0
        for wi, di in zip(w, pres.d):
            if di == 0:
                modulus = math.gcd(modulus, wi)
        return cli_op(command, [command], doc, expect_text(str(modulus)))
    # spinc-equal / combing-equal: c' = c + 2 P^T v, the same Spin^c structure
    # iff v is in D Z^n; half of the draws pick such a v.
    torsion = command == "combing-equal"
    w = pres.characteristic(rng, torsion=torsion)
    if rng.random() < 0.5:
        v = [di * rng.randint(-2, 2) for di in pres.d]
    else:
        v = [0 if (torsion and di == 0) else rng.randint(-3, 3) for di in pres.d]
    w2 = [a + 2 * b for a, b in zip(w, v)]
    same = pres.in_d_lattice(v)
    doc["combing"] = {"c": pres.pt(w), "gamma": gamma}
    if command == "spinc-equal":
        doc["combing2"] = {"c": pres.pt(w2), "gamma": 0}
        return cli_op(command, [command], doc, expect_text(_bool(same)))
    t1, t2 = pres.theta(w), pres.theta(w2)
    gamma2 = rng.randint(-3, 3)
    if rng.random() < 0.5 and (t1 - t2) % 4 == 0:
        gamma2 = gamma + int((t1 - t2) / 4)
    doc["combing2"] = {"c": pres.pt(w2), "gamma": gamma2}
    equal = same and t1 + 4 * gamma == t2 + 4 * gamma2
    return cli_op(command, [command], doc, expect_text(_bool(equal)))


class CliSmall:
    """Interactive CLI use: many small, distinct documents."""

    ROUND_S = 0.21  # wall seconds of one round, checks included

    def __init__(self, seed: int):
        self.seed = seed

    def warmup(self) -> list[Op]:
        rng = rng_for(self.seed, "cli-small", "warmup")
        return [small_op(rng, c, 3) for c in SMALL_COMMANDS]

    def round(self, r: int) -> list[Op]:
        rng = rng_for(self.seed, "cli-small", r)
        ops = [small_op(rng, c, n) for c in SMALL_COMMANDS for n in SMALL_SIZES]
        rng.shuffle(ops)
        return ops


# --- combing-sweep -------------------------------------------------------------------

SWEEP_SIZES = tuple(range(8, 21))  # one presentation per n
SWEEP_BOUND = 5
SWEEP_U_RANGE = 3  # measured u lie in [-3, 3]^n; warm-up u have u_0 >= 4


@dataclass
class SweepPresentation:
    pres: surgery.SurgeryPresentation
    b: list[list[int]]
    adj: list[list[int]]
    det: int
    c_ref: list[int]
    theta_ref: Fraction

    def shifted(self, u: list[int]) -> tuple[list[int], Fraction]:
        """c = c_ref + 2 B u and its theta_g by the exact shift law
        theta(c + 2Bu) - theta(c) = 4 (u^T c + u^T B u)."""
        bu = oracle.matvec(self.b, u)
        c = [x + 2 * y for x, y in zip(self.c_ref, bu)]
        dot = sum(x * y for x, y in zip(u, self.c_ref))
        return c, self.theta_ref + 4 * (dot + sum(x * y for x, y in zip(u, bu)))


class CombingSweep:
    """Spin^c scanning: many distinct c on a few fixed presentations."""

    ROUND_S = 0.6  # wall seconds of one round, checks included

    def __init__(self, seed: int):
        self.seed = seed
        rng = rng_for(seed, "combing-sweep", "presentations")
        self.presentations = []
        for n in SWEEP_SIZES:
            b, _ = random_nonsingular(rng, n, SWEEP_BOUND)
            adj, d = oracle.adjugate(b)
            c_ref, theta_ref = oracle.reference_theta(b, rng)
            self.presentations.append(
                SweepPresentation(
                    surgery.SurgeryPresentation.from_rows(b), b, adj, d, c_ref, theta_ref
                )
            )
        # u = 0 gives c_ref, whose theta_g the warm-up computes
        self.seen = {(0,) * n for n in SWEEP_SIZES}

    def _fresh_u(self, rng, n: int, warm: bool) -> list[int]:
        while True:
            u = [rng.randint(-SWEEP_U_RANGE, SWEEP_U_RANGE) for _ in range(n)]
            if warm:
                u[0] = SWEEP_U_RANGE + 1 + rng.randint(0, 3)
            if tuple(u) not in self.seen:
                self.seen.add(tuple(u))
                return u

    def _ops(self, rng, sp: SweepPresentation, warm: bool) -> list[Op]:
        n = len(sp.b)
        ops = []
        for kind in ("theta_g", "theta_g", "p1", "spin_c_equal"):
            c, theta = sp.shifted(self._fresh_u(rng, n, warm))
            inputs = {"linking_matrix": sp.b, "c": c}
            if kind == "theta_g":
                ops.append(Op(kind, lambda c=c: combing.theta_g(sp.pres, c),
                              _equal(theta), inputs))
            elif kind == "p1":
                g = rng.randint(-3, 3)
                inputs["gamma"] = g
                ops.append(Op(kind, lambda c=c, g=g: combing.p1(
                    combing.CombingSpec(sp.pres, tuple(c), g)).value,
                    _equal(theta + 4 * g), inputs))
            else:
                # c - c' = 2v: the same Spin^c structure iff v is in B Z^n
                if rng.random() < 0.5:
                    v = oracle.matvec(sp.b, [rng.randint(-2, 2) for _ in range(n)])
                else:
                    v = [rng.randint(-2, 2) for _ in range(n)]
                same = all(x % abs(sp.det) == 0 for x in oracle.matvec(sp.adj, v))
                c2 = [x + 2 * y for x, y in zip(c, v)]
                inputs["c2"] = c2
                ops.append(Op(kind, lambda c=c, c2=c2: combing.spin_c_equal(
                    sp.pres, c, c2), _equal(same), inputs))
        return ops

    def warmup(self) -> list[Op]:
        """Check each presentation's SNF, then fill its SNF and signature
        caches with c that the measured rounds never use."""
        rng = rng_for(self.seed, "combing-sweep", "warmup")
        ops = []
        for sp in self.presentations:
            ops.append(Op("smith_normal_form",
                          lambda sp=sp: linalg.smith_normal_form(sp.pres.matrix),
                          _check_snf(sp.b, sp.det), {"linking_matrix": sp.b}))
            ops.append(Op("theta_g", lambda sp=sp: combing.theta_g(sp.pres, sp.c_ref),
                          _equal(sp.theta_ref),
                          {"linking_matrix": sp.b, "c": sp.c_ref}))
            ops.extend(self._ops(rng, sp, warm=True))
        return ops

    def round(self, r: int) -> list[Op]:
        rng = rng_for(self.seed, "combing-sweep", r)
        ops = [op for sp in self.presentations for op in self._ops(rng, sp, warm=False)]
        rng.shuffle(ops)
        return ops


def _equal(expected):
    def check(got) -> str | None:
        return None if got == expected else f"got {got}, expected {expected}"

    return check


def _check_snf(b: list[list[int]], d: int):
    """U B V = D, D diagonal with d_1 | d_2 | ..., and prod d_i = |det B|."""

    def check(snf) -> str | None:
        u, v, dm = snf.U.to_rows(), snf.V.to_rows(), snf.D.to_rows()
        ub = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in u]
        ubv = [[sum(x * y for x, y in zip(row, col)) for col in zip(*v)] for row in ub]
        if ubv != dm:
            return "U B V != D"
        n = len(b)
        diag = [dm[i][i] for i in range(n)]
        if any(dm[i][j] for i in range(n) for j in range(n) if i != j):
            return "D is not diagonal"
        if any(x < 0 for x in diag) or any(
            diag[i + 1] % diag[i] for i in range(n - 1) if diag[i]
        ):
            return f"diagonal {diag} is not a divisibility chain"
        if math.prod(diag) != abs(d):
            return f"product of invariant factors {math.prod(diag)} != |det| {abs(d)}"
        return None

    return check


# --- large-presentation ------------------------------------------------------------

# Weighted toward the small end so that a run holds enough samples for p90;
# every round still has one n = 40 presentation per command.  Every n from
# 16 to 24 occurs, so that the latencies near p50 lie close together.
LARGE_SIZES = (16, 16, 17, 17, 18, 19, 20, 21, 22, 23, 24, 28, 32, 36, 40)
LARGE_BOUND = 5
LARGE_COMMANDS = ("homology", "theta-g", "framed-class")


def _printed_bits(out: str) -> int:
    return oracle.max_bits(json.loads(out)["class"])


def large_op(rng: random.Random, command: str, n: int) -> Op:
    b, d = random_nonsingular(rng, n, LARGE_BOUND)
    doc: dict = {"linking_matrix": b}
    if command == "homology":
        def check(out: str) -> str | None:
            obj = json.loads(out)
            factors = obj["invariant_factors"]
            if obj["betti_1"] != 0 or obj["kernel_basis"]:
                return "nonsingular B reported a kernel"
            if any(y % x for x, y in zip(factors, factors[1:])):
                return f"invariant factors {factors} are not a divisibility chain"
            if math.prod(factors) != abs(d) or obj["torsion_order"] != abs(d):
                return f"prod of invariant factors / torsion order != |det B| = {abs(d)}"
            want = n - oracle.rank_mod2(b)
            if obj["dim_h1_mod2"] != want:
                return f"dim_h1_mod2: got {obj['dim_h1_mod2']}, expected {want}"
            return None

        return cli_op(command, [command], doc, check)
    if command == "theta-g":
        c, theta = oracle.reference_theta(b, rng)
        doc["combing"] = {"c": c, "gamma": 0}
        return cli_op(command, [command], doc, expect_rational(theta))
    v = [rng.randint(-LARGE_BOUND, LARGE_BOUND) for _ in range(n)]
    lam = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
    doc["framed"] = {"lambda_matrix": [[str(lam)]], "classes": [v]}

    def check_class(out: str) -> str | None:
        # checked by property, never by digits: the printed class must differ
        # from v by an element of B Z^n
        obj = json.loads(out)
        rep = obj["class"]
        if len(rep) != n:
            return f"class has length {len(rep)}, expected {n}"
        if not oracle.in_column_lattice(b, [x - y for x, y in zip(rep, v)]):
            return "printed class is not the class of the input vector"
        if Fraction(obj["total"]) != lam:
            return f"total: got {obj['total']}, expected {lam}"
        return None

    return cli_op(command, [command], doc, check_class, _printed_bits)


class LargePresentation:
    """Coefficient explosion: one fresh dense B per call, no cache hits."""

    ROUND_S = 7.3  # wall seconds of one round, checks included

    def __init__(self, seed: int):
        self.seed = seed

    def warmup(self) -> list[Op]:
        rng = rng_for(self.seed, "large-presentation", "warmup")
        return [large_op(rng, c, 8) for c in LARGE_COMMANDS]

    def round(self, r: int) -> list[Op]:
        rng = rng_for(self.seed, "large-presentation", r)
        ops = [large_op(rng, c, n) for c in LARGE_COMMANDS for n in LARGE_SIZES]
        rng.shuffle(ops)
        return ops


# --- torsion-image ------------------------------------------------------------------

# L(d, 1) per round: d at LENS_COUNT log-spaced points from 10 to 10^4, each
# lowered by up to LENS_JITTER of itself, so that a round's cost and the
# latencies near p90 barely depend on the seed.
LENS_COUNT = 14
LENS_JITTER = 0.06
LENS_BOX = 8
PLUMBING_BOX = {1: 6, 2: 6, 3: 6, 4: 4, 5: 2, 6: 2}
# (n, entry bound, torsion order range) for the random presentations, three
# each: their 35-70 ms calls are where a round's median latency falls
RANDOM_TORSION = ((2, 25, (450, 550)), (3, 6, (120, 150)), (4, 3, (60, 75)))


def plumbing(rng: random.Random, k: int) -> list[list[int]]:
    """The A_k plumbing (a chain of -2-framed unknots), relabelled by a
    random signed permutation, so that for k > 2 calls rarely share a matrix."""
    a = [[-2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(k)]
         for i in range(k)]
    perm = list(range(k))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(k)]
    return [[sign[i] * sign[j] * a[perm[i]][perm[j]] for j in range(k)]
            for i in range(k)]


def _check_enumeration(b: list[list[int]]):
    """Every torsion class exactly once, each with lk(v, v) = -v^T B^{-1} v.
    For L(d, 1) this is d classes with values -k^2/d mod 1."""
    adj, d = oracle.adjugate(b)

    def check(out: str) -> str | None:
        entries = json.loads(out)
        if len(entries) != abs(d):
            return f"{len(entries)} classes, expected |det B| = {abs(d)}"
        keys = set()
        for e in entries:
            v = e["class"]
            keys.add(oracle.class_key(adj, d, v))
            want = oracle.self_linking(adj, d, v)
            value, _, modulus = e["ell"].partition(" (mod ")
            if modulus != "1)" or Fraction(value) != want:
                return f"class {v}: ell {e['ell']}, expected {want}"
        if len(keys) != abs(d):
            return "two printed representatives lie in the same class"
        return None

    return check


def _enumeration_bits(out: str) -> int:
    return max((oracle.max_bits(e["class"]) for e in json.loads(out)), default=0)


def _check_image(b: list[list[int]], box: int, rng: random.Random):
    """The formula side is a translate of {-4 lk(x, x)} over the whole
    discriminant group, the enumeration side is the sweep of characteristic
    c in the box, and the `check:` line agrees with both."""
    n = len(b)
    reps, adj, d = oracle.discriminant_group(b)
    ells = {oracle.self_linking(adj, d, x) for x in reps}
    const = -2 * (n + 1) - 3 * oracle.signature(b, rng)
    ranges = [[c for c in range(-box, box + 1) if (c - b[i][i]) % 2 == 0]
              for i in range(n)]
    swept = set()
    for c in itertools.product(*ranges):
        swept.add((Fraction(oracle.quad(adj, c), d) + const) % 4)

    def check(out: str) -> str | None:
        lines = out.strip().split("\n")
        if len(lines) != 3:
            return f"expected 3 lines, got {len(lines)}"
        formula = _residues(lines[0], "formula")
        enumeration = _residues(lines[1], "enumeration")
        if enumeration != swept:
            return f"enumeration side {sorted(enumeration)} != sweep {sorted(swept)}"
        if not any(formula == {(t - 4 * e) % 4 for e in ells} for t in formula):
            return "formula side is not p1(reference) - 4 lk over the torsion group"
        if not enumeration <= formula:
            return "enumeration side is not inside the formula side"
        want = "equal" if enumeration == formula else "subset (box threshold not reached)"
        if lines[2] != f"check: {want}":
            return f"{lines[2]!r}, expected 'check: {want}'"
        return None

    return check


def torsion_ops(rng: random.Random) -> list[Op]:
    cases = []  # (matrix, box for image-p1, or None for linking-form only)
    for i in range(LENS_COUNT):
        d = round(10 ** (1 + 3 * i / (LENS_COUNT - 1)) * (1 - LENS_JITTER * rng.random()))
        cases.append(([[d]], LENS_BOX))
    for k in range(1, 10):
        cases.append((plumbing(rng, k), PLUMBING_BOX.get(k)))
    for n, bound, orders in RANDOM_TORSION * 3:
        b, _ = random_nonsingular(rng, n, bound, orders)
        cases.append((b, 2))
    ops = []
    for b, box in cases:
        doc = {"linking_matrix": b}
        ops.append(cli_op("linking-form", ["linking-form"], doc,
                          _check_enumeration(b), _enumeration_bits))
        if box is not None:
            argv = ["image-p1", "--box", str(box)]
            ops.append(cli_op("image-p1", argv, doc, _check_image(b, box, rng)))
    return ops


class TorsionImage:
    """Per-class and per-vector work: full enumerations and p_1 images."""

    ROUND_S = 5.2  # wall seconds of one round, checks included

    def __init__(self, seed: int):
        self.seed = seed

    def warmup(self) -> list[Op]:
        rng = rng_for(self.seed, "torsion-image", "warmup")
        doc = {"linking_matrix": [[7]]}
        return [
            cli_op("linking-form", ["linking-form"], doc, _check_enumeration([[7]])),
            cli_op("image-p1", ["image-p1", "--box", "4"], doc,
                   _check_image([[7]], 4, rng)),
        ]

    def round(self, r: int) -> list[Op]:
        rng = rng_for(self.seed, "torsion-image", r)
        ops = torsion_ops(rng)
        rng.shuffle(ops)
        return ops


WORKLOADS = {
    "cli-small": CliSmall,
    "combing-sweep": CombingSweep,
    "large-presentation": LargePresentation,
    "torsion-image": TorsionImage,
}
