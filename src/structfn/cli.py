"""Command line front end.

Reads a JSON system document (component count plus exactly one of paths,
cuts, table, or simple_form), realizes the truth table, and reports the
requested view of the system. Only table and simple_form documents are
validated; a family's table is semicoherent by construction. Each command
then computes only the views it prints and builds only the output format
asked for. Every command but ``reliability`` and ``verify`` is a tuple of
view names, and one view table gives each view's text label, JSON key,
source and renderers for both formats; the dual views are those of a second
analysis, of the dual table. Output is deterministic: families, terms, and
JSON keys are always emitted in canonical order.

Exit codes: 0 success, 1 input error (or stdout closed early), 2 capacity
exceeded, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import prod
from operator import attrgetter
from pathlib import Path
from types import GeneratorType
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import oracle
from .core import (
    CapacityError,
    DiagonalPoly,
    InvalidSignatureError,
    MultilinearForm,
    N_MAX,
    NotStructureFunctionError,
    SetFamily,
    SignatureVector,
    TruthTable,
    _check_max_n,
    _labels_text,
    _require_semicoherent,
    _subset_sort_key,
    zeta_transform,
)
from .reliability import _check_probabilities, diagonal_coefficients, evaluate_reliability
from .signature import signature_boland, signature_from_diagonal, small_counts_from_signature
from .transform import (
    R_MAX,
    _form_of,
    _minimal_paths,
    dualize_table,
    formation_balance,
    table_from_cuts,
    table_from_paths,
)

__all__ = ["SystemDoc", "Options", "Report", "parse_document", "run_command", "main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAPACITY = 2
EXIT_MISMATCH = 3

# Brute-force verification is only pleasant at desk scale.
VERIFY_N_MAX = 10
_VERIFY_FORMATION_R_MAX = 10

# Tables are echoed back in JSON output only while they stay readable.
_TABLE_ECHO_N_MAX = 12


@dataclass(frozen=True)
class SystemDoc:
    """A parsed system document: component count plus exactly one representation."""

    n: int
    kind: str
    paths: "SetFamily | None" = None
    cuts: "SetFamily | None" = None
    table: "TruthTable | None" = None
    simple_form: "MultilinearForm | None" = None


@dataclass(frozen=True)
class Options:
    """Resolved command options; caps can only tighten the library defaults."""

    fmt: str = "text"
    p: "tuple | None" = None
    max_r: "int | None" = None
    max_n: "int | None" = None


@dataclass(frozen=True)
class Report:
    text: str
    exit_code: int = EXIT_OK


def _parse_family(value: Any, field: str, n: int) -> SetFamily:
    if not isinstance(value, list):
        raise ValueError(f"{field}: expected a list of component lists")
    if not value:
        noun = "path" if field == "paths" else "cut"
        raise ValueError(f"at least one {noun} set required")
    for i, member in enumerate(value):
        if not isinstance(member, list):
            raise ValueError(f"{field}[{i}]: expected a list of components")
        for c in member:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"{field}[{i}]: component {c!r} is not an integer")
    try:
        return SetFamily.from_sets(value, n=n)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from exc


def _parse_table(value: Any, n: int) -> TruthTable:
    if not isinstance(value, str):
        raise ValueError("table: expected a string of '0'/'1' characters")
    if len(value) != 1 << n:
        raise ValueError(f"table: expected {1 << n} characters for n={n}, got {len(value)}")
    try:
        return TruthTable.from_values(value, n=n)
    except ValueError as exc:
        raise ValueError(f"table: {exc}") from exc


def _parse_form(value: Any, n: int) -> MultilinearForm:
    if not isinstance(value, list):
        raise ValueError("simple_form: expected a list of {subset, coeff} objects")
    terms = []
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise ValueError(f"simple_form[{i}]: expected an object")
        unknown = set(entry) - {"subset", "coeff"}
        if unknown:
            raise ValueError(f"simple_form[{i}]: unknown field {sorted(unknown)[0]!r}")
        if "subset" not in entry or "coeff" not in entry:
            raise ValueError(f"simple_form[{i}]: fields 'subset' and 'coeff' are required")
        subset, coeff = entry["subset"], entry["coeff"]
        if not isinstance(subset, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in subset
        ):
            raise ValueError(f"simple_form[{i}]: 'subset' must be a list of integers")
        if not isinstance(coeff, int) or isinstance(coeff, bool):
            raise ValueError(f"simple_form[{i}]: 'coeff' must be an integer")
        terms.append((subset, coeff))
    try:
        return MultilinearForm.from_terms(terms, n=n)
    except ValueError as exc:
        raise ValueError(f"simple_form: {exc}") from exc


def parse_document(text: str) -> SystemDoc:
    """Parse a JSON system document, naming the offending line or field on error."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ValueError("document nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    known = {"n", "paths", "cuts", "table", "simple_form"}
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown field {key!r}")
    if "n" not in doc:
        raise ValueError("field 'n' is required")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("field 'n' must be an integer")
    if n < 1:
        raise ValueError(f"field 'n' must be at least 1, got {n}")
    if n > N_MAX:
        raise CapacityError(f"n={n} exceeds the component cap {N_MAX}")
    given = [k for k in ("paths", "cuts", "table", "simple_form") if k in doc]
    if len(given) != 1:
        listed = ", ".join(given) if given else "none"
        raise ValueError(f"exactly one of paths/cuts/table/simple_form required, got {listed}")
    kind = given[0]
    if kind == "paths":
        return SystemDoc(n=n, kind=kind, paths=_parse_family(doc[kind], "paths", n))
    if kind == "cuts":
        return SystemDoc(n=n, kind=kind, cuts=_parse_family(doc[kind], "cuts", n))
    if kind == "table":
        return SystemDoc(n=n, kind=kind, table=_parse_table(doc[kind], n))
    return SystemDoc(n=n, kind=kind, simple_form=_parse_form(doc[kind], n))


def _realize_table(system: SystemDoc, max_n: "int | None") -> TruthTable:
    """The document's semicoherent table. Family tables need no check: a parsed
    family is nonempty with nonempty members, so its up-set is semicoherent."""
    _check_max_n(system.n, max_n)
    if system.kind == "paths":
        return table_from_paths(system.paths, max_n=max_n)
    if system.kind == "cuts":
        return table_from_cuts(system.cuts, max_n=max_n)
    table = system.table or zeta_transform(system.simple_form, max_n=max_n)
    _require_semicoherent(table)
    return table


class _Analysis:
    """The views of one semicoherent system, each computed on first use.

    :meth:`of` takes the semicoherent table of :func:`_realize_table`; after
    that no view can fail. ``max_n`` has been checked, so a form whose
    nonempty antichain of paths exceeds ``max_r`` falls back to this system's
    table instead of raising. ``dual`` analyzes the dual table, semicoherent
    too, whose minimal path sets are the minimal cut sets.
    """

    semicoherent = True  # construction raises otherwise

    def __init__(self, kind: str, table: TruthTable, options: Options) -> None:
        self.kind = kind
        self.table = table
        self._options = options

    @classmethod
    def of(cls, system: SystemDoc, options: Options) -> "_Analysis":
        return cls(system.kind, _realize_table(system, options.max_n), options)

    @cached_property
    def dual(self) -> "_Analysis":
        return _Analysis(self.kind, dualize_table(self.table), self._options)

    @cached_property
    def paths(self) -> SetFamily:
        return _minimal_paths(self.table)

    @cached_property
    def form(self) -> MultilinearForm:
        o = self._options
        return _form_of(self.paths, o.max_r, o.max_n, table=self.table)

    @cached_property
    def diagonal(self) -> DiagonalPoly:
        return diagonal_coefficients(self.form)

    @cached_property
    def sig(self) -> SignatureVector:
        return signature_from_diagonal(self.diagonal)

    @cached_property
    def small(self) -> tuple[int, int, int, int]:
        return small_counts_from_signature(self.sig)


def _signed_sum(terms: Iterable[tuple[int, str]], times: str) -> str:
    """Join (coefficient, monomial) terms as "-x + 2*y - z"; no terms read "0".

    A coefficient of magnitude 1 is left off its monomial.
    """
    parts: list[str] = []
    for coeff, monomial in terms:
        magnitude = abs(coeff)
        if magnitude == 1:
            body = monomial
        else:
            body = f"{magnitude}{times}{monomial}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


def _form_text(form: MultilinearForm) -> str:
    coeffs = form.coeffs
    masks = sorted(coeffs, key=_subset_sort_key)
    return _signed_sum(zip(map(coeffs.__getitem__, masks), _labels_text(masks, "*x")), "*")


def _diagonal_text(d: tuple[int, ...]) -> str:
    powers = ((c, "x" if k == 1 else f"x^{k}") for k, c in enumerate(d, start=1) if c)
    return _signed_sum(powers, "")


def _census_text(family: SetFamily) -> str:
    return "(" + ", ".join(str(v) for v in family.size_census()) + ")"


def _small_text(small: tuple[int, int, int, int]) -> str:
    return f"alpha1={small[0]} alpha2={small[1]} beta1={small[2]} beta2={small[3]}"


def _members_json(family: SetFamily) -> Iterator[str]:
    return (f"[{labels}\n    ]" for labels in _labels_text(family.masks(), ",\n      "))


def _terms_json(form: MultilinearForm) -> Iterator[str]:
    """The form's {"coeff", "subset"} terms in canonical order."""
    coeffs = form.coeffs
    masks = sorted(coeffs, key=_subset_sort_key)
    for m, labels in zip(masks, _labels_text(masks, ",\n        ")):
        subset = f"[{labels}\n      ]" if m else "[]"
        yield f'{{\n      "coeff": {coeffs[m]},\n      "subset": {subset}\n    }}'


def _census_json(family: SetFamily) -> list[int]:
    return list(family.size_census())


def _sig_json(sig: SignatureVector) -> list[str]:
    return [str(v) for v in sig.s]


def _small_json(small: tuple[int, int, int, int]) -> dict:
    return {"alpha1": small[0], "alpha2": small[1], "beta1": small[2], "beta2": small[3]}


def _table_json(table: TruthTable) -> "str | None":
    return table.values_string() if table.n <= _TABLE_ECHO_N_MAX else None


# Every view a report command prints: its text label, JSON key, the _Analysis
# attribute that holds it, and its text and JSON renderers. A view without a
# label is JSON only, and a JSON renderer's None leaves its key out. Families
# and forms go into the payload as generators of their items' text, for _render.
_VIEWS: dict[str, tuple] = {
    "n": ("n: ", "n", "table.n", str, int),
    "json_n": (None, "n", "table.n", None, int),
    "representation": ("representation: ", "representation", "kind", str, str),
    "semicoherent": ("semicoherent: ", "semicoherent", "semicoherent", lambda _: "yes", bool),
    "paths": ("minimal path sets: ", "minimal_path_sets", "paths", str, _members_json),
    "cuts": ("minimal cut sets: ", "minimal_cut_sets", "dual.paths", str, _members_json),
    "dual_paths": (
        "dual minimal path sets: ", "dual_minimal_path_sets", "dual.paths", str, _members_json
    ),
    "form": ("simple form: ", "simple_form", "form", _form_text, _terms_json),
    "dual_form": ("dual simple form: ", "dual_simple_form", "dual.form", _form_text, _terms_json),
    "diagonal": ("diagonal: ", "diagonal", "diagonal.d", _diagonal_text, list),
    "dual_diagonal": ("dual diagonal: ", "dual_diagonal", "dual.diagonal.d", _diagonal_text, list),
    "signature": ("signature: ", "signature", "sig", str, _sig_json),
    "s": ("s = ", "signature", "sig", str, _sig_json),
    "dual_signature": ("dual signature: ", "dual_signature", "dual.sig", str, _sig_json),
    "alpha": ("alpha: ", "alpha", "paths", _census_text, _census_json),
    "beta": ("beta: ", "beta", "dual.paths", _census_text, _census_json),
    "small_counts": ("small counts: ", "small_counts", "small", _small_text, _small_json),
    "table": (None, "table", "table", None, _table_json),
}

# The views of each report command, in the order text prints them.
_COMMAND_VIEWS = {
    "analyze": (
        "n", "representation", "semicoherent", "paths", "cuts", "form", "dual_form", "diagonal",
        "dual_diagonal", "signature", "dual_signature", "alpha", "beta", "small_counts", "table",
    ),
    "dual": ("n", "dual_paths", "dual_form", "dual_diagonal", "dual_signature"),
    "paths": ("n", "paths"),
    "cuts": ("n", "cuts"),
    "simple-form": ("n", "form"),
    "signature": ("json_n", "s"),
    "counts": ("json_n", "alpha", "beta", "small_counts"),
}

COMMANDS = (*_COMMAND_VIEWS, "reliability", "verify")


def _render(
    options: Options, lines: Callable[[], list[str]], payload: Callable[[], dict]
) -> Report:
    """Build only the format asked for: text lines or the JSON payload.

    JSON is what ``json.dumps(payload, indent=2, sort_keys=True)`` prints, from
    that one call. A list that the payload holds as a generator of its items'
    text, indented as the call indents the items of a payload value, stays out
    of it: the call sees the placeholder "\\0" instead, and one join writes
    the call's text with each placeholder's encoding replaced, in key order,
    by its list. No other payload string holds a NUL, so no other string can
    match a placeholder.
    """
    if options.fmt != "json":
        return Report(text="\n".join(lines()))
    data = payload()
    lists = {key: value for key, value in data.items() if isinstance(value, GeneratorType)}
    text = json.dumps({**data, **dict.fromkeys(lists, "\0")}, indent=2, sort_keys=True)
    skeleton = text.split('"\\u0000"')
    pieces = [skeleton[0]]
    for key, after in zip(sorted(lists), skeleton[1:]):
        items = ",\n    ".join(lists[key])
        pieces += ("[\n    ", items, "\n  ]", after) if items else ("[]", after)
    return Report(text="".join(pieces))


def _run_views(system: SystemDoc, options: Options, names: Sequence[str]) -> Report:
    a = _Analysis.of(system, options)
    views = [_VIEWS[name] for name in names]

    def lines() -> list[str]:
        return [label + text(attrgetter(attr)(a)) for label, _, attr, text, _ in views if label]

    def payload() -> dict:
        out = {key: as_json(attrgetter(attr)(a)) for _, key, attr, _, as_json in views}
        return {key: value for key, value in out.items() if value is not None}

    return _render(options, lines, payload)


def _run_reliability(system: SystemDoc, options: Options) -> Report:
    if options.p is None:
        raise ValueError("reliability requires --p")
    p = options.p
    if len(p) == 1:
        p = p * system.n
    analysis = _Analysis.of(system, options)
    _check_probabilities(p, system.n)  # after the document's checks, before the form is built
    value = evaluate_reliability(analysis.form, p)
    rendered = str(value)
    return _render(
        options,
        lambda: [f"n: {system.n}", f"reliability: {rendered}"],
        lambda: {
            "n": system.n,
            "p": [str(v) if isinstance(v, Fraction) else v for v in p],
            "reliability": rendered if isinstance(value, Fraction) else value,
        },
    )


def _formations_match(paths: SetFamily, form: MultilinearForm) -> bool:
    """Odd minus even formations, the formation balance and the coefficient agree
    on every term of the form and every union of paths. Outside those two sets
    all three counts are 0 by definition, so no other subset is checked."""
    census = oracle._formation_census(paths)  # keyed by the union closure of the paths
    for mask in sorted(set(form.coeffs) | census.keys()):
        odd, even = census.get(mask, (0, 0))
        if not odd - even == formation_balance(paths, mask) == form.coefficient(mask):
            return False
    return True


def _vertices_match(form: MultilinearForm, table: TruthTable) -> bool:
    """True when the form takes the table's value phi(m) at every vertex m of {0,1}^n.

    One exact evaluation carries all 2^n vertex values. With X = 2^w,
    p_i = 1/(1 + X^(2^i)) and D = prod_i (1 + X^(2^i)), multilinear
    interpolation gives f(p) * D = sum over masks m of f(m) * X^(full ^ m), so
    f(m) is the base-X digit at position full ^ m, and the table's side is the
    same sum of phi(m). The check is as exact as evaluating at every vertex.
    """
    # Digit bound: |f(m)| <= S = sum |c_A| < 2^(w-1), so each digit of the
    # difference, f(m) - phi(m), has magnitude at most S + 1 <= 2^(w-1) < X; a
    # base-X sum of such digits is zero only when every digit is.
    w = sum(map(abs, form.coeffs.values())).bit_length() + 1
    weights = [1 + (1 << (w << i)) for i in range(table.n)]
    value = evaluate_reliability(form, [Fraction(1, d) for d in weights]) * prod(weights)
    # Digit full ^ m is phi(m): the values in mask order are the digits from the top.
    return value == int(("0" * (w - 1)).join(table.values_string()), 2)


def _run_verify(system: SystemDoc, options: Options) -> Report:
    _check_max_n(system.n, options.max_n)  # a tighter --max-n names itself first
    if system.n > VERIFY_N_MAX:
        raise CapacityError(
            f"verify runs brute-force oracles and is limited to n <= {VERIFY_N_MAX}, got n={system.n}"
        )
    a = _Analysis.of(system, options)
    table, paths = a.table, a.paths
    # Each check returns True, False, or the reason it was skipped. The form and
    # signature checked are the ones the report commands print.
    checks = {
        "zeta of mobius reproduces table": lambda: zeta_transform(a.form) == table,
        "mobius matches direct polynomial expansion": (
            lambda: a.form == oracle.oracle_simple_form(table)
        ),
        "minimal path sets match definition": (
            lambda: paths == oracle.oracle_minimal_path_sets(table)
        ),
        "minimal cut sets match definition": (
            lambda: a.dual.paths == oracle.oracle_minimal_cut_sets(table)
        ),
        "dual table matches definition": lambda: a.dual.table == oracle.oracle_dual_table(table),
        "formation census matches simple form": lambda: (
            _formations_match(paths, a.form)
            if paths.r <= _VERIFY_FORMATION_R_MAX
            else f"skipped ({paths.r} path sets exceeds oracle cap {_VERIFY_FORMATION_R_MAX})"
        ),
        "signature routes agree": lambda: signature_boland(table) == a.sig,
        "reliability at vertices matches table": lambda: _vertices_match(a.form, table),
    }
    results = []
    for name, check in checks.items():
        try:
            outcome = check()
        except (NotStructureFunctionError, InvalidSignatureError):  # a route rejected its output
            outcome = False
        result = outcome if isinstance(outcome, str) else "ok" if outcome else "MISMATCH"
        results.append((name, result))
    passed = sum(1 for _, result in results if result != "MISMATCH")
    verified = passed == len(results)
    summary = f"verification: {'PASS' if verified else 'FAIL'} ({passed}/{len(results)} checks)"
    rendered = _render(
        options,
        lambda: [f"check {name}: {result}" for name, result in results] + [summary],
        lambda: {
            "n": system.n,
            "checks": [{"name": name, "result": result} for name, result in results],
            "verified": verified,
        },
    )
    return Report(text=rendered.text, exit_code=EXIT_OK if verified else EXIT_MISMATCH)


def run_command(system: SystemDoc, command: str, options: "Options | None" = None) -> Report:
    """Execute one CLI command against a parsed document and return its report."""
    options = options or Options()
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    if command == "reliability":
        return _run_reliability(system, options)
    if command == "verify":
        return _run_verify(system, options)
    return _run_views(system, options, _COMMAND_VIEWS[command])


def _parse_p(raw: str, exact: bool) -> tuple:
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            raise ValueError("--p: empty entry")
        try:
            values.append(Fraction(token) if exact else float(token))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"--p: cannot parse {token!r}") from exc
    return tuple(values)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems are input errors, not exit code 2
        raise ValueError(message)


@cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="structfn",
        description="Analyze semicoherent system structure functions.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("document", help="path to a JSON system document, or '-' for stdin")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt", help="output format"
    )
    parser.add_argument(
        "--p",
        help="component working probabilities: one common value or n comma-separated values",
    )
    parser.add_argument(
        "--exact",
        action="store_true",
        help="use rational arithmetic; --p then accepts fractions such as 1/2",
    )
    parser.add_argument(
        "--max-r", type=int, default=None, help=f"family-size cap for expansions (at most {R_MAX})"
    )
    parser.add_argument(
        "--max-n", type=int, default=None, help=f"component-count cap (at most {N_MAX})"
    )
    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.max_r is not None and not 1 <= args.max_r <= R_MAX:
            raise ValueError(f"--max-r must be in 1..{R_MAX}")
        if args.max_n is not None and not 1 <= args.max_n <= N_MAX:
            raise ValueError(f"--max-n must be in 1..{N_MAX}")
        p = _parse_p(args.p, args.exact) if args.p is not None else None
        options = Options(fmt=args.fmt, p=p, max_r=args.max_r, max_n=args.max_n)
        if args.document == "-":
            text = sys.stdin.read()
        else:
            text = Path(args.document).read_text(encoding="utf-8")
        system = parse_document(text)
        report = run_command(system, args.command, options)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        print(report.text)
        sys.stdout.flush()
    except BrokenPipeError:  # a reader such as `head` closed stdout early
        # Point stdout at devnull so the interpreter's own flush at exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    return report.exit_code
