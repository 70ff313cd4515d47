"""Reading CLI output back and checking results against independent routes.

``parse_output`` turns either output format into the same dictionary: path and
cut families as sets of masks, forms as mask -> coefficient, signatures as
tuples of Fractions. The ``check_*`` functions return a list of failure
messages; an empty list means the document passed. They call the library
through its modules, so they must run before tracing is installed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from gen import Doc, bits_of

from structfn import core, reliability, signature, transform

_FAMILIES = {
    "minimal path sets": "paths",
    "minimal cut sets": "cuts",
    "dual minimal path sets": "cuts",
}
_FORMS = {"simple form": "form", "dual simple form": "dual_form"}
_SIGNATURES = {"signature": "signature", "s": "signature", "dual signature": "dual_signature"}
_JSON_KEYS = {
    "minimal_path_sets": "paths",
    "minimal_cut_sets": "cuts",
    "dual_minimal_path_sets": "cuts",
    "simple_form": "form",
    "dual_simple_form": "dual_form",
    "signature": "signature",
    "dual_signature": "dual_signature",
}


def _family_text(value: str) -> frozenset:
    return frozenset(bits_of(int(c) for c in body.split(",") if c)
                     for body in re.findall(r"\{([\d,]*)\}", value))


def _form_text(value: str) -> dict[int, int]:
    signed = "- " + value[1:] if value.startswith("-") else "+ " + value
    tokens = signed.split(" ")
    coeffs: dict[int, int] = {}
    for sign, body in zip(tokens[0::2], tokens[1::2]):
        parts = body.split("*")
        magnitude = int(parts[0]) if parts[0].isdigit() else 1
        mask = bits_of(int(p[1:]) for p in parts if p.startswith("x"))
        if magnitude:
            coeffs[mask] = magnitude if sign == "+" else -magnitude
    return coeffs


def _tuple_text(value: str) -> tuple:
    return tuple(Fraction(v) for v in value.strip("()").split(", "))


def parse_output(text: str, fmt: str, exact: bool = True) -> dict:
    """The checked fields of one CLI report, in either format."""
    out: dict = {}
    if fmt == "json":
        payload = json.loads(text)
        for key, field in _JSON_KEYS.items():
            if key not in payload:
                continue
            value = payload[key]
            if field in ("paths", "cuts"):
                out[field] = frozenset(bits_of(m) for m in value)
            elif field in ("form", "dual_form"):
                out[field] = {bits_of(t["subset"]): t["coeff"] for t in value}
            else:
                out[field] = tuple(Fraction(v) for v in value)
        if "reliability" in payload:
            value = payload["reliability"]
            out["reliability"] = Fraction(value) if isinstance(value, str) else value
        if "verified" in payload:
            out["verified"] = payload["verified"]
        return out
    for line in text.splitlines():
        if line.startswith("s = "):
            key, value = "s", line[4:]
        elif ": " in line:
            key, value = line.split(": ", 1)
        else:
            continue
        if key in _FAMILIES:
            out[_FAMILIES[key]] = _family_text(value)
        elif key in _FORMS:
            out[_FORMS[key]] = _form_text(value)
        elif key in _SIGNATURES:
            out[_SIGNATURES[key]] = _tuple_text(value)
        elif key == "reliability":
            out["reliability"] = Fraction(value) if exact else float(value)
        elif key == "verification":
            out["verified"] = value.startswith("PASS ")
    return out


def close(value, reference, rel: float = 1e-9) -> bool:
    """Exact equality for Fractions, relative tolerance for floats."""
    if isinstance(value, Fraction) and isinstance(reference, Fraction):
        return value == reference
    return abs(value - reference) <= rel * max(abs(reference), 1e-300)


def _family(masks, n: int) -> core.SetFamily:
    return core.SetFamily(n=n, members=tuple(core.SubsetMask(m, n) for m in sorted(masks)))


def check_cli(doc: Doc, code: int, stdout: str) -> list[str]:
    """Check one CLI report against the generator's answers and a second route."""
    if code != 0:
        return [f"exit code {code}"]
    exact = "--exact" in doc.argv or doc.command != "reliability"
    out = parse_output(stdout, doc.fmt, exact)
    fails = []
    paths = _family(doc.paths, doc.n)
    table = transform.table_from_paths(paths)
    if doc.table is not None and table.bits != doc.table:
        fails.append("table_from_paths differs from enumeration")
    if "paths" in out and out["paths"] != frozenset(doc.paths):
        fails.append("minimal path sets differ from the input antichain")
    if "cuts" in out:
        if doc.cuts is not None and out["cuts"] != frozenset(doc.cuts):
            fails.append("minimal cut sets differ from the minimal transversals")
        if transform.table_from_cuts(_family(out["cuts"], doc.n)) != table:
            fails.append("table_from_cuts(cuts) differs from table_from_paths(paths)")
    if "form" in out:
        form = core.MultilinearForm(n=doc.n, coeffs=out["form"])
        if core.zeta_transform(form) != table:
            fails.append("zeta of the simple form differs from the table")
        if doc.command == "simple-form" and any(
            transform.formation_balance(paths, m) != c for m, c in out["form"].items()
        ):
            fails.append("formation_balance differs from a coefficient")
    if "dual_form" in out:
        form = core.MultilinearForm(n=doc.n, coeffs=out["dual_form"])
        if core.zeta_transform(form) != transform.dualize_table(table):
            fails.append("zeta of the dual simple form differs from the dual table")
    if "signature" in out or "dual_signature" in out:
        boland = signature.signature_boland(table).s
        if out.get("signature", boland) != boland:
            fails.append("signature differs from signature_boland")
        if out.get("dual_signature", boland[::-1]) != boland[::-1]:
            fails.append("dual signature differs from reversed signature_boland")
    if doc.command == "reliability":
        reference = reliability.evaluate_inclusion_exclusion(paths, doc.p)
        if not close(out.get("reliability", -1), reference):
            fails.append("reliability differs from inclusion-exclusion")
    if doc.command == "verify" and out.get("verified") is not True:
        fails.append("verify did not PASS")
    return fails


def check_expansion(doc: Doc, result: dict) -> list[str]:
    """Check the float path-family routes against the table and the simple form."""
    fails = []
    paths = _family(doc.paths, doc.n)
    form = result["form"]
    table = transform.table_from_paths(paths)
    if transform.paths_from_simple_form(form).masks() != paths.masks():
        fails.append("paths of the simple form differ from the input antichain")
    if core.zeta_transform(form) != table:
        fails.append("zeta of the simple form differs from the table")
    if result["diagonal"] != reliability.diagonal_coefficients(form):
        fails.append("diagonal_from_paths differs from the form's diagonal")
    if result["signature"] != signature.signature_boland(table):
        fails.append("signature_from_paths differs from signature_boland")
    if any(b != form.coefficient(s) for b, s in zip(result["balances"], doc.subsets)):
        fails.append("formation_balance differs from the coefficient")
    if not close(result["ie"], reliability.evaluate_reliability(form, doc.p)):
        fails.append("float inclusion-exclusion differs from evaluate_reliability")
    return fails


def check_exact(doc: Doc, result: dict) -> list[str]:
    """Check the two exact reliability routes, the CLI and the two signature routes agree."""
    fails = []
    if result["ie"] != result["reliability"]:
        fails.append("exact inclusion-exclusion differs from evaluate_reliability")
    if result["cli_code"] != 0:
        fails.append(f"reliability --exact exit code {result['cli_code']}")
    elif parse_output(result["cli_stdout"], "text").get("reliability") != result["ie"]:
        fails.append("CLI reliability --exact differs from inclusion-exclusion")
    if result["boland"] != result["signature"]:
        fails.append("signature_boland differs from signature_from_paths")
    return fails
