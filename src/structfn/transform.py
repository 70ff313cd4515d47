"""Conversions among structure-function representations.

A semicoherent system can be given as a truth table, as the coefficients of
its multilinear simple form, or by its minimal path or cut families. This
module moves between all of them: building tables from families, extracting
inclusion-minimal families back out of tables or forms, dualizing, and
expanding families into simple forms by inclusion-exclusion over subfamily
unions.

Public family functions minimize their input under their own name. Forms,
the diagonals and signatures read off them, and formation balances come from
one pass over the set L of an r-member family's subfamily unions, doing work
r * |L| <= 2^(r+1); only inclusion-exclusion reliability enumerates all 2^r
subfamilies. When r exceeds the expansion cap they fall back to the dense
table route, which is bounded by the component cap instead; only when both
caps are exceeded do they raise :class:`~structfn.core.CapacityError`.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .core import (
    CapacityError,
    InconsistentFormError,
    MaskLike,
    MultilinearForm,
    SetFamily,
    SubsetMask,
    TruthTable,
    _BYTE_BITS,
    _check_max_n,
    _component_patterns,
    _iter_bit_positions,
    _mask_bits,
    _minimal_true_bits,
    _require_semicoherent,
    _reverse_bits,
    _subset_sort_key,
    mobius_transform,
)

__all__ = [
    "R_MAX",
    "NonMinimalFamilyWarning",
    "dualize_table",
    "minimal_path_sets",
    "minimal_cut_sets",
    "table_from_paths",
    "table_from_cuts",
    "simple_form_from_paths",
    "dual_simple_form_from_cuts",
    "paths_from_simple_form",
    "cuts_from_paths",
    "formation_balance",
]

# Largest family that expansions take before the table route answers instead.
R_MAX = 24


class NonMinimalFamilyWarning(UserWarning):
    """A family documented as minimal contained redundant supersets; they were dropped."""


def _require_members(family: SetFamily, noun: str = "path") -> None:
    if not family.members:
        raise ValueError(f"at least one {noun} set required")


def _minimal_family(family: SetFamily, operation: str, noun: str = "path") -> SetFamily:
    """Minimize with a warning, then reject an empty family. Only a public
    function named ``operation`` calls this, so the warning points at its caller."""
    if not family.is_antichain():
        warnings.warn(
            f"{operation} expects a minimal family; redundant supersets were dropped",
            NonMinimalFamilyWarning,
            stacklevel=3,
        )
        family = family.minimized()
    _require_members(family, noun)
    return family


def _expands(r: int, family: SetFamily, max_r: "int | None", max_n: "int | None") -> bool:
    """True if a walk over r members of the family is within the expansion cap.

    False if the dense table route must answer instead; CapacityError if that
    route is barred too by the component cap.
    """
    r_limit = R_MAX if max_r is None else max_r
    if r <= r_limit:
        return True
    try:
        _check_max_n(family.n, max_n)
    except CapacityError as exc:
        raise CapacityError(f"family size {family.r} exceeds max_r={r_limit} and {exc}") from None
    return False


def dualize_table(table: TruthTable) -> TruthTable:
    """The dual system's table: dual(A) = 1 - phi(complement of A).

    Complementing the subset index mirrors the 2^n table entries, so the dual
    is the bit-reversed, negated table. Applying this twice gives the input
    back; paths and cuts trade places under it.
    """
    total = 1 << table.n
    full = (1 << total) - 1
    reversed_bits = _reverse_bits(table.bits, total)
    return TruthTable(n=table.n, bits=~reversed_bits & full)


def _table_bit_positions(bits: int, width: int) -> list[int]:
    """Set bit positions of a ``width``-bit table integer, ascending.

    Linear in the width: numpy finds the nonzero bytes and only those are
    expanded, where :func:`_iter_bit_positions` copies the whole integer per bit.
    """
    raw = bits.to_bytes((width + 7) // 8, "little")
    positions: list[int] = []
    for index in np.flatnonzero(np.frombuffer(raw, dtype=np.uint8)).tolist():
        positions.extend(8 * index + j for j in _BYTE_BITS[raw[index]])
    return positions


def minimal_path_sets(table: TruthTable) -> SetFamily:
    """The inclusion-minimal subsets on which the system works.

    The input must be semicoherent; monotonicity reduces minimality to the n
    one-component-removed neighbours, checked table-wide per component.
    """
    _require_semicoherent(table)
    return _minimal_paths(table)


def _minimal_paths(table: TruthTable) -> SetFamily:
    """:func:`minimal_path_sets` of a table already known to be semicoherent."""
    min_bits = _minimal_true_bits(table.bits, table.n)
    positions = _table_bit_positions(min_bits, 1 << table.n)
    members = tuple(SubsetMask(bits=m, n=table.n) for m in positions)
    return SetFamily(n=table.n, members=members)


def minimal_cut_sets(table: TruthTable) -> SetFamily:
    """The inclusion-minimal subsets whose joint failure brings the system down.

    These are exactly the minimal path sets of the dual system.
    """
    return minimal_path_sets(dualize_table(table))


def table_from_paths(paths: SetFamily, *, max_n: "int | None" = None) -> TruthTable:
    """The table of the system that works iff some path set is fully working.

    Redundant (non-minimal) members are absorbed silently: a superset of
    another path changes nothing. The result is always semicoherent.
    """
    _check_max_n(paths.n, max_n)
    _require_members(paths)
    patterns = _component_patterns(paths.n)
    full = (1 << (1 << paths.n)) - 1
    bits = 0
    for member in paths.members:
        contains_member = full
        for i in _iter_bit_positions(member.bits):
            contains_member &= patterns[i]
        bits |= contains_member
    return TruthTable(n=paths.n, bits=bits)


def table_from_cuts(cuts: SetFamily, *, max_n: "int | None" = None) -> TruthTable:
    """The table of the system that fails iff some cut set has fully failed.

    Built as the dual of the table whose paths are the given cuts; redundant
    members are absorbed silently, as in :func:`table_from_paths`.
    """
    _require_members(cuts, "cut")
    return dualize_table(table_from_paths(cuts, max_n=max_n))


def _formation_signs(masks: Sequence[int]) -> dict[int, int]:
    """For each subset U, the signed count of nonempty subfamilies with union U.

    Odd-size subfamilies count +1 and even-size ones -1; by inclusion-exclusion
    these are exactly the multilinear coefficients of the union system. Only
    nonzero counts are returned.

    One pass over the union closure L instead of all 2^r subfamilies: adding
    member m gives every subfamily counted so far, with union U, a twin with m
    added, of opposite sign and union U | m; {m} alone counts +1. The step
    reads a snapshot of the counts, so an entry updated earlier in the same
    step is not extended twice. The work is the summed dictionary size, at
    most r * |L| <= 2^(r+1).
    """
    acc: dict[int, int] = {}
    for m in masks:
        for u, c in list(acc.items()):
            acc[u | m] = acc.get(u | m, 0) - c
        acc[m] = acc.get(m, 0) + 1
    return {u: c for u, c in acc.items() if c}


def _form_of(
    family: SetFamily, max_r: "int | None", max_n: "int | None", table: "TruthTable | None" = None
) -> MultilinearForm:
    """The form of the system whose minimal path sets, a nonempty antichain, are ``family``.

    The one choice between the union-closure kernel and the dense Möbius
    fallback. ``table``, when given, must be the system's table; the fallback
    then transforms it instead of rebuilding it from the family.
    """
    if _expands(family.r, family, max_r, max_n):
        return MultilinearForm(n=family.n, coeffs=_formation_signs(family.masks()))
    return mobius_transform(table_from_paths(family) if table is None else table)


# Both public expansions keep their own def, so messages and profiles name each.
def simple_form_from_paths(
    paths: SetFamily, *, max_r: "int | None" = None, max_n: "int | None" = None
) -> MultilinearForm:
    """Simple form of the system with the given minimal path sets.

    Expands by inclusion-exclusion over nonempty subfamilies: each contributes
    (-1)^(size-1) to the coefficient of its union, and cancellations are
    resolved before the form is returned. Non-minimal input is minimized with
    a warning first (the result would be the same either way).
    """
    return _form_of(_minimal_family(paths, "simple_form_from_paths"), max_r, max_n)


def dual_simple_form_from_cuts(
    cuts: SetFamily, *, max_r: "int | None" = None, max_n: "int | None" = None
) -> MultilinearForm:
    """Simple form of the dual system, expanded from the minimal cut sets.

    The cuts are the dual's minimal path sets, so the same inclusion-exclusion
    over subfamily unions applies to them verbatim.
    """
    return _form_of(_minimal_family(cuts, "dual_simple_form_from_cuts", "cut"), max_r, max_n)


def paths_from_simple_form(form: MultilinearForm) -> SetFamily:
    """Recover the minimal path sets as the minimal monomials of the simple form.

    For a semicoherent system the inclusion-minimal subsets with nonzero
    coefficient are precisely the minimal path sets, and each carries
    coefficient +1; anything else means the coefficients are inconsistent.
    """
    if form.coefficient(0) != 0:
        raise InconsistentFormError(
            f"constant term {form.coefficient(0)} present; no semicoherent system has one"
        )
    minimal: list[int] = []
    for mask in sorted(form.coeffs, key=_subset_sort_key):
        if any(kept & ~mask == 0 for kept in minimal):
            continue
        coeff = form.coeffs[mask]
        if coeff != 1:
            raise InconsistentFormError(
                f"minimal monomial {SubsetMask(mask, form.n)} has coefficient {coeff}, expected +1"
            )
        minimal.append(mask)
    return SetFamily(n=form.n, members=tuple(SubsetMask(m, form.n) for m in minimal))


def cuts_from_paths(paths: SetFamily, *, max_n: "int | None" = None) -> SetFamily:
    """Minimal cut sets of the system with the given minimal path sets.

    Goes through the dual simple form: dualize the path-generated table, take
    its multilinear coefficients, and read off the minimal monomials. This
    exercises the algebraic route end to end, including the check that every
    minimal dual monomial carries coefficient +1.
    """
    family = _minimal_family(paths, "cuts_from_paths")
    dual_table = dualize_table(table_from_paths(family, max_n=max_n))
    return paths_from_simple_form(mobius_transform(dual_table))


def formation_balance(
    paths: SetFamily,
    subset: MaskLike,
    *,
    max_r: "int | None" = None,
    max_n: "int | None" = None,
) -> int:
    """Signed count of subfamilies whose union is the given subset.

    Counts nonempty subfamilies of the path family with union exactly equal to
    the subset, odd sizes minus even sizes. This equals the subset's
    coefficient in the simple form.
    """
    family = _minimal_family(paths, "formation_balance")
    target = _mask_bits(subset, family.n)
    # Members not inside the target cannot appear in a formation of it.
    relevant = [m for m in family.masks() if m & ~target == 0]
    if _expands(len(relevant), family, max_r, max_n):
        return _formation_signs(relevant).get(target, 0)
    return mobius_transform(table_from_paths(family)).coefficient(target)
