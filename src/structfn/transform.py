"""Conversions among structure-function representations.

A semicoherent system can be given as a truth table, as the coefficients of
its multilinear simple form, or by its minimal path or cut families. This
module moves between all of them: building tables from families, extracting
inclusion-minimal families back out of tables or forms, dualizing, and
expanding families into simple forms by inclusion-exclusion over subfamily
unions.

Public family functions minimize their input under their own name. Forms,
the diagonals and signatures read off them, and formation balances come from
one pass over the set L of an r-member family's subfamily unions: each of
the r steps visits the nonzero coefficients of the form of the members added
so far, so the work is at most r * |L| <= 2^(r+1). A family keeps the form
that pass built, so its form, diagonal and signature share one pass. When r
exceeds the expansion cap they fall back to the dense table route, which is
bounded by the component cap instead; only when both caps are exceeded do
they raise :class:`~structfn.core.CapacityError`.
"""

from __future__ import annotations

import warnings
from typing import Sequence

from .core import (
    CapacityError,
    InconsistentFormError,
    MaskLike,
    MultilinearForm,
    SetFamily,
    TruthTable,
    _BYTE_BITS,
    _CHUNK_N,
    _check_max_n,
    _mask_bits,
    _minimal_true_chunks,
    _require_semicoherent,
    _reverse_bits,
    _set_str,
    _subset_sort_key,
    _up_closure,
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
    if not family.r:
        raise ValueError(f"at least one {noun} set required")


def _minimal_family(family: SetFamily, operation: str, noun: str = "path") -> SetFamily:
    """Minimize with a warning, then reject an empty family. Only a public
    function named ``operation`` calls this, so the warning points at its caller."""
    minimal = family.minimized()
    if minimal is not family:
        warnings.warn(
            f"{operation} expects a minimal family; redundant supersets were dropped",
            NonMinimalFamilyWarning,
            stacklevel=3,
        )
    _require_members(minimal, noun)
    return minimal


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


# Translates byte 0 to 0 and every other byte to 1.
_NONZERO_FLAGS = bytes([0] + [1] * 255)


def _table_bit_positions(bits: int, width: int, base: int = 0) -> list[int]:
    """Set bit positions of a ``width``-bit table integer plus ``base``, ascending.

    Linear in the width: one translation flags the nonzero bytes, ``find``
    skips the zero stretches between them, and only the nonzero bytes are
    expanded, where :func:`_iter_bit_positions` copies the whole integer per bit.
    """
    raw = bits.to_bytes((width + 7) // 8, "little")
    flags = raw.translate(_NONZERO_FLAGS)
    positions: list[int] = []
    index = flags.find(1)
    while index >= 0:
        start = base + 8 * index
        positions.extend(start + j for j in _BYTE_BITS[raw[index]])
        index = flags.find(1, index + 1)
    return positions


def minimal_path_sets(table: TruthTable) -> SetFamily:
    """The inclusion-minimal subsets on which the system works.

    The input must be semicoherent; monotonicity reduces minimality to the n
    one-component-removed neighbours, checked table-wide per component.
    """
    _require_semicoherent(table)
    return _minimal_paths(table)


def _minimal_paths(table: TruthTable) -> SetFamily:
    """:func:`minimal_path_sets` of a table already known to be semicoherent.

    The positions are read chunk by chunk: entry j of chunk k is subset k * 2^16 + j.
    """
    width = 1 << min(table.n, _CHUNK_N)
    positions: list[int] = []
    for k, chunk in enumerate(_minimal_true_chunks(table.bits, table.n)):
        positions += _table_bit_positions(chunk, width, k << _CHUNK_N)
    return SetFamily._trusted(table.n, tuple(sorted(positions, key=_subset_sort_key)))


def minimal_cut_sets(table: TruthTable) -> SetFamily:
    """The inclusion-minimal subsets whose joint failure brings the system down.

    These are exactly the minimal path sets of the dual system. The given
    table is validated, so errors name its own subsets, not the dual's.
    """
    _require_semicoherent(table)
    return _minimal_paths(dualize_table(table))


def table_from_paths(paths: SetFamily, *, max_n: "int | None" = None) -> TruthTable:
    """The table of the system that works iff some path set is fully working.

    The up-set of the members, in O(n * 2^n) whatever their number. Redundant
    (non-minimal) members are absorbed silently, and the result is
    semicoherent by construction.
    """
    _check_max_n(paths.n, max_n)
    _require_members(paths)
    return TruthTable(n=paths.n, bits=_up_closure(paths.masks(), paths.n))


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
    step is not extended twice. A count that cancels to 0 is deleted at once,
    since its twins would add 0, so each step visits only the nonzero
    coefficients of the form of the members added so far, at most |L|, and
    the work is at most r * |L| <= 2^(r+1). Members are added largest first,
    so small ones come late, when unions hold them more often and more counts
    cancel. Members of one size keep their given order, canonical in every
    caller, which inserts the counts close to ascending order, so sorting
    them into a form stays cheap (fully reversed, parallel 20's sort and
    build took several times as long).
    """
    acc: dict[int, int] = {}
    for m in sorted(masks, key=int.bit_count, reverse=True):  # stable: ties keep their order
        for u, c in list(acc.items()):
            v = u | m
            c = acc.get(v, 0) - c
            if c:
                acc[v] = c
            else:
                del acc[v]
        # Every union so far joins members at least as large as m, so only a
        # repeat of m could lie inside m, and its twin has just cancelled it.
        acc[m] = 1
    return acc


def _form_of(
    family: SetFamily, max_r: "int | None", max_n: "int | None", table: "TruthTable | None" = None
) -> MultilinearForm:
    """The form of the system that works exactly when all components of some member work.

    The one choice between the union-closure kernel and the dense Möbius
    fallback. Both take any nonempty family and absorb redundant members.
    ``table``, when given, must be the system's table; the fallback then
    transforms it instead of rebuilding it from the family.

    The kernel's form is kept on the family, beside its cached ``members``,
    and returned again to later calls within the caps, so it lives as long as
    the family does. The fallback is recomputed on every call.
    """
    if _expands(family.r, family, max_r, max_n):
        form = family.__dict__.get("_expanded_form")
        if form is None:
            signs = _formation_signs(family.masks())
            form = MultilinearForm._trusted(family.n, {u: signs[u] for u in sorted(signs)})
            family.__dict__["_expanded_form"] = form
        return form
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
    They are read off the support's up-set in one O(n * 2^n) table pass.
    """
    if form.coefficient(0) != 0:
        raise InconsistentFormError(
            f"constant term {form.coefficient(0)} present; no semicoherent system has one"
        )
    if not form.coeffs:
        raise InconsistentFormError("the form is empty; no semicoherent system has one")
    minimal = _minimal_paths(TruthTable(n=form.n, bits=_up_closure(form.coeffs, form.n)))
    for mask in minimal.masks():
        coeff = form.coeffs[mask]
        if coeff != 1:
            raise InconsistentFormError(
                f"minimal monomial {_set_str(mask)} has coefficient {coeff}, expected +1"
            )
    return minimal


def cuts_from_paths(paths: SetFamily, *, max_n: "int | None" = None) -> SetFamily:
    """Minimal cut sets of the system with the given minimal path sets.

    They are the dual system's minimal path sets, read off the dualized table
    in one O(n * 2^n) pass; a table built from paths needs no validation.
    """
    family = _minimal_family(paths, "cuts_from_paths")
    return _minimal_paths(dualize_table(table_from_paths(family, max_n=max_n)))


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
    # Members not inside the target cannot appear in a formation of it. The
    # kernel runs on them here and never reads the family's kept form, so
    # verify's census check compares two independent counts.
    relevant = [m for m in family.masks() if m & ~target == 0]
    if _expands(len(relevant), family, max_r, max_n):
        return _formation_signs(relevant).get(target, 0)
    return _form_of(family, max_r, max_n).coefficient(target)
