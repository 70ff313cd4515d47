"""Reliability evaluation: the multilinear extension and its diagonal.

With independent components working with probabilities p_1..p_n, system
reliability is the multilinear extension of the structure function: plug the
p_i straight into the simple form. Setting every p_i to the same x collapses
it to a one-variable polynomial in x, the diagonal, whose integer
coefficients summarize the system size profile.

All evaluation is type-transparent: Fraction inputs give exact rational
results, floats give floats. When every p_i is an ``int`` or a ``Fraction``
(exactly those types) and at least one is a ``Fraction``, both routes carry
integer numerators: with p_i = a_i / d_i and D a product of d_i, each term
becomes the integer numerator of its value over D, the numerators are
summed, and one ``Fraction(total, D)`` is built at the end. The result is a
``Fraction`` when a component the terms cover has a ``Fraction`` p_i, else
the exact ``int`` the plain loops give. Any other input (all ``int``,
``bool``, array scalars, floats, mixtures with floats) keeps the plain term
loop in :func:`evaluate_reliability`. :func:`evaluate_inclusion_exclusion`
has one subfamily walk for every p, behind series and parallel reductions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import prod
from operator import and_, or_
from typing import Iterable, Sequence

from .core import DiagonalPoly, MultilinearForm, SetFamily, _BYTE_POSITIONS, _iter_bit_positions
from .transform import _expands, _form_of, _minimal_family, _require_members

__all__ = [
    "evaluate_reliability",
    "evaluate_inclusion_exclusion",
    "diagonal_coefficients",
    "diagonal_from_paths",
]


def _check_probabilities(p: Sequence, n: int) -> None:
    if len(p) != n:
        raise ValueError(f"expected {n} component probabilities, got {len(p)}")
    for i, value in enumerate(p, start=1):
        if not 0 <= value <= 1:
            raise ValueError(f"p[{i}] = {value!r} outside [0, 1]")


def _common_denominator(p: Sequence) -> "tuple[list[int], list[int], int] | None":
    """Numerators a_i, denominators d_i and D = prod d_i of exact p, else None.

    Only a sequence of ``int`` and ``Fraction`` values holding at least one
    ``Fraction`` qualifies; ``bool`` and other integer types do not.
    """
    if not any(type(value) is Fraction for value in p) or not all(
        type(value) in (int, Fraction) for value in p
    ):
        return None
    numerators = [value.numerator for value in p]
    denominators = [value.denominator for value in p]
    return numerators, denominators, prod(denominators)


def _from_common_denominator(total: int, common: int, p: Sequence, masks: Iterable[int]):
    """total / common, typed as the plain loops over ``masks`` type it.

    Their sum is a ``Fraction`` exactly when some term multiplies by a
    ``Fraction`` p_i, that is when a covered component has one; otherwise
    every covered d_i is 1 and ``common`` divides ``total``.
    """
    if any(type(p[i]) is Fraction for i in _iter_bit_positions(reduce(or_, masks, 0))):
        return Fraction(total, common)
    return total // common


def evaluate_reliability(form: MultilinearForm, p: Sequence):
    """System reliability: sum of coeff(A) * prod_{i in A} p_i over the form's terms.

    p is indexed by component (p[0] belongs to component 1). On 0/1 input this
    reproduces the truth table, which pins the polynomial down uniquely.

    Exact p holding a ``Fraction`` takes the integer route (see the module
    docstring): term A contributes coeff(A) * D with d_i swapped for a_i on
    each i in A, and the result type follows the plain loop's.
    """
    _check_probabilities(p, form.n)
    exact = _common_denominator(p)
    if exact is not None:
        a, d, common = exact
        # Components 6k..6k+5 form chunk k, and tables[k][b] multiplies a_i over
        # the i of the chunk in b and d_i over the others (6 beat 8 on small forms).
        tables = [[1] for _ in range(0, form.n, 6)]
        for i in range(form.n):
            table = tables[i // 6]
            table[:] = [t * d[i] for t in table] + [t * a[i] for t in table]
        total = 0
        for mask, term in form.coeffs.items():
            for table in tables:
                term *= table[mask & 63]
                mask >>= 6
            total += term
        return _from_common_denominator(total, common, p, form.coeffs)
    low, mid, high = _BYTE_POSITIONS
    total = 0
    for mask, term in form.coeffs.items():  # ascending masks, as every form stores them
        for i in low[mask & 255] + mid[mask >> 8 & 255] + high[mask >> 16]:  # ascending
            term = term * p[i]
        total += term
    return total


def _walk_inclusion_exclusion(masks: Sequence[int], p: Sequence, exact):
    """The subfamily walk that :func:`evaluate_inclusion_exclusion` describes.

    ``exact`` is :func:`_common_denominator` of p, or None to carry
    ``value * p[i]`` instead of integer numerators. Each call recurses into
    the branch that skips member ``idx`` and loops on into the branch that
    takes it, so leaves are summed and components multiplied in, ascending,
    in the order of the plain two-call recursion.
    """
    order = masks[::-1]  # largest first: small members come late, when unions hold them more often
    # Joining the union, member k can only cover a later member that meets it.
    meets = [[m for m in order[k + 1 :] if m & member] for k, member in enumerate(order)]
    a, d = exact[:2] if exact else (None, None)
    start = 1 if a is None else prod(d[i] for i in _iter_bit_positions(reduce(or_, masks)))
    low, mid, high = _BYTE_POSITIONS
    total, last = 0, len(order) - 1

    def walk(idx: int, union: int, size: int, value) -> None:
        nonlocal total
        while idx < last:
            walk(idx + 1, union, size, value)
            new = order[idx] & ~union
            union |= new
            for m in meets[idx]:
                if not m & ~union:
                    return
            if a is None:
                for i in low[new & 255] + mid[new >> 8 & 255] + high[new >> 16]:
                    value = value * p[i]
            else:
                for i in low[new & 255] + mid[new >> 8 & 255] + high[new >> 16]:
                    value = value // d[i] * a[i]
            idx += 1
            size += 1
        # The last member: the leaf without it, then the leaf with it, which no
        # later member can cancel.
        if size:
            total += value if size & 1 else -value
        new = order[last] & ~union
        if a is None:
            for i in low[new & 255] + mid[new >> 8 & 255] + high[new >> 16]:
                value = value * p[i]
        else:
            for i in low[new & 255] + mid[new >> 8 & 255] + high[new >> 16]:
                value = value // d[i] * a[i]
        total += -value if size & 1 else value

    walk(0, 0, 0, start)
    return total if a is None else _from_common_denominator(total, start, p, masks)


def _reduced_inclusion_exclusion(masks: Sequence[int], p: Sequence, exact):
    """Reliability of the family ``masks``, reduced in series and in parallel first.

    Members with disjoint supports fall into separate groups, the connected
    components of the "meets" relation, and groups work independently: each
    group's R_g folds in as total + R_g * (1 - total) from the int 0, which
    keeps the relative precision that 1 - prod(1 - R_g) loses for small R.
    Within a group, the components that every member holds are in series
    with the rest: their p_i multiply the remainder's R, reduced again, and a
    remainder holding the empty set has R = 1. Only a group that neither rule
    reduces is walked.
    """
    supports: list[int] = []
    for mask in masks:
        supports = [s for s in supports if not s & mask] + [
            reduce(or_, (s for s in supports if s & mask), mask)
        ]
    total = 0
    for support in supports:
        group = [m for m in masks if m & support]
        shared = reduce(and_, group)
        if shared:
            value = prod(p[i] for i in _iter_bit_positions(shared))
            rest = [m & ~shared for m in group]
            if 0 not in rest:
                value = value * _reduced_inclusion_exclusion(rest, p, exact)
        else:
            value = _walk_inclusion_exclusion(group, p, exact)
        total = total + value * (1 - total)
    return total


def evaluate_inclusion_exclusion(
    paths: SetFamily,
    p: Sequence,
    *,
    max_r: "int | None" = None,
    max_n: "int | None" = None,
):
    """System reliability summed directly over nonempty path subfamilies.

    Each subfamily contributes (-1)^(size-1) * prod of p_i over its union;
    no form is built or consulted, so this is an independent route to the
    same value as :func:`evaluate_reliability` on the expanded form. Exact in
    rational arithmetic.

    Two reductions come first, the series and parallel cases of Birnbaum and
    Esary's modules: members with disjoint supports form independent groups,
    and the components every member of a group holds factor out in series.
    Each group left is walked, largest member first, skipping every subtree
    in which a member still to come already lies inside the union: taking
    that member or not gives the same unions with sizes one apart, so those
    subfamilies cancel in pairs. Exact p holding a ``Fraction`` takes the
    integer route (see the module docstring): the walk starts at D, the
    product of d_i over the group's components, and as a member newly covers
    component i divides the carried value by d_i and multiplies by a_i,
    exactly since d_i is still a factor. Any other p multiplies the carried
    value by p_i, so float results match the form route up to rounding.
    """
    _require_members(paths)
    _check_probabilities(p, paths.n)
    if _expands(paths.r, paths, max_r, max_n):
        return _reduced_inclusion_exclusion(paths.masks(), p, _common_denominator(p))
    return evaluate_reliability(_form_of(paths, max_r, max_n), p)


def diagonal_coefficients(form: MultilinearForm) -> DiagonalPoly:
    """Collapse the simple form to the diagonal: d_k sums coeff(A) over |A| = k.

    The form must have no constant term (no semicoherent system does).
    """
    if form.coefficient(0) != 0:
        raise ValueError(f"constant term {form.coefficient(0)} present; diagonal has none")
    d = [0] * form.n
    for mask, coeff in form.coeffs.items():
        d[mask.bit_count() - 1] += coeff
    return DiagonalPoly(n=form.n, d=tuple(d))


def diagonal_from_paths(
    paths: SetFamily, *, max_r: "int | None" = None, max_n: "int | None" = None
) -> DiagonalPoly:
    """Diagonal coefficients straight from the path family.

    d_k is the signed count of nonempty subfamilies whose union has size k
    (odd subfamilies minus even). Applied to the minimal cut sets instead,
    this yields the dual system's diagonal. Non-minimal input is minimized
    with a warning; redundant members never change the result.
    """
    family = _minimal_family(paths, "diagonal_from_paths")
    return diagonal_coefficients(_form_of(family, max_r, max_n))
