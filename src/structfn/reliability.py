"""Reliability evaluation: the multilinear extension and its diagonal.

With independent components working with probabilities p_1..p_n, system
reliability is the multilinear extension of the structure function: plug the
p_i straight into the simple form. Setting every p_i to the same x collapses
it to a one-variable polynomial in x, the diagonal, whose integer
coefficients summarize the system size profile.

All evaluation is type-transparent: Fraction inputs give exact rational
results, floats give floats. When every p_i is an ``int`` or a ``Fraction``
(exactly those types) and at least one is a ``Fraction``, both routes take
the integer route: with p_i = a_i / d_i and D = prod d_i, each term becomes
the integer numerator of its value over D, the numerators are summed, and
one ``Fraction(total, D)`` is built at the end. The result is a ``Fraction``
when a component the terms cover has a ``Fraction`` p_i, else the exact
``int`` the plain loops give. Any other input (all ``int``, ``bool``, numpy
scalars, floats, mixtures with floats) keeps the plain term loop in
:func:`evaluate_reliability` and the blocked subfamily walk in
:func:`evaluate_inclusion_exclusion`.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence

import numpy as np

from .core import (
    DiagonalPoly,
    MultilinearForm,
    SetFamily,
    _iter_bit_positions,
    mobius_transform,
)
from .transform import (
    _expands,
    _form_of,
    _minimal_family,
    _require_members,
    table_from_paths,
)

__all__ = [
    "evaluate_reliability",
    "evaluate_inclusion_exclusion",
    "diagonal_coefficients",
    "diagonal_from_paths",
]

# The blocked inclusion-exclusion walk computes its leaves 2^14 at a time
# (128 KiB of float64 terms or object pointers), whatever the family size.
_IE_BLOCK_BITS = 14


def _check_probabilities(p: Sequence, n: int) -> None:
    if len(p) != n:
        raise ValueError(f"expected {n} component probabilities, got {len(p)}")
    for i, value in enumerate(p, start=1):
        if not 0 <= value <= 1:
            raise ValueError(f"p[{i}] = {value!r} outside [0, 1]")


def _common_denominator(p: Sequence) -> "tuple[list[int], list[int], int] | None":
    """Numerators a_i, denominators d_i and D = prod d_i of exact p, else None.

    Only a sequence of ``int`` and ``Fraction`` values holding at least one
    ``Fraction`` qualifies; ``bool`` and numpy integers do not.
    """
    if not any(type(value) is Fraction for value in p) or not all(
        type(value) in (int, Fraction) for value in p
    ):
        return None
    numerators = [value.numerator for value in p]
    denominators = [value.denominator for value in p]
    return numerators, denominators, prod(denominators)


def _from_common_denominator(total: int, common: int, p: Sequence, covered: int):
    """total / common, typed as the plain loops type it.

    Their sum is a ``Fraction`` exactly when some term multiplies by a
    ``Fraction`` p_i, that is when a covered component has one; otherwise
    every covered d_i is 1 and ``common`` divides ``total``.
    """
    if any(type(p[i]) is Fraction for i in _iter_bit_positions(covered)):
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
        total = 0
        covered = 0
        for mask, coeff in form.coeffs.items():
            term = coeff * common
            for i in _iter_bit_positions(mask):
                term = term // d[i] * a[i]
            total += term
            covered |= mask
        return _from_common_denominator(total, common, p, covered)
    total = 0
    for mask in sorted(form.coeffs):
        term = form.coeffs[mask]
        for i in _iter_bit_positions(mask):
            term = term * p[i]
        total += term
    return total


def _subfamily_unions(masks: Sequence[int]) -> "tuple[np.ndarray, np.ndarray]":
    """Union and odd size of every subfamily, in walk order.

    Leaf j takes member i when bit len(masks) - 1 - i of j is set, so the
    first member varies slowest, as in the recursive walk. Masks have at most
    N_MAX = 24 bits, so int64 holds every union.
    """
    unions = np.zeros(1, dtype=np.int64)
    odd = np.zeros(1, dtype=bool)
    for m in reversed(masks):
        unions = np.concatenate((unions, unions | m))
        odd = np.concatenate((odd, ~odd))
    return unions, odd


def _blocked_inclusion_exclusion(masks: Sequence[int], p: Sequence):
    """The inclusion-exclusion walk, a block of leaves at a time.

    The last min(14, r) members vary inside a block and the others pick it. Each
    leaf's term starts at +-1 and is multiplied by p_i in ascending component
    order, and the terms are summed one by one in walk order from 0 (``cumsum``
    adds one at a time, where ``sum`` may compensate): the same operations in
    the same order as the recursive walk, so the result is that walk's value
    and type, bit for bit. All-float p runs on float64. Any other p runs on
    Python objects, each p_i boxed in a 1-element object array so that numpy
    hands numpy scalars to the products as they are instead of casting them to
    Python numbers.
    """
    if all(type(value) is float for value in p):
        dtype, factors, total = np.float64, p, 0.0
    else:
        dtype, total = object, 0
        factors = [np.array([value], dtype=object) for value in p]
    split = len(masks) - min(_IE_BLOCK_BITS, len(masks))
    tail_unions, tail_odd = _subfamily_unions(masks[split:])
    tail_signs = np.where(tail_odd, 1, -1).astype(dtype)
    tail_cover = int(tail_unions[-1])
    in_tail = {i: (tail_unions >> i & 1).astype(bool) for i in _iter_bit_positions(tail_cover)}
    head_unions, head_odd = _subfamily_unions(masks[:split])
    for block, (head, odd) in enumerate(zip(head_unions.tolist(), head_odd.tolist())):
        term = -tail_signs if odd else tail_signs.copy()
        for i in _iter_bit_positions(head | tail_cover):
            if head >> i & 1:
                term *= factors[i]
            else:
                np.multiply(term, factors[i], out=term, where=in_tail[i])
        if block == 0:
            term = term[1:]  # leaf 0 is the empty subfamily
        total = np.cumsum(np.concatenate((np.array([total], dtype=dtype), term))).item(-1)
    return total


def _exact_inclusion_exclusion(
    masks: Sequence[int], p: Sequence, a: Sequence[int], d: Sequence[int], common: int
):
    """The inclusion-exclusion walk in integer numerators over ``common``."""
    total = 0

    def walk(idx: int, union: int, size: int, value: int) -> None:
        nonlocal total
        if idx == len(masks):
            if size:
                total += value if size & 1 else -value
            return
        walk(idx + 1, union, size, value)
        new = masks[idx] & ~union
        if new:  # most deep nodes cover nothing new; skipping the bit loop halves r = 20
            for i in _iter_bit_positions(new):
                value = value // d[i] * a[i]
        walk(idx + 1, union | new, size + 1, value)

    walk(0, 0, 0, common)
    covered = 0
    for mask in masks:
        covered |= mask
    return _from_common_denominator(total, common, p, covered)


def evaluate_inclusion_exclusion(
    paths: SetFamily,
    p: Sequence,
    *,
    max_r: "int | None" = None,
    max_n: "int | None" = None,
):
    """System reliability summed directly over nonempty path subfamilies.

    Each subfamily contributes (-1)^(size-1) * prod of p_i over its union;
    no cancellation is performed before summing, so this is an independent
    route to the same value as :func:`evaluate_reliability` on the expanded
    form. Exact in rational arithmetic.

    Exact p holding a ``Fraction`` takes the integer route (see the module
    docstring): the walk starts at D and, as a member newly covers component
    i, divides the carried value by d_i and multiplies by a_i, exactly since
    d_i is still a factor; every leaf still adds its own signed term.

    Any other p runs on numpy a block of subfamilies at a time, on float64
    when every p_i is a Python float and on Python objects otherwise; its
    terms and summation order are those of the plain walk, so the value is
    the same to the last bit and of the same type.
    """
    _require_members(paths)
    _check_probabilities(p, paths.n)
    if _expands(paths.r, paths, max_r, max_n):
        masks = paths.masks()
        exact = _common_denominator(p)
        if exact is not None:
            return _exact_inclusion_exclusion(masks, p, *exact)
        return _blocked_inclusion_exclusion(masks, p)
    return evaluate_reliability(mobius_transform(table_from_paths(paths)), p)


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
