"""Structural signatures and the small path/cut counts they determine.

The signature s_1..s_n of a semicoherent system gives, for each k, the
probability that the k-th component failure (in a uniformly random failure
order) is the one that brings the system down. It depends only on the
structure function: one step turns the counts ones(j) of size-j working
subsets into it, tallied on the truth table or recovered from the diagonal
coefficients. Reversing a signature gives the dual system's signature.

The first two counts of minimal path sets by size (alpha_1, alpha_2) and of
minimal cut sets (beta_1, beta_2) are recoverable from the signature alone;
beyond size two the signature no longer pins them down.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .core import (
    DiagonalPoly,
    InconsistentFormError,
    InvalidSignatureError,
    SetFamily,
    SignatureVector,
    TruthTable,
    _require_semicoherent,
    _true_count_by_size,
)
from .reliability import diagonal_coefficients
from .transform import _form_of, _minimal_family

__all__ = [
    "signature_boland",
    "signature_from_diagonal",
    "dual_signature",
    "coefficients_from_signature",
    "small_counts_from_coefficients",
    "small_counts_from_signature",
    "signature_from_paths",
]


def _signature_from_counts(n: int, ones: Sequence[int]) -> SignatureVector:
    """Boland's step from ones(0..n), the number of size-j working subsets.

    s_k = ones(n-k+1)/C(n, n-k+1) - ones(n-k)/C(n, n-k): the share of working
    subsets just before the k-th failure minus the share just after. Over the
    common denominator n!, with j = n-k+1, the numerator is the integer
    ones(j) * j!(n-j)! - ones(j-1) * (j-1)!(n-j+1)!, checked as
    :class:`SignatureVector` checks its entries.
    """
    total = factorial(n)
    scaled = [ones[j] * factorial(j) * factorial(n - j) for j in range(n + 1)]
    numerators = [scaled[j] - scaled[j - 1] for j in range(n, 0, -1)]  # k = 1..n
    for k, v in enumerate(numerators, start=1):
        if v < 0:
            raise InvalidSignatureError(f"entry {k} is negative: {Fraction(v, total)}")
    if scaled[n] - scaled[0] != total:  # the numerators telescope
        raise InvalidSignatureError(
            f"entries sum to {Fraction(scaled[n] - scaled[0], total)}, expected 1"
        )
    return SignatureVector._trusted(n, tuple(Fraction(v, total) for v in numerators))


def signature_boland(table: TruthTable) -> SignatureVector:
    """Signature via per-size tallies of working subsets, read off the table."""
    _require_semicoherent(table)
    return _signature_from_counts(table.n, _true_count_by_size(table))


def signature_from_diagonal(diag: DiagonalPoly) -> SignatureVector:
    """Signature via per-size counts of working subsets, read off the diagonal.

    Expanding each x^k = x^k (x + 1-x)^(n-k) writes sum_k d_k x^k as
    sum_j ones(j) x^j (1-x)^(n-j) with ones(j) = sum over k = 1..j of
    C(n-k, j-k) * d_k. For diagonals of semicoherent systems this agrees
    exactly with :func:`signature_boland`.
    """
    n = diag.n
    d = (0, *diag.d)
    ones = [sum(comb(n - k, j - k) * d[k] for k in range(1, j + 1)) for j in range(n + 1)]
    return _signature_from_counts(n, ones)


def dual_signature(sig: SignatureVector) -> SignatureVector:
    """Signature of the dual system: the entries in reverse order."""
    return SignatureVector(n=sig.n, s=tuple(reversed(sig.s)))


def _integer_or_raise(value: Fraction, what: str, n: int) -> int:
    if value.denominator != 1:
        raise InvalidSignatureError(
            f"not a structural signature of any system of {n} components: "
            f"{what} = {value} is not an integer"
        )
    return int(value)


def coefficients_from_signature(sig: SignatureVector) -> tuple[int, int, int, int]:
    """The four lowest diagonal coefficients (d_1, d_2, dual d_1, dual d_2).

    d_1 = n*s_n, d_2 = C(n,2)*(s_{n-1} - s_n); the dual pair reads the
    signature from the front instead of the back. Each must come out an
    integer, otherwise no system of this size has the given signature.
    """
    n = sig.n
    s = sig.s
    d1 = _integer_or_raise(n * s[n - 1], "n*s_n", n)
    d1_dual = _integer_or_raise(n * s[0], "n*s_1", n)
    if n >= 2:
        d2 = _integer_or_raise(comb(n, 2) * (s[n - 2] - s[n - 1]), "C(n,2)*(s_(n-1) - s_n)", n)
        d2_dual = _integer_or_raise(comb(n, 2) * (s[1] - s[0]), "C(n,2)*(s_2 - s_1)", n)
    else:
        d2 = 0
        d2_dual = 0
    return (d1, d2, d1_dual, d2_dual)


def small_counts_from_coefficients(
    d1: int, d2: int, d1_dual: int, d2_dual: int
) -> tuple[int, int, int, int]:
    """Counts of minimal path and cut sets of sizes one and two.

    Singleton paths are exactly the size-1 coefficients: alpha_1 = d_1. Pairs
    of singleton paths each cancel one size-2 coefficient, so
    alpha_2 = C(d_1, 2) + d_2; the beta pair applies the same to the dual
    coefficients. Negative intermediate counts mean the coefficients do not
    come from a semicoherent system.
    """
    if d1 < 0 or d1_dual < 0:
        raise InconsistentFormError(
            f"inconsistent coefficients: d_1 = {d1}, dual d_1 = {d1_dual} must be nonnegative"
        )
    alpha1, beta1 = d1, d1_dual
    alpha2 = comb(d1, 2) + d2
    beta2 = comb(d1_dual, 2) + d2_dual
    if alpha2 < 0 or beta2 < 0:
        raise InconsistentFormError(
            f"inconsistent coefficients: derived counts alpha_2 = {alpha2}, "
            f"beta_2 = {beta2} must be nonnegative"
        )
    return (alpha1, alpha2, beta1, beta2)


def small_counts_from_signature(sig: SignatureVector) -> tuple[int, int, int, int]:
    """(alpha_1, alpha_2, beta_1, beta_2) straight from the signature.

    Composes :func:`coefficients_from_signature` with
    :func:`small_counts_from_coefficients`; fails if the signature does not
    belong to any system of its stated size.
    """
    return small_counts_from_coefficients(*coefficients_from_signature(sig))


def signature_from_paths(
    paths: SetFamily, *, max_r: "int | None" = None, max_n: "int | None" = None
) -> SignatureVector:
    """Signature read off the simple form expanded from the minimal path sets."""
    family = _minimal_family(paths, "signature_from_paths")
    return signature_from_diagonal(diagonal_coefficients(_form_of(family, max_r, max_n)))
