"""Structural signatures and the small path/cut counts they determine.

The signature s_1..s_n of a semicoherent system gives, for each k, the
probability that the k-th component failure (in a uniformly random failure
order) is the one that brings the system down. It depends only on the
structure function and is computable two independent ways: Boland's per-size
tally of working subsets, and a binomial reweighting of the diagonal
coefficients. Reversing a signature gives the dual system's signature.

The first two counts of minimal path sets by size (alpha_1, alpha_2) and of
minimal cut sets (beta_1, beta_2) are recoverable from the signature alone;
beyond size two the signature no longer pins them down.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

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


def signature_boland(table: TruthTable) -> SignatureVector:
    """Signature via per-size tallies of working subsets.

    With ones(j) the number of size-j subsets on which the system works,
    s_k = ones(n-k+1)/C(n, n-k+1) - ones(n-k)/C(n, n-k): the share of working
    subsets just before the k-th failure minus the share just after.
    """
    _require_semicoherent(table)
    n = table.n
    ones = _true_count_by_size(table)
    share = [Fraction(ones[j], comb(n, j)) for j in range(n + 1)]
    s = tuple(share[n - k + 1] - share[n - k] for k in range(1, n + 1))
    return SignatureVector(n=n, s=s)


def signature_from_diagonal(diag: DiagonalPoly) -> SignatureVector:
    """Signature as a binomial reweighting of the diagonal coefficients.

    s_k = sum over j = 1..n-k+1 of C(n-k, j-1)/C(n, j) * d_j. For diagonals of
    semicoherent systems this agrees exactly with :func:`signature_boland`.
    """
    n = diag.n
    s = []
    for k in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, n - k + 2):
            acc += Fraction(comb(n - k, j - 1), comb(n, j)) * diag.d[j - 1]
        s.append(acc)
    return SignatureVector(n=n, s=tuple(s))


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
