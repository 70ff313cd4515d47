"""Domain types and subset-lattice primitives for semicoherent structure functions.

A system on components 1..n is described by its structure function phi, a 0/1
function over the 2^n component subsets. Subsets are encoded as bitmasks with
component i at bit i - 1, and a truth table packs all 2^n values of phi into a
single integer whose bit m is phi of the subset with mask m. The sparse
multilinear "simple form" maps subset masks to signed integer coefficients;
the zeta transform (sum over contained subsets) turns coefficients back into
values and the Mobius transform is its exact inverse.

Zeta and Mobius are one in-place lattice pass with opposite signs, run on
numpy arrays whose dtype a written magnitude bound proves exact: int32 for
Mobius, whose 0/1 input keeps every partial sum within +-2^23 for n <= 24;
int64 for zeta while the input magnitudes sum below 2^62; and Python
integers in an object-dtype array otherwise, which only forms that are about
to be rejected ever reach.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

__all__ = [
    "N_MAX",
    "CapacityError",
    "NotSemicoherentError",
    "NotStructureFunctionError",
    "InconsistentFormError",
    "InvalidSignatureError",
    "SubsetMask",
    "TruthTable",
    "MultilinearForm",
    "SetFamily",
    "DiagonalPoly",
    "SignatureVector",
    "ValidationReport",
    "validate_semicoherent",
    "zeta_transform",
    "mobius_transform",
]

# Dense operations allocate 2^n table entries; beyond 24 components nothing
# about them is interactive, so larger systems are rejected outright.
N_MAX = 24

# A lattice pass leaves every intermediate value bounded by the sum of input
# magnitudes, so staying under this keeps int64 arithmetic exact.
_INT64_SAFE = 1 << 62


class CapacityError(ValueError):
    """A size cap was exceeded (component count n or family size r)."""


class NotSemicoherentError(ValueError):
    """The table violates monotonicity or phi(empty) = 0, phi(full) = 1."""


class NotStructureFunctionError(ValueError):
    """Coefficients whose subset sums leave {0, 1}, so they describe no 0/1 function."""


class InconsistentFormError(ValueError):
    """Coefficients that cannot come from the simple form of a semicoherent system."""


class InvalidSignatureError(ValueError):
    """A vector that is not the structural signature of any system of the given size."""


MaskLike = Union[int, "SubsetMask"]


def _iter_bit_positions(bits: int) -> Iterator[int]:
    """Yield the set bit positions of ``bits`` in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


_REV8 = bytes(int(format(b, "08b")[::-1], 2) for b in range(256))

_NOT_BINARY = re.compile("[^01]")
_BYTE_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _subset_sort_key(mask: int) -> int:
    """Canonical subset order: by cardinality, then lexicographic components.

    Among masks of one size, the one holding the lowest differing component
    comes first. Mirrored, that component is the highest differing bit, so
    the pair (cardinality, -mirror) orders them; it is packed into one int,
    which sorts faster than a tuple. A 24-bit mirror covers n <= N_MAX = 24.
    """
    mirrored = _REV8[mask & 255] << 16 | _REV8[mask >> 8 & 255] << 8 | _REV8[mask >> 16]
    return (mask.bit_count() << 24) | (0xFFFFFF - mirrored)


# _BYTE_BITS[b]: the set bit positions of byte b. _BYTE_LABELS[k][b]: the
# 1-based component labels of those bits when b is byte k of a mask.
_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))
_BYTE_LABELS = tuple(
    tuple(tuple(8 * k + j + 1 for j in bits) for bits in _BYTE_BITS) for k in range(3)
)


def _mask_labels(mask: int) -> tuple[int, ...]:
    """The 1-based component labels of a mask below 2^24, ascending."""
    low, mid, high = _BYTE_LABELS
    return low[mask & 255] + mid[mask >> 8 & 255] + high[mask >> 16]


def _set_str(mask: int) -> str:
    """A mask below 2^24 as its component labels in braces, e.g. {1,3}."""
    return "{" + ",".join(str(c) for c in _mask_labels(mask)) + "}"


def _mask_bits(subset: MaskLike, n: int) -> int:
    """Coerce a subset argument to raw mask bits, checked against n components."""
    if isinstance(subset, SubsetMask):
        if subset.n != n:
            raise ValueError(f"subset is over {subset.n} components, expected {n}")
        return subset.bits
    bits = operator.index(subset)
    if not 0 <= bits < 1 << n:
        raise ValueError(f"mask {bits} out of range for {n} components")
    return bits


@lru_cache(maxsize=8)
def _component_patterns(n: int) -> tuple[int, ...]:
    """Pattern i marks every table position whose index has bit i set.

    Each pattern is a 2^n-bit integer; they let table-wide questions about one
    component be answered with a constant number of big-integer operations.
    """
    total = 1 << n
    patterns = []
    for i in range(n):
        width = 2 << i
        block = ((1 << (1 << i)) - 1) << (1 << i)
        while width < total:
            block |= block << width
            width <<= 1
        patterns.append(block)
    return tuple(patterns)


@lru_cache(maxsize=8)
def _size_patterns(n: int) -> tuple[int, ...]:
    """Pattern k marks every table position whose index has exactly k bits set.

    Built by the Pascal-triangle recursion: doubling the component count shifts
    a copy of each pattern into the half where the new component is present.
    """
    patterns = [1]
    for m in range(n):
        offset = 1 << m
        grown = [patterns[0]]
        for k in range(1, m + 1):
            grown.append(patterns[k] | (patterns[k - 1] << offset))
        grown.append(patterns[m] << offset)
        patterns = grown
    return tuple(patterns)


def _reverse_bits(bits: int, width: int) -> int:
    """Mirror the low ``width`` bits of ``bits`` (bit m moves to width-1-m)."""
    if width < 8:
        return _REV8[bits] >> (8 - width)
    return int.from_bytes(bits.to_bytes(width // 8, "little").translate(_REV8), "big")


def _minimal_true_bits(bits: int, n: int) -> int:
    """Positions of inclusion-minimal true entries of a monotone table.

    For monotone phi a true subset is minimal exactly when removing any single
    component flips it false, which each component pattern checks in bulk.
    """
    covered = 0
    for i, pattern in enumerate(_component_patterns(n)):
        covered |= (bits << (1 << i)) & pattern
    return bits & ~covered


def _true_count_by_size(table: "TruthTable") -> tuple[int, ...]:
    """Entry k counts the size-k subsets on which the table holds value 1."""
    patterns = _size_patterns(table.n)
    return tuple((table.bits & p).bit_count() for p in patterns)


def _unpack_values(bits: int, n: int) -> np.ndarray:
    total = 1 << n
    raw = bits.to_bytes((total + 7) // 8, "little")
    unpacked = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=total, bitorder="little")
    return unpacked.astype(np.int32)


def _pack_values(values01: np.ndarray) -> int:
    packed = np.packbits(values01.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _lattice_pass(arr: np.ndarray, n: int, sign: int) -> None:
    """In place, for each component i: arr[A + i] += sign * arr[A] for A without i.

    sign = +1 is the zeta transform (sum over contained subsets) and sign = -1
    its Mobius inverse.
    """
    op = operator.iadd if sign > 0 else operator.isub
    for i in range(n):
        step = 1 << i
        view = arr.reshape(-1, 2 * step)
        op(view[:, step:], view[:, :step])


def _check_component_count(n: int) -> None:
    if not 1 <= n <= N_MAX:
        raise CapacityError(f"component count {n} outside 1..{N_MAX}")


def _check_max_n(n: int, max_n: "int | None") -> None:
    limit = N_MAX if max_n is None else max_n
    if n > limit:
        raise CapacityError(f"n={n} exceeds max_n={limit}")


@dataclass(frozen=True)
class SubsetMask:
    """A subset of components 1..n packed into a bitmask (component i at bit i - 1)."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        _check_component_count(self.n)
        if not 0 <= self.bits < 1 << self.n:
            raise ValueError(f"mask {self.bits} has bits above position {self.n - 1}")

    @classmethod
    def from_components(cls, components: Iterable[int], n: int) -> "SubsetMask":
        """Build a mask from 1-based component labels."""
        bits = 0
        for c in components:
            c = operator.index(c)
            if not 1 <= c <= n:
                raise ValueError(f"component {c} outside 1..{n}")
            bit = 1 << (c - 1)
            if bits & bit:
                raise ValueError(f"component {c} listed twice")
            bits |= bit
        return cls(bits=bits, n=n)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def components(self) -> tuple[int, ...]:
        """The 1-based component labels in ascending order."""
        return _mask_labels(self.bits)

    def complement(self) -> "SubsetMask":
        return SubsetMask(bits=self.bits ^ ((1 << self.n) - 1), n=self.n)

    def issubset(self, other: "SubsetMask") -> bool:
        return self.n == other.n and self.bits & ~other.bits == 0

    def __str__(self) -> str:
        return _set_str(self.bits)


@dataclass(frozen=True)
class TruthTable:
    """All 2^n values of a 0/1 function, packed so bit m holds phi(mask m)."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        _check_component_count(self.n)
        if not 0 <= self.bits < 1 << (1 << self.n):
            raise ValueError(f"table for n={self.n} must fit in {1 << self.n} entries")

    @classmethod
    def from_values(cls, values: "str | Iterable[int]", n: "int | None" = None) -> "TruthTable":
        """Build a table from values listed in subset-mask index order.

        Accepts a '0'/'1' string or an iterable of 0/1 integers of length 2^n.
        """
        # Linear in 2^n: one base-2 parse, not a shift per entry.
        if isinstance(values, str):
            bad = _NOT_BINARY.search(values)
            if bad:
                raise ValueError(
                    f"table character {bad.group()!r} at position {bad.start()} is not 0 or 1"
                )
            count = len(values)
            bits = int(values[::-1], 2) if values else 0
        else:
            seq = list(map(operator.index, values))
            if not set(seq) <= {0, 1}:
                pos, v = next((pos, v) for pos, v in enumerate(seq) if v not in (0, 1))
                raise ValueError(f"table value {v} at position {pos} is not 0 or 1")
            count = len(seq)
            bits = int(bytes(reversed(seq)).translate(_BYTE_DIGITS), 2) if seq else 0
        if n is None:
            if not count:
                raise ValueError("a table needs 2^n values for some n >= 1, got none")
            n = count.bit_length() - 1
        if count != 1 << n:
            raise ValueError(f"expected {1 << n} values for n={n}, got {count}")
        return cls(n=n, bits=bits)

    def phi(self, subset: MaskLike) -> int:
        """Value of the function on the given subset."""
        return self.bits >> _mask_bits(subset, self.n) & 1

    def values_string(self) -> str:
        """The 2^n values as a '0'/'1' string in subset-mask index order."""
        total = 1 << self.n
        return format(self.bits, f"0{total}b")[::-1]


@dataclass(frozen=True)
class MultilinearForm:
    """Sparse signed-integer coefficients of a multilinear polynomial, keyed by mask.

    The polynomial is sum over stored subsets A of coeff(A) * prod_{i in A} x_i.
    Zero coefficients are dropped on construction.
    """

    n: int
    coeffs: Mapping[int, int]

    def __post_init__(self) -> None:
        _check_component_count(self.n)
        clean: dict[int, int] = {}
        for mask in sorted(self.coeffs):
            mask = operator.index(mask)
            if not 0 <= mask < 1 << self.n:
                raise ValueError(f"coefficient key {mask} out of range for {self.n} components")
            coeff = operator.index(self.coeffs[mask])
            if coeff:
                clean[mask] = coeff
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Iterable[int], int]], n: int) -> "MultilinearForm":
        """Build a form from (components, coefficient) pairs with 1-based labels."""
        coeffs: dict[int, int] = {}
        for components, coeff in terms:
            mask = SubsetMask.from_components(components, n).bits
            if mask in coeffs:
                raise ValueError(f"subset {SubsetMask(mask, n)} listed twice")
            coeffs[mask] = coeff
        return cls(n=n, coeffs=coeffs)

    def coefficient(self, subset: MaskLike) -> int:
        return self.coeffs.get(_mask_bits(subset, self.n), 0)

    def terms(self) -> tuple[tuple[SubsetMask, int], ...]:
        """All nonzero terms in canonical (size, components) order."""
        masks = sorted(self.coeffs, key=_subset_sort_key)
        return tuple((SubsetMask(bits=m, n=self.n), self.coeffs[m]) for m in masks)

    def total(self) -> int:
        """Sum of all coefficients; equals the function value on the full set."""
        return sum(self.coeffs.values())


@dataclass(frozen=True)
class SetFamily:
    """A family of nonempty component subsets in canonical (size, components) order."""

    n: int
    members: tuple[SubsetMask, ...]

    def __post_init__(self) -> None:
        _check_component_count(self.n)
        seen: set[int] = set()
        checked: list[SubsetMask] = []
        for member in self.members:
            if not isinstance(member, SubsetMask):
                raise TypeError(f"family members must be SubsetMask, got {type(member).__name__}")
            if member.n != self.n:
                raise ValueError(f"member {member} is over {member.n} components, expected {self.n}")
            if member.bits == 0:
                raise ValueError("family members must be nonempty")
            if member.bits in seen:
                raise ValueError(f"duplicate member {member}")
            seen.add(member.bits)
            checked.append(member)
        checked.sort(key=lambda m: _subset_sort_key(m.bits))
        object.__setattr__(self, "members", tuple(checked))

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]], n: int) -> "SetFamily":
        """Build a family from iterables of 1-based component labels."""
        return cls(n=n, members=tuple(SubsetMask.from_components(s, n) for s in sets))

    @property
    def r(self) -> int:
        return len(self.members)

    def masks(self) -> tuple[int, ...]:
        return tuple(m.bits for m in self.members)

    def is_antichain(self) -> bool:
        """True when no member contains another."""
        ms = self.masks()  # sorted by size, so containment only points forward
        for j in range(len(ms)):
            for i in range(j):
                if ms[i] & ~ms[j] == 0:
                    return False
        return True

    def minimized(self) -> "SetFamily":
        """The inclusion-minimal members, i.e. the family with supersets dropped."""
        keep: list[SubsetMask] = []
        for member in self.members:
            if not any(k.bits & ~member.bits == 0 for k in keep):
                keep.append(member)
        return SetFamily(n=self.n, members=tuple(keep))

    def size_census(self) -> tuple[int, ...]:
        """Entry k-1 counts the members of size k, for k = 1..n."""
        counts = [0] * self.n
        for member in self.members:
            counts[member.size - 1] += 1
        return tuple(counts)

    def __str__(self) -> str:
        return ", ".join(str(m) for m in self.members)


@dataclass(frozen=True)
class DiagonalPoly:
    """Coefficients d_1..d_n of sum_k d_k x^k, the multilinear extension with
    every argument set to the same x. There is never a constant term."""

    n: int
    d: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_component_count(self.n)
        if len(self.d) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(self.d)}")
        object.__setattr__(self, "d", tuple(operator.index(v) for v in self.d))

    def evaluate(self, x):
        """Value at x; exact for Fraction input, float for float input."""
        acc = 0
        for coeff in reversed(self.d):
            acc = acc * x + coeff
        return acc * x

    def total(self) -> int:
        """Sum of coefficients; equals the value at x = 1."""
        return sum(self.d)


@dataclass(frozen=True)
class SignatureVector:
    """Exact rational signature (s_1..s_n): entry k is the share of component
    failure orders in which the k-th failure brings the system down."""

    n: int
    s: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _check_component_count(self.n)
        if len(self.s) != self.n:
            raise InvalidSignatureError(f"expected {self.n} entries, got {len(self.s)}")
        values = tuple(Fraction(v) for v in self.s)
        for k, v in enumerate(values, start=1):
            if v < 0:
                raise InvalidSignatureError(f"entry {k} is negative: {v}")
        if sum(values) != 1:
            raise InvalidSignatureError(f"entries sum to {sum(values)}, expected 1")
        object.__setattr__(self, "s", values)

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.s) + ")"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a semicoherence check; violations name the offending subsets."""

    ok: bool
    violations: tuple[str, ...]


def validate_semicoherent(table: TruthTable) -> ValidationReport:
    """Check phi(empty) = 0, phi(full) = 1, and monotonicity.

    Monotonicity is checked along each of the n single-component directions,
    which generate the whole subset order. Each reported monotonicity
    violation names the first offending pair in that direction.
    """
    n, bits = table.n, table.bits
    total = 1 << n
    violations: list[str] = []
    if bits & 1:
        violations.append("phi({}) = 1, expected 0")
    if not bits >> (total - 1) & 1:
        violations.append(f"phi({_set_str(total - 1)}) = 0, expected 1")
    full = (1 << total) - 1
    for i, pattern in enumerate(_component_patterns(n)):
        step = 1 << i
        without_i = full & ~pattern
        bad = bits & ~(bits >> step) & without_i
        if bad:
            m = (bad & -bad).bit_length() - 1
            violations.append(
                f"monotonicity violated: phi({_set_str(m)}) = 1 > 0 = phi({_set_str(m | step)})"
            )
    return ValidationReport(ok=not violations, violations=tuple(violations))


def _require_semicoherent(table: TruthTable) -> None:
    report = validate_semicoherent(table)
    if not report.ok:
        raise NotSemicoherentError("; ".join(report.violations))


def zeta_transform(form: MultilinearForm, *, max_n: "int | None" = None) -> TruthTable:
    """Evaluate the form on every subset: value(A) = sum of coeff(B) over B inside A.

    This inverts :func:`mobius_transform`. Raises NotStructureFunctionError if
    any subset sum leaves {0, 1}, naming the first offending subset.
    """
    _check_max_n(form.n, max_n)
    # A genuine form has |coeff(A)| <= 2^(|A| - 1), so its magnitudes sum below
    # 3^n < 2^39 for n <= 24 and int64 is exact. Only coefficients of a form
    # about to be rejected can reach the object-dtype (Python integer) pass.
    magnitude = sum(abs(c) for c in form.coeffs.values())
    arr = np.zeros(1 << form.n, dtype=np.int64 if magnitude < _INT64_SAFE else object)
    for mask, coeff in form.coeffs.items():
        arr[mask] = coeff
    _lattice_pass(arr, form.n, +1)
    bad = (arr != 0) & (arr != 1)
    if bad.any():
        m = int(np.argmax(bad))
        raise NotStructureFunctionError(
            f"value {int(arr[m])} at subset {_set_str(m)} is not in {{0, 1}}"
        )
    return TruthTable(n=form.n, bits=_pack_values(arr))


def mobius_transform(table: TruthTable, *, max_n: "int | None" = None) -> MultilinearForm:
    """Coefficients of the unique multilinear polynomial matching the table.

    coeff(A) = sum over B inside A of (-1)^(|A| - |B|) * value(B).
    """
    _check_max_n(table.n, max_n)
    # After the pass over k components each entry is an alternating sum of 0/1
    # values over the subsets of at most k components, so it stays within
    # +-2^(k-1) <= 2^23 for n <= 24 and int32 is exact.
    arr = _unpack_values(table.bits, table.n)
    _lattice_pass(arr, table.n, -1)
    nonzero = np.flatnonzero(arr)
    return MultilinearForm(n=table.n, coeffs=dict(zip(nonzero.tolist(), arr[nonzero].tolist())))
