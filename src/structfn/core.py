"""Domain types and subset-lattice primitives for semicoherent structure functions.

A system on components 1..n is described by its structure function phi, a 0/1
function over the 2^n component subsets. Subsets are encoded as bitmasks with
component i at bit i - 1, and a truth table packs all 2^n values of phi into a
single integer whose bit m is phi of the subset with mask m. The sparse
multilinear "simple form" maps subset masks to signed integer coefficients;
the zeta transform (sum over contained subsets) turns coefficients back into
values and the Mobius transform is its exact inverse.

Mobius first walks the DAG of the table's distinct subtables, so a sparse
form costs about its own size, and gives up past a fixed work budget. Past
it, and for zeta, the transform is one in-place lattice pass with opposite
signs, run on numpy arrays whose dtype a written magnitude bound proves
exact. Mobius reads the table as 16-bit words and looks up each word's first
four passes, then widens as its partial sums grow: after k passes over 0/1
input they lie within +-2^(k-1), so int8 holds them through k = 7, int16
through 15 and int32 up to n = 24. Zeta runs in int64 while the input
magnitudes sum below 2^62, and in Python integers in an object-dtype array
otherwise, which only forms that are about to be rejected ever reach.

Table passes without numpy (up-closure, minimal entries, validation, counts
by size) run on chunks of 2^16 entries, so their masks are 8 KiB whatever n.

numpy is imported on the first dense pass, a zeta or a Mobius whose walk
passed its budget, and otherwise not at all. Family routes within the
expansion cap, signatures, small counts and reliability run on Python
numbers alone, as does every Mobius of at most 14 components.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterable, Iterator, Mapping, Union

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


# _BYTE_BITS[b]: the set bit positions of byte b. _BYTE_POSITIONS[k][b] and
# _BYTE_LABELS[k][b]: the bit positions and the 1-based component labels of
# those bits when b is byte k of a mask.
_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))
_BYTE_POSITIONS = tuple(
    tuple(tuple(8 * k + j for j in bits) for bits in _BYTE_BITS) for k in range(3)
)
_BYTE_LABELS = tuple(tuple(tuple(i + 1 for i in ps) for ps in level) for level in _BYTE_POSITIONS)


def _mask_labels(mask: int) -> tuple[int, ...]:
    """The 1-based component labels of a mask below 2^24, ascending."""
    low, mid, high = _BYTE_LABELS
    return low[mask & 255] + mid[mask >> 8 & 255] + high[mask >> 16]


@cache
def _label_pieces(sep: str) -> tuple[tuple[str, ...], ...]:
    """[k][b]: sep + label for each label of _BYTE_LABELS[k][b], concatenated;
    built on first use for each separator."""
    return tuple(tuple("".join(sep + str(c) for c in ls) for ls in level) for level in _BYTE_LABELS)


def _labels_text(masks: Iterable[int], sep: str) -> Iterator[str]:
    """The text of each mask below 2^24: its 1-based labels in ascending order,
    each after ``sep``, with the first character dropped. For mask 5, sep ","
    writes "1,3" and sep "*x" writes "x1*x3"; mask 0 is always ""."""
    low, mid, high = _label_pieces(sep)
    return ((low[m & 255] + mid[m >> 8 & 255] + high[m >> 16])[1:] for m in masks)


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


# Table passes run on chunks of 2^16 entries (8 KiB): chunk k holds entries
# k * 2^16 .. (k + 1) * 2^16 - 1, and a table of n <= 16 components is one chunk.
_CHUNK_N = 16


def _split_chunks(bits: int, n: int) -> list[int]:
    """The chunks of an n-component table integer, lowest entries first."""
    if n <= _CHUNK_N:
        return [bits]
    size = 1 << (_CHUNK_N - 3)
    raw = memoryview(bits.to_bytes(1 << (n - 3), "little"))
    return [int.from_bytes(raw[k : k + size], "little") for k in range(0, len(raw), size)]


def _join_chunks(chunks: list[int], n: int) -> int:
    """The table integer of :func:`_split_chunks`' chunks."""
    if n <= _CHUNK_N:
        return chunks[0]
    size = 1 << (_CHUNK_N - 3)
    return int.from_bytes(b"".join(c.to_bytes(size, "little") for c in chunks), "little")


def _carried_up(chunks: list[int], n: int) -> Iterator[tuple[int, int, int]]:
    """(i, k, carried) for each 0-based component i and each chunk k: carried
    marks the entries of chunk k that hold i and whose subset without i is set.

    Components 1..16 shift a chunk within itself; component 17 + j carries
    chunk k ^ 2^j whole into each chunk k with bit j. Within a component the
    chunks ascend. Each chunk is read when its item is made, so a caller that
    ORs ``carried`` into ``chunks[k]`` as it goes builds the up-set.
    """
    patterns = _component_patterns()[:n]
    for k in range(len(chunks)):
        for i, pattern in enumerate(patterns):
            yield i, k, (chunks[k] << (1 << i)) & pattern
    for j in range(n - _CHUNK_N):
        step = 1 << j
        for k in range(len(chunks)):
            if k & step:
                yield _CHUNK_N + j, k, chunks[k ^ step]


@cache
def _component_patterns() -> tuple[int, ...]:
    """Pattern i marks every chunk position whose index has bit i set.

    Each of the 16 is a 2^16-bit integer that answers a chunk-wide question
    about one component in a few big-integer operations. Tables of n < 16
    components take the first n: ``&`` costs the shorter operand's length.
    """
    total = 1 << _CHUNK_N
    patterns = []
    for i in range(_CHUNK_N):
        width = 2 << i
        block = ((1 << (1 << i)) - 1) << (1 << i)
        while width < total:
            block |= block << width
            width <<= 1
        patterns.append(block)
    return tuple(patterns)


@cache
def _size_patterns() -> tuple[int, ...]:
    """Pattern k marks every chunk position whose index has exactly k bits set,
    for k = 0..16; tables of n < 16 components take the first n + 1.

    Built by the Pascal-triangle recursion: doubling the component count shifts
    a copy of each pattern into the half where the new component is present.
    """
    patterns = [1]
    for m in range(_CHUNK_N):
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


def _up_closure(masks: Iterable[int], n: int) -> int:
    """The table integer of the given masks' supersets, in O(n * 2^n) whatever
    their number: the masks are marked, then carried up one component at a
    time; the inverse of :func:`_minimal_true_chunks`."""
    marks = bytearray(((1 << n) + 7) // 8)
    for m in masks:
        marks[m >> 3] |= 1 << (m & 7)
    chunks = _split_chunks(int.from_bytes(marks, "little"), n)
    for _, k, carried in _carried_up(chunks, n):
        chunks[k] |= carried
    return _join_chunks(chunks, n)


def _minimal_true_chunks(bits: int, n: int) -> list[int]:
    """Positions of inclusion-minimal true entries of a monotone table, as the
    chunks of :func:`_split_chunks`.

    For monotone phi a true subset is minimal exactly when removing any single
    component flips it false, which each component pattern checks in bulk.
    """
    chunks = _split_chunks(bits, n)
    covered = [0] * len(chunks)
    for _, k, carried in _carried_up(chunks, n):
        covered[k] |= carried
    return [chunk ^ (chunk & c) for chunk, c in zip(chunks, covered)]


def _true_count_by_size(table: "TruthTable") -> tuple[int, ...]:
    """Entry k counts the size-k subsets on which the table holds value 1.

    Entry s of chunk k has size popcount(k) + s, so each chunk adds its
    per-size counts at an offset.
    """
    patterns = _size_patterns()[: table.n + 1]
    counts = [0] * (table.n + 1)
    for k, chunk in enumerate(_split_chunks(table.bits, table.n)):
        base = k.bit_count()
        for s, pattern in enumerate(patterns):
            counts[base + s] += (chunk & pattern).bit_count()
    return tuple(counts)


def _pack_values(values01) -> int:
    """The table integer of a numpy array of 0/1 values, bit m from entry m."""
    import numpy as np

    packed = np.packbits(values01.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _lattice_pass(arr, components: range, sign: int) -> None:
    """In place, for each listed component i: arr[A + i] += sign * arr[A] for A without i.

    sign = +1 is the zeta transform (sum over contained subsets) and sign = -1
    its Mobius inverse; the passes commute, so they may run in any groups.
    """
    op = operator.iadd if sign > 0 else operator.isub
    for i in components:
        step = 1 << i
        view = arr.reshape(-1, 2 * step)
        op(view[:, step:], view[:, :step])


@cache
def _mobius_words():
    """Row w: the Mobius transform over components 1..4 of the 16 entries that
    the 16-bit word w holds, bit j as entry j; within +-2^3, so int8."""
    import numpy as np

    rows = np.unpackbits(np.arange(1 << 16, dtype="<u2").view(np.uint8), bitorder="little")
    rows = rows.astype(np.int8)
    _lattice_pass(rows, range(4), -1)
    return rows.reshape(-1, 16)


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
    Zero coefficients are dropped on construction. ``coeffs`` is read-only:
    a form the library returns may be shared, as a family's expanded form is
    by every later call on that family, so copy it before changing it.
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
    def _trusted(cls, n: int, coeffs: dict[int, int]) -> "MultilinearForm":
        """A form built by the library: ``coeffs`` already has ascending int
        masks below 2^n and nonzero int coefficients, so nothing is re-checked."""
        form = object.__new__(cls)
        object.__setattr__(form, "n", n)
        object.__setattr__(form, "coeffs", coeffs)
        return form

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


@dataclass(frozen=True, init=False, repr=False)
class SetFamily:
    """A family of nonempty component subsets in canonical (size, components) order,
    stored once as their masks; ``members`` builds the SubsetMasks on first use."""

    n: int
    _masks: tuple[int, ...]

    def __init__(self, n: int, members: tuple[SubsetMask, ...]) -> None:
        _check_component_count(n)
        seen: set[int] = set()
        for member in members:
            if not isinstance(member, SubsetMask):
                raise TypeError(f"family members must be SubsetMask, got {type(member).__name__}")
            if member.n != n:
                raise ValueError(f"member {member} is over {member.n} components, expected {n}")
            if member.bits == 0:
                raise ValueError("family members must be nonempty")
            if member.bits in seen:
                raise ValueError(f"duplicate member {member}")
            seen.add(member.bits)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_masks", tuple(sorted(seen, key=_subset_sort_key)))

    @classmethod
    def _trusted(cls, n: int, masks: tuple[int, ...]) -> "SetFamily":
        """A family built by the library: ``masks`` already holds an antichain
        of nonzero masks below 2^n in canonical order, so nothing is re-checked
        and the family is recorded as minimal."""
        family = object.__new__(cls)
        object.__setattr__(family, "n", n)
        object.__setattr__(family, "_masks", masks)
        family.__dict__["_minimal"] = None
        return family

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]], n: int) -> "SetFamily":
        """Build a family from iterables of 1-based component labels."""
        return cls(n=n, members=tuple(SubsetMask.from_components(s, n) for s in sets))

    @cached_property
    def members(self) -> tuple[SubsetMask, ...]:
        return tuple(SubsetMask(bits=m, n=self.n) for m in self._masks)

    @property
    def r(self) -> int:
        return len(self._masks)

    def masks(self) -> tuple[int, ...]:
        return self._masks

    def is_antichain(self) -> bool:
        """True when no member contains another."""
        return self.minimized() is self

    def minimized(self) -> "SetFamily":
        """The family with supersets dropped: ``self`` when no member contains another.

        A family the library built is known to be minimal. Any other is scanned
        pairwise once, and the result is kept beside the cached ``members``
        (None standing for ``self``).
        """
        if "_minimal" not in self.__dict__:
            keep: list[int] = []
            for m in self._masks:  # sorted by size, so a kept subset comes first
                outside = ~m
                if not any(k & outside == 0 for k in keep):
                    keep.append(m)
            minimal = SetFamily._trusted(self.n, tuple(keep)) if len(keep) < self.r else None
            self.__dict__["_minimal"] = minimal
        return self.__dict__["_minimal"] or self

    def size_census(self) -> tuple[int, ...]:
        """Entry k-1 counts the members of size k, for k = 1..n."""
        counts = [0] * self.n
        for m in self._masks:
            counts[m.bit_count() - 1] += 1
        return tuple(counts)

    def __str__(self) -> str:
        return ", ".join(f"{{{labels}}}" for labels in _labels_text(self._masks, ","))

    def __repr__(self) -> str:
        return f"SetFamily(n={self.n}, members={self.members!r})"


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

    @classmethod
    def _trusted(cls, n: int, s: tuple[Fraction, ...]) -> "SignatureVector":
        """A signature built by the library: ``s`` already holds n nonnegative
        Fractions summing to 1, so nothing is re-checked."""
        sig = object.__new__(cls)
        object.__setattr__(sig, "n", n)
        object.__setattr__(sig, "s", s)
        return sig

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
    which generate the whole subset order: shifted up by component i, a true
    subset lands on its superset with i, and a false entry there is a
    violation. Each names the first offending pair in that direction.
    """
    n, bits = table.n, table.bits
    total = 1 << n
    violations: list[str] = []
    if bits & 1:
        violations.append("phi({}) = 1, expected 0")
    if not bits >> (total - 1) & 1:
        violations.append(f"phi({_set_str(total - 1)}) = 0, expected 1")
    # Chunks ascend within a direction, so the first offending entry found
    # in it is its lowest, whichever chunk holds it.
    lowest: dict[int, int] = {}
    chunks = _split_chunks(bits, n)
    for i, k, carried in _carried_up(chunks, n):
        bad = carried ^ (carried & chunks[k])  # carried & ~chunks[k] without a slow negative int
        if bad and i not in lowest:
            lowest[i] = (k << _CHUNK_N) | ((bad & -bad).bit_length() - 1)
    for i in sorted(lowest):
        m = lowest[i]
        violations.append(
            f"monotonicity violated: phi({_set_str(m ^ 1 << i)}) = 1 > 0 = phi({_set_str(m)})"
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
    import numpy as np

    _check_max_n(form.n, max_n)
    # A genuine form has |coeff(A)| <= 2^(|A| - 1), so its magnitudes sum below
    # 3^n < 2^39 for n <= 24 and int64 is exact. Only coefficients of a form
    # about to be rejected can reach the object-dtype (Python integer) pass.
    magnitude = sum(abs(c) for c in form.coeffs.values())
    arr = np.zeros(1 << form.n, dtype=np.int64 if magnitude < _INT64_SAFE else object)
    for mask, coeff in form.coeffs.items():
        arr[mask] = coeff
    _lattice_pass(arr, range(form.n), +1)
    bad = (arr != 0) & (arr != 1)
    if bad.any():
        m = int(np.argmax(bad))
        raise NotStructureFunctionError(
            f"value {int(arr[m])} at subset {_set_str(m)} is not in {{0, 1}}"
        )
    return TruthTable(n=form.n, bits=_pack_values(arr))


def _subtable_fold(bits: int, n: int, leaves: tuple, combine: Callable) -> object:
    """Fold an n-component table over the DAG of its distinct subtables.

    A table over components 1..k splits on component k into halves lo
    (component k absent) and hi. The constant v (k = 0) folds to
    ``leaves[v]``, a table with equal halves to its lo's value (the level is
    skipped), and any other to ``combine(k - 1, lo value, hi value)``. Each
    distinct subtable is folded once. ``combine`` returns None to abandon the
    fold, which then returns None; no other value may be None. Subtables of
    16 entries or more are bytes slices, which compare by memcmp and keep
    their hash, and smaller ones are ints.
    """
    memo: list[dict] = [{} for _ in range(n + 1)]  # memo[k]: subtables over k components

    def fold(t, k: int):
        if k == 0:
            return leaves[t]
        seen = memo[k]
        value = seen.get(t)
        if value is not None:
            return value
        if k > 4:
            half = len(t) >> 1
            lo, hi = t[:half], t[half:]
        elif k == 4:
            lo, hi = t  # its two bytes, as ints
        else:
            width = 1 << (k - 1)
            lo, hi = t & ((1 << width) - 1), t >> width
        value = fold(lo, k - 1)
        if lo != hi and value is not None:
            high = fold(hi, k - 1)
            value = None if high is None else combine(k - 1, value, high)
        if value is not None:
            seen[t] = value
        return value

    try:
        return fold(bits.to_bytes(1 << (n - 3), "little") if n >= 4 else bits, n)
    finally:
        memo.clear()  # fold refers to itself, so only the cycle collector would free it


def _subtable_mobius(bits: int, n: int, budget: int) -> "tuple[dict[int, int] | None, int]":
    """Mobius coefficients of an n-component table, from its distinct subtables.

    With phi0 and phi1 the halves of a table without and with component i,
    coeffs(phi) = coeffs(phi0) plus, for each A, coeff(A + i) =
    coeffs(phi1)(A) - coeffs(phi0)(A); a difference that cancels is never
    stored. The work is the number of dict entries merged, |coeffs(phi0)| +
    |coeffs(phi1)| per combined subtable, at most n * 2^n. Returns the
    coefficients in ascending mask order and the work, or None and the work
    so far once a merge would take the work past ``budget``.
    """
    work = 0

    def combine(i: int, c0: dict, c1: dict) -> "dict | None":
        nonlocal work
        work += len(c0) + len(c1)
        if work > budget:
            return None
        bit = 1 << i
        if not c0:
            return {a | bit: v for a, v in c1.items()}
        get = c0.get
        out = c0.copy()
        out.update({a | bit: d for a, v in c1.items() if (d := v - get(a, 0))})
        if not c0.keys() <= c1.keys():
            out.update({a | bit: -v for a, v in c0.items() if a not in c1})
        return out

    coeffs = _subtable_fold(bits, n, ({}, {0: 1}), combine)
    if coeffs is None:
        return None, work
    return {a: coeffs[a] for a in sorted(coeffs)}, work


def _mobius_budget(n: int) -> int:
    """The work budget of :func:`_subtable_mobius` within :func:`mobius_transform`;
    past it, the dense passes answer.

    The walk merges about 5 M entries a second, so the floor of 2^18 entries
    costs about what importing numpy costs a fresh process (0.06-0.1 s), and
    2^(n-5) = 2^19 at n = 24 about half the dense passes there (0.13-0.17 s).
    That bounds the work a tripped budget throws away: the walk took
    0.05-0.11 s on the ring 24, hub 21, 12-of-24 dual and random 3000 tables
    before it gave up. No table with n <= 14 trips it, since the work is at
    most n * 2^n. Over 300 relabelings of each ``LATTICE_BASE`` shape of
    perfbench/gen.py, the dual tables' work peaked at 136,288 (n = 20),
    228,200 (n = 22) and 256,896 (n = 24). (2-core Xeon VM, Python 3.11.7.)
    """
    return max(1 << 18, (1 << n) >> 5)


def _dense_mobius(bits: int, n: int) -> dict[int, int]:
    """Mobius coefficients of an n-component table, in ascending mask order,
    from dense numpy passes over all 2^n entries."""
    import numpy as np

    # One little-endian 16-bit word per 16 entries, a table below n = 4
    # zero-padded to one word; its lookup row has the passes over components
    # 1..4 done. Padding adds supersets only, so the first 2^n entries hold.
    raw = bits.to_bytes(max(2, (1 << n) >> 3), "little")
    arr = _mobius_words().take(np.frombuffer(raw, dtype="<u2"), axis=0).reshape(-1)[: 1 << n]
    # After the passes over k components each entry is an alternating sum of
    # 2^k values 0 or 1, half of them subtracted, so it lies within +-2^(k-1):
    # int8 holds it through k = 7, int16 through k = 15 and int32 up to
    # k = N_MAX = 24.
    done = 4
    for stop, dtype in ((7, np.int8), (15, np.int16), (N_MAX, np.int32)):
        if done < n:
            arr = arr.astype(dtype, copy=False)
            _lattice_pass(arr, range(done, min(stop, n)), -1)
            done = stop
    nonzero = np.flatnonzero(arr != 0)  # ascending; a bool array scans faster than int32
    return dict(zip(nonzero.tolist(), arr[nonzero].tolist()))


def mobius_transform(table: TruthTable, *, max_n: "int | None" = None) -> MultilinearForm:
    """Coefficients of the unique multilinear polynomial matching the table.

    coeff(A) = sum over B inside A of (-1)^(|A| - |B|) * value(B).
    """
    _check_max_n(table.n, max_n)
    n = table.n
    coeffs, _ = _subtable_mobius(table.bits, n, _mobius_budget(n))
    if coeffs is None:
        coeffs = _dense_mobius(table.bits, n)
    return MultilinearForm._trusted(n, coeffs)
