"""Brute-force reference implementations working straight from definitions.

Everything here trades speed for transparency: subsets are enumerated one at
a time, as int masks, and checked against the defining property, with none of
the table-wide bitwise operations or lattice transforms the fast routes use.
Submasks come from ``(sub - 1) & mask``, and phi(A) is bit A of the table's
``bits``. The test suite and the CLI ``verify`` command compare fast results
against these.

Deliberate limits: semicoherent enumeration stops at four components and
formation censuses at sixteen family members, past which the search spaces
explode. Nothing here is meant for production-size inputs.
"""

from __future__ import annotations

from typing import Iterator

from .core import CapacityError, MultilinearForm, SetFamily, SubsetMask, TruthTable

__all__ = [
    "ORACLE_N_MAX",
    "ORACLE_R_MAX",
    "enumerate_semicoherent",
    "oracle_dual_table",
    "oracle_minimal_path_sets",
    "oracle_minimal_cut_sets",
    "oracle_simple_form",
    "oracle_formations",
]

ORACLE_N_MAX = 4
ORACLE_R_MAX = 16


def enumerate_semicoherent(n: int) -> Iterator[TruthTable]:
    """Every semicoherent structure function on n components, by filtration.

    Walks all 2^(2^n) candidate tables and keeps those with value 0 on the
    empty set, 1 on the full set, and value(A) <= value(B) for every subset
    pair A of B, checked pair by pair from the definition.
    """
    if not 1 <= n <= ORACLE_N_MAX:
        raise CapacityError(f"enumeration supported for 1..{ORACLE_N_MAX} components, got {n}")
    total = 1 << n
    pairs = [
        (a, b)
        for a in range(total)
        for b in range(total)
        if a != b and a & b == a
    ]
    for code in range(1 << total):
        if code & 1:
            continue
        if not code >> (total - 1) & 1:
            continue
        if all((code >> a & 1) <= (code >> b & 1) for a, b in pairs):
            yield TruthTable(n=n, bits=code)


def oracle_dual_table(table: TruthTable) -> TruthTable:
    """Dual table by pointwise definition: dual(A) = 1 - phi(complement of A)."""
    n, bits = table.n, table.bits
    full = (1 << n) - 1
    dual = 0
    for mask in range(1 << n):
        if 1 - (bits >> (full ^ mask) & 1):
            dual |= 1 << mask
    return TruthTable(n=n, bits=dual)


def _minimal_sets(table: TruthTable, flip: int, value: int) -> SetFamily:
    """Every nonempty A with phi(A ^ flip) = value where no proper subset S of A
    has phi(S ^ flip) = value, each proper subset checked in turn."""
    n, bits = table.n, table.bits
    members = []
    for mask in range(1, 1 << n):
        if bits >> (mask ^ flip) & 1 != value:
            continue
        sub = mask
        while sub:  # the proper subsets of mask, the empty set last
            sub = (sub - 1) & mask
            if bits >> (sub ^ flip) & 1 == value:
                break
        else:
            members.append(SubsetMask(bits=mask, n=n))
    return SetFamily(n=n, members=tuple(members))


def oracle_minimal_path_sets(table: TruthTable) -> SetFamily:
    """Minimal path sets by definition: phi = 1 on the set, 0 on every proper subset."""
    return _minimal_sets(table, 0, 1)


def oracle_minimal_cut_sets(table: TruthTable) -> SetFamily:
    """Minimal cut sets by definition: the system fails when the whole set fails,
    but survives the failure of every proper subset."""
    return _minimal_sets(table, (1 << table.n) - 1, 0)


def oracle_simple_form(table: TruthTable) -> MultilinearForm:
    """Simple form by direct expansion of the self-descriptive polynomial.

    Start from sum over subsets A of phi(A) * prod_{i in A} x_i *
    prod_{i not in A} (1 - x_i), expand every (1 - x_i) product into signed
    monomials, and collect like terms. No lattice transform involved.
    """
    n, bits = table.n, table.bits
    full = (1 << n) - 1
    coeffs: dict[int, int] = {}
    for mask in range(1 << n):
        if not bits >> mask & 1:
            continue
        absent = extra = full ^ mask
        while True:  # every subset of the absent components, the empty set last
            key = mask | extra
            coeffs[key] = coeffs.get(key, 0) + (-1 if extra.bit_count() & 1 else 1)
            if not extra:
                break
            extra = (extra - 1) & absent
    return MultilinearForm(n=n, coeffs=coeffs)


def _formation_census(paths: SetFamily) -> dict[int, tuple[int, int]]:
    """Counts of (odd, even)-size nonempty subfamilies by their union.

    Enumerates every nonempty subfamily of the path family, as a mask over
    its members, and forms its union from that of the subfamily without its
    lowest member. The keys are the union closure of the family.
    """
    if paths.r > ORACLE_R_MAX:
        raise CapacityError(
            f"formation census supported for at most {ORACLE_R_MAX} members, got {paths.r}"
        )
    masks = paths.masks()
    unions = [0] * (1 << len(masks))
    census: dict[int, list[int]] = {}
    for chosen in range(1, len(unions)):
        low = chosen & -chosen
        unions[chosen] = union = unions[chosen ^ low] | masks[low.bit_length() - 1]
        census.setdefault(union, [0, 0])[~chosen.bit_count() & 1] += 1  # [odd, even]
    return {union: (odd, even) for union, (odd, even) in census.items()}


def oracle_formations(paths: SetFamily, subset: "SubsetMask | int") -> tuple[int, int]:
    """Counts of (odd, even)-size nonempty subfamilies whose union is the subset.

    Reads the subset's entry of the family's formation census. The difference
    odd - even is the subset's simple-form coefficient.
    """
    census = _formation_census(paths)
    target = subset.bits if isinstance(subset, SubsetMask) else subset & ((1 << paths.n) - 1)
    return census.get(target, (0, 0))
