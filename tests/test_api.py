"""The package namespace: `structfn` exports each module's public names, once,
and the value semantics of its data types."""

import copy
import pickle

import pytest

import structfn
from structfn import core, reliability, signature, transform

PUBLIC_NAMES = [
    "CapacityError",
    "DiagonalPoly",
    "InconsistentFormError",
    "InvalidSignatureError",
    "MultilinearForm",
    "N_MAX",
    "NonMinimalFamilyWarning",
    "NotSemicoherentError",
    "NotStructureFunctionError",
    "R_MAX",
    "SetFamily",
    "SignatureVector",
    "SubsetMask",
    "TruthTable",
    "ValidationReport",
    "__version__",
    "coefficients_from_signature",
    "cuts_from_paths",
    "diagonal_coefficients",
    "diagonal_from_paths",
    "dual_signature",
    "dual_simple_form_from_cuts",
    "dualize_table",
    "evaluate_inclusion_exclusion",
    "evaluate_reliability",
    "formation_balance",
    "minimal_cut_sets",
    "minimal_path_sets",
    "mobius_transform",
    "paths_from_simple_form",
    "signature_boland",
    "signature_from_diagonal",
    "signature_from_paths",
    "simple_form_from_paths",
    "small_counts_from_coefficients",
    "small_counts_from_signature",
    "table_from_cuts",
    "table_from_paths",
    "validate_semicoherent",
    "zeta_transform",
]

MODULES = (core, transform, reliability, signature)


def test_public_names():
    assert sorted(structfn.__all__) == PUBLIC_NAMES


def test_no_name_listed_twice():
    assert len(set(structfn.__all__)) == len(structfn.__all__)


def test_each_name_is_its_modules_object():
    assert structfn.__version__ == "0.1.0"
    exported = ["__version__"]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(structfn, name) is getattr(module, name), name
        exported += module.__all__
    assert sorted(exported) == PUBLIC_NAMES


def test_star_import_binds_all():
    namespace = {}
    exec("from structfn import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(structfn.__all__)


class TestValueSemantics:
    """Equality, hashing and repr of the value types, as callers rely on them."""

    def test_subset_mask(self):
        mask = structfn.SubsetMask(bits=5, n=3)
        assert mask == structfn.SubsetMask.from_components([3, 1], n=3)
        assert mask != structfn.SubsetMask(bits=5, n=4)
        assert mask != structfn.SubsetMask(bits=3, n=3)
        assert mask != 5
        assert hash(mask) == hash(structfn.SubsetMask(bits=5, n=3))
        assert len({mask, structfn.SubsetMask(bits=5, n=3)}) == 1
        assert repr(mask) == "SubsetMask(bits=5, n=3)"

    def test_truth_table(self):
        table = structfn.TruthTable(n=2, bits=14)
        assert table == structfn.TruthTable.from_values("0111")
        assert table != structfn.TruthTable(n=3, bits=14)
        assert table != structfn.TruthTable(n=2, bits=8)
        assert hash(table) == hash(structfn.TruthTable.from_values([0, 1, 1, 1]))
        assert repr(table) == "TruthTable(n=2, bits=14)"

    def test_set_family(self):
        fam = structfn.SetFamily.from_sets([[2, 3], [1]], n=3)
        same = structfn.SetFamily.from_sets([[1], [3, 2]], n=3)
        assert fam == same  # members are kept in canonical order
        assert fam != structfn.SetFamily.from_sets([[2, 3], [1]], n=4)
        assert fam != structfn.SetFamily.from_sets([[2, 3]], n=3)
        assert hash(fam) == hash(same)
        assert repr(fam) == (
            "SetFamily(n=3, members=(SubsetMask(bits=1, n=3), SubsetMask(bits=6, n=3)))"
        )

    def test_multilinear_form(self):
        form = structfn.MultilinearForm(n=2, coeffs={3: -1, 1: 1, 2: 1, 0: 0})
        assert form == structfn.MultilinearForm(n=2, coeffs={1: 1, 2: 1, 3: -1})
        assert form == structfn.mobius_transform(structfn.TruthTable.from_values("0111"))
        parallel = structfn.SetFamily.from_sets([[1], [2]], n=2)
        assert form == structfn.simple_form_from_paths(parallel)
        assert form != structfn.MultilinearForm(n=3, coeffs={1: 1, 2: 1, 3: -1})
        assert form != structfn.MultilinearForm(n=2, coeffs={1: 1, 2: 1, 3: 1})
        assert repr(form) == "MultilinearForm(n=2, coeffs={1: 1, 2: 1, 3: -1})"

    def test_multilinear_form_is_unhashable(self):
        form = structfn.MultilinearForm(n=2, coeffs={3: 1})
        with pytest.raises(TypeError, match="unhashable"):
            hash(form)


def round_trip_values():
    """One value of each type, and families built each way: by the public
    constructor, by a library route, and with ``members`` already read."""
    built = structfn.minimal_path_sets(structfn.TruthTable.from_values("0001011101111111"))
    read = structfn.SetFamily.from_sets([[2, 3], [1]], n=3)
    assert len(read.members) == 2
    return {
        "subset_mask": structfn.SubsetMask(bits=5, n=3),
        "truth_table": structfn.TruthTable(n=2, bits=14),
        "multilinear_form": structfn.MultilinearForm(n=2, coeffs={1: 1, 2: 1, 3: -1}),
        "set_family": structfn.SetFamily.from_sets([[2, 3], [1]], n=3),
        "library_family": built,
        "family_with_members_read": read,
    }


class TestRoundTrips:
    """pickle and copy.deepcopy give back an equal value of the same type."""

    @pytest.mark.parametrize("copier", ["pickle", "deepcopy"])
    @pytest.mark.parametrize("name", list(round_trip_values()))
    def test_round_trip(self, name, copier):
        value = round_trip_values()[name]
        if copier == "pickle":
            copy_ = pickle.loads(pickle.dumps(value))
        else:
            copy_ = copy.deepcopy(value)
        assert type(copy_) is type(value)
        assert copy_ == value
        assert repr(copy_) == repr(value)
        assert str(copy_) == str(value)
        if not isinstance(value, structfn.MultilinearForm):
            assert hash(copy_) == hash(value)
        if isinstance(value, structfn.SetFamily):
            assert copy_.members == value.members
            assert copy_.masks() == value.masks()
            assert copy_.size_census() == value.size_census()
