"""The package namespace: `structfn` exports each module's public names, once."""

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
