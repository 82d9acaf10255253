"""Import-surface sanity for the public package namespace."""

import subprocess
import sys
import textwrap

import bihomtrias


def test_public_names_resolve():
    names = [
        "Scalar", "Matrix", "rref", "nullspace", "inverse",
        "MulTensor", "LinearMap", "BiHomTrialgebra", "evaluate",
        "check_axioms", "check_multiplicativity", "check_coordinate_form",
        "parse_algebra", "serialize_algebra", "parse_operator", "serialize_operator",
        "is_morphism", "transport", "untwist", "direct_sum",
        "graph_subalgebra_check", "rota_baxter_check", "rb_induced",
        "swap_maps", "sum_middle_right", "commutator_construct", "total_sum",
        "averaging_check", "averaging_induced",
        "is_derivation", "derivation_space",
        "centralizer", "is_centroid_element", "centroid_space",
        "central_derivations", "cent_der_property_suite",
        "catalog_get", "catalog_list", "catalog_verify",
        "fingerprint", "distinguish", "verify_isomorphism",
    ]
    for name in names:
        assert callable(getattr(bihomtrias, name)) or getattr(bihomtrias, name)


def test_version():
    assert bihomtrias.__version__


COUNT_CONSTRUCTIONS = textwrap.dedent("""
    import sys

    built = []

    def count(frame, event, arg):
        if (event == "call" and frame.f_code.co_name == "__post_init__"
                and type(frame.f_locals["self"]).__name__ == "BiHomTrialgebra"):
            built.append(1)

    sys.setprofile(count)
    import bihomtrias
    sys.setprofile(None)
    at_import = len(built)
    sys.setprofile(count)
    bihomtrias.catalog_list()
    bihomtrias.catalog_get("BTas_3^24")
    sys.setprofile(None)
    print(at_import, len(built))
""")


def test_import_constructs_no_algebra():
    """The catalog is built on first use, once: importing the package
    constructs no BiHomTrialgebra, and the first lookup constructs the
    36 catalog algebras (31 entries and the 5 candidate readings)."""
    r = subprocess.run(
        [sys.executable, "-c", COUNT_CONSTRUCTIONS], capture_output=True, text=True, check=True
    )
    assert r.stdout.split() == ["0", "36"]
