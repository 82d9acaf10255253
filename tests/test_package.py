"""Import-surface sanity for the public package namespace, and the
exception each malformed call documents."""

import subprocess
import sys
import textwrap

import pytest

import bihomtrias
from bihomtrias import (
    BiHomAlgebra,
    BiHomTrialgebra,
    DimensionMismatch,
    Matrix,
    MulTensor,
    ParseError,
    Scalar,
    zero_algebra,
)
from bihomtrias.matrices import zero_vec


def test_public_names_resolve():
    names = [
        "Scalar", "Matrix", "rref", "nullspace", "inverse",
        "MulTensor", "BiHomTrialgebra",
        "check_axioms", "check_multiplicativity",
        "parse_algebra", "serialize_algebra", "parse_operator", "serialize_operator",
        "is_morphism", "transport", "untwist", "direct_sum",
        "graph_subalgebra_check", "rota_baxter_check", "rb_induced",
        "swap_maps", "sum_middle_right", "commutator_construct", "total_sum",
        "averaging_check", "averaging_induced",
        "is_derivation", "derivation_space",
        "centralizer", "is_centroid_element", "centroid_space",
        "central_derivations", "cent_der_property_suite",
        "catalog_get", "catalog_list", "catalog_verify",
        "fingerprint", "distinguish",
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


A2 = zero_algebra(2)
T2, T3 = MulTensor.zero(2), MulTensor.zero(3)
I2, I3 = Matrix.identity(2), Matrix.identity(3)
M23, M32 = Matrix.zeros(2, 3), Matrix.zeros(3, 2)


@pytest.mark.parametrize("error, match, call", [
    pytest.param(DimensionMismatch, "tensor is not 1x1x1",
                 lambda: MulTensor([[[0, 0], [0, 0]]]), id="MulTensor shape"),
    pytest.param(DimensionMismatch, "must be square, got 2x3",
                 lambda: bihomtrias.core.LinearMap(M23), id="LinearMap non-square"),
    pytest.param(DimensionMismatch, "must be square, got 2x3",
                 lambda: BiHomTrialgebra("x", T2, T2, T2, M23, I2), id="BiHomTrialgebra non-square"),
    pytest.param(DimensionMismatch, "must be square, got 2x3",
                 lambda: bihomtrias.is_derivation(A2, M23), id="is_derivation non-square"),
    pytest.param(DimensionMismatch, "must be square, got 1x4",
                 lambda: bihomtrias.centroids.is_central_derivation(A2, Matrix.zeros(1, 4)),
                 id="is_central_derivation non-square"),
    pytest.param(DimensionMismatch, "central derivation candidate",
                 lambda: bihomtrias.centroids.is_central_derivation(A2, I3),
                 id="is_central_derivation"),
    pytest.param(DimensionMismatch, "must be square, got 2x3",
                 lambda: bihomtrias.serialize_operator(M23), id="serialize_operator non-square"),
    pytest.param(DimensionMismatch, "right tensor has dim 3",
                 lambda: BiHomTrialgebra("x", T2, T3, T2, I2, I2), id="BiHomTrialgebra tensor"),
    pytest.param(DimensionMismatch, "twisting map",
                 lambda: BiHomTrialgebra("x", T2, T2, T2, I2, I3), id="BiHomTrialgebra twist"),
    pytest.param(DimensionMismatch, "component", lambda: BiHomAlgebra("x", T2, I2, I3),
                 id="BiHomAlgebra"),
    pytest.param(ValueError, "unknown product role", lambda: A2.tensor("bogus"),
                 id="tensor role"),
    pytest.param(DimensionMismatch, "centralizer generator",
                 lambda: bihomtrias.centralizer(A2, [zero_vec(3)]), id="centralizer"),
    pytest.param(DimensionMismatch, "centroid candidate",
                 lambda: bihomtrias.is_centroid_element(A2, I3), id="is_centroid_element"),
    pytest.param(ValueError, "'alpha-beta' or 'literal', got 'literl'",
                 lambda: bihomtrias.is_centroid_element(A2, I2, right_chain="literl"),
                 id="is_centroid_element right_chain"),
    pytest.param(DimensionMismatch, "transport map", lambda: bihomtrias.transport(A2, I3),
                 id="transport"),
    pytest.param(DimensionMismatch, "graph check",
                 lambda: bihomtrias.graph_subalgebra_check(I3, A2, A2), id="graph check"),
    pytest.param(DimensionMismatch, "operator dimension",
                 lambda: bihomtrias.rota_baxter_check(A2, I3, Scalar(1)), id="rota_baxter_check"),
    pytest.param(DimensionMismatch, "operator dimension",
                 lambda: bihomtrias.averaging_check(A2, I3), id="averaging_check"),
    pytest.param(DimensionMismatch, "expected 4 entries, got 3",
                 lambda: Matrix(2, 2, [0, 0, 0]), id="Matrix entry count"),
    pytest.param(DimensionMismatch, "ragged rows", lambda: Matrix.from_rows([[0, 0], [0]]),
                 id="Matrix ragged rows"),
    pytest.param(DimensionMismatch, "cannot multiply 2x3 by 2x3", lambda: M23 @ M23,
                 id="Matrix matmul"),
    pytest.param(DimensionMismatch, "vector length 2 != cols 3", lambda: M23.apply(zero_vec(2)),
                 id="Matrix apply"),
    pytest.param(DimensionMismatch, "shape 2x3 != 3x2", lambda: M23 + M32, id="Matrix add"),
    pytest.param(DimensionMismatch, "shape 2x3 != 3x2", lambda: M23 - M32, id="Matrix sub"),
    pytest.param(DimensionMismatch, "non-square", lambda: bihomtrias.inverse(M23),
                 id="inverse non-square"),
    pytest.param(ParseError, "non-empty array", lambda: bihomtrias.parse_operator("[]"),
                 id="parse_operator empty"),
    pytest.param(ParseError, "must be a string", lambda: bihomtrias.parse_scalar(3),
                 id="parse_scalar int"),
    pytest.param(TypeError, "cannot coerce str", lambda: Scalar(1) + "1", id="Scalar plus str"),
])
def test_malformed_call_raises_its_documented_exception(error, match, call):
    with pytest.raises(error, match=match):
        call()
