"""Import-surface sanity for the public package namespace, the modules
each command loads, and the exception each malformed call documents."""

import json
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
from bihomtrias.documents import serialize_algebra, serialize_operator
from bihomtrias.matrices import zero_vec

SUBMODULES = (
    "catalog", "catalog_data", "centroids", "cli", "coordinate", "core", "derivations",
    "documents", "errors", "matrices", "reports", "scalars", "transforms",
)
# What ``import bihomtrias`` loads: the catalog and what building an entry needs.
AT_IMPORT = {"catalog", "core", "errors", "matrices", "reports", "scalars"}


def fresh(*argv):
    """Run the interpreter with ``argv`` in a new process; return it completed."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, check=True)


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


NAMESPACE = textwrap.dedent("""
    from importlib import import_module

    import bihomtrias

    homes = bihomtrias._HOMES
    exports = {name for name, home in homes.items() if name != home}
    assert sorted(exports) == sorted(bihomtrias.__all__), "__all__ and _HOMES disagree"
    for name in bihomtrias.__all__:
        module = import_module(f"bihomtrias.{homes[name]}")
        assert getattr(bihomtrias, name) is getattr(module, name), name
    star = {}
    exec("from bihomtrias import *", star)
    assert all(star[name] is getattr(bihomtrias, name) for name in bihomtrias.__all__)
    print(len(bihomtrias.__all__))
""")


def test_every_export_is_its_module_attribute():
    """In a fresh interpreter each ``__all__`` name resolves to the object
    its module defines, and a star import binds all of them."""
    assert fresh("-c", NAMESPACE).stdout.split() == [str(len(bihomtrias.__all__))]


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_resolves_without_an_import(name):
    code = f"import bihomtrias, sys; print(bihomtrias.{name} is sys.modules['bihomtrias.{name}'])"
    assert fresh("-c", code).stdout.split() == ["True"]
    assert bihomtrias.__getattr__(name) is getattr(bihomtrias, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        bihomtrias.__getattr__("no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(bihomtrias, "no_such_name")


def test_dir_lists_unloaded_names():
    listed = bihomtrias.__dir__()
    assert set(bihomtrias.__all__) | set(SUBMODULES) <= set(listed)
    assert listed == sorted(dir(bihomtrias))


def test_import_time_shows_the_catalog_and_no_deferred_module():
    """``python -X importtime -c "import bihomtrias"`` reports a line for
    ``bihomtrias.catalog`` (the traced benchmark reads it) and none for a
    module that loads on first use."""
    err = fresh("-X", "importtime", "-c", "import bihomtrias").stderr
    loaded = {
        line.rpartition("|")[2].strip()
        for line in err.splitlines()
        if line.startswith("import time:")
    }
    assert "bihomtrias.catalog" in loaded
    assert {f"bihomtrias.{m}" for m in SUBMODULES} & loaded == {
        f"bihomtrias.{m}" for m in AT_IMPORT
    }


RUN_CLI_AS_MAIN = textwrap.dedent("""
    import json, runpy, sys

    sys.argv = ["bihomtrias", *sys.argv[1:]]
    try:
        runpy.run_module("bihomtrias.cli", run_name="__main__", alter_sys=True)
    except SystemExit as e:
        code = e.code
    loaded = sorted(m.partition(".")[2] for m in sys.modules if m.startswith("bihomtrias."))
    print(json.dumps([code, loaded]), file=sys.stderr)
""")


@pytest.fixture
def documents_dir(tmp_path):
    algebra = serialize_algebra(bihomtrias.catalog_get("BTas_2^1").algebra)
    (tmp_path / "a.json").write_text(algebra)
    (tmp_path / "psi.json").write_text(serialize_operator(Matrix.from_rows([[1, 1], [0, 1]])))
    bad = json.loads(algebra)
    bad["alpha"][0][0] = "1/0"
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    return tmp_path


# The modules each command loads beyond AT_IMPORT and ``documents``; ``cli``
# runs as ``__main__``, so sys.modules does not list it under its own name.
@pytest.mark.parametrize("argv, status, extra", [
    (["verify", "a.json"], 0, set()),
    (["verify", "bad.json"], 2, set()),
    (["der", "a.json"], 0, {"derivations"}),
    (["cent", "a.json"], 0, {"derivations", "centroids"}),
    (["catalog", "get", "BTas_2^1"], 0, {"catalog_data"}),
    (["construct", "direct-sum", "a.json", "a.json", "-o", "sum.json"], 0, {"transforms"}),
    (["construct", "transport", "a.json", "--map", "psi.json", "-o", "moved.json"], 0,
     {"transforms"}),
], ids=["verify", "malformed", "der", "cent", "catalog-get", "direct-sum", "transport"])
def test_command_loads_only_the_modules_it_uses(documents_dir, argv, status, extra):
    paths = [str(documents_dir / a) if a.endswith(".json") else a for a in argv]
    r = fresh("-c", RUN_CLI_AS_MAIN, "--format", "structured", *paths)
    code, loaded = json.loads(r.stderr.splitlines()[-1])
    assert code == status
    assert set(loaded) == AT_IMPORT | {"documents"} | extra


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
