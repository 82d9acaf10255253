"""Exact-arithmetic toolkit for finite-dimensional BiHom-associative trialgebras.

Verify the defining axioms from structure constants, apply the standard
constructions (transport, sums, weighted operators, averaging), compute
derivation and centroid spaces exactly over Q(i), and audit the embedded
low-dimensional classification tables, with machine-readable errata for
table entries that fail recomputation.

``import bihomtrias`` loads ``catalog`` and what building a catalog entry
needs: ``core``, ``matrices``, ``scalars``, ``errors`` and ``reports``.
Every other module (``catalog_data``, ``centroids``, ``cli``,
``coordinate``, ``derivations``, ``documents``, ``transforms``) loads on
first use, when an export it defines or the module itself is read from
the package.  ``catalog`` stays eager because the import-time benchmark
reads its line in ``python -X importtime -c "import bihomtrias"``.
"""

from importlib import import_module

from . import catalog

__version__ = "0.1.0"

# Where each public name and each submodule lives; ``__getattr__`` loads
# the module on first access and caches the value in this namespace.
_HOMES = {
    "catalog": "catalog",
    "catalog_data": "catalog_data",
    "centroids": "centroids",
    "cli": "cli",
    "coordinate": "coordinate",
    "core": "core",
    "derivations": "derivations",
    "documents": "documents",
    "errors": "errors",
    "matrices": "matrices",
    "reports": "reports",
    "scalars": "scalars",
    "transforms": "transforms",
    "CatalogEntry": "catalog",
    "Fingerprint": "catalog",
    "catalog_get": "catalog",
    "catalog_list": "catalog",
    "catalog_verify": "catalog",
    "distinguish": "catalog",
    "fingerprint": "catalog",
    "rota_baxter_example": "catalog",
    "CentroidSpace": "centroids",
    "cent_der_property_suite": "centroids",
    "central_derivations": "centroids",
    "centralizer": "centroids",
    "centroid_space": "centroids",
    "is_centroid_element": "centroids",
    "AxiomReport": "core",
    "BiHomTrialgebra": "core",
    "MulTensor": "core",
    "check_axioms": "core",
    "check_multiplicativity": "core",
    "full_report": "core",
    "zero_algebra": "core",
    "DerivationSpace": "derivations",
    "derivation_space": "derivations",
    "is_derivation": "derivations",
    "parse_algebra": "documents",
    "parse_operator": "documents",
    "serialize_algebra": "documents",
    "serialize_operator": "documents",
    "BihomtriasError": "errors",
    "DimensionError": "errors",
    "DimensionMismatch": "errors",
    "ParseError": "errors",
    "PreconditionFailed": "errors",
    "SingularMatrix": "errors",
    "UnknownId": "errors",
    "Matrix": "matrices",
    "inverse": "matrices",
    "nullspace": "matrices",
    "rank": "matrices",
    "rref": "matrices",
    "Scalar": "scalars",
    "format_scalar": "scalars",
    "parse_scalar": "scalars",
    "BiHomAlgebra": "transforms",
    "averaging_check": "transforms",
    "averaging_induced": "transforms",
    "commutator_construct": "transforms",
    "direct_sum": "transforms",
    "graph_subalgebra_check": "transforms",
    "is_morphism": "transforms",
    "rb_induced": "transforms",
    "rota_baxter_check": "transforms",
    "sum_middle_right": "transforms",
    "swap_maps": "transforms",
    "total_sum": "transforms",
    "transport": "transforms",
    "untwist": "transforms",
}

# The names ``from bihomtrias import *`` binds: every entry of _HOMES
# that is not a submodule.
__all__ = [
    "CatalogEntry", "Fingerprint", "catalog_get", "catalog_list", "catalog_verify",
    "distinguish", "fingerprint", "rota_baxter_example",
    "CentroidSpace", "cent_der_property_suite", "central_derivations", "centralizer",
    "centroid_space", "is_centroid_element",
    "AxiomReport", "BiHomTrialgebra", "MulTensor", "check_axioms",
    "check_multiplicativity", "full_report", "zero_algebra",
    "DerivationSpace", "derivation_space", "is_derivation",
    "parse_algebra", "parse_operator", "serialize_algebra", "serialize_operator",
    "BihomtriasError", "DimensionError", "DimensionMismatch", "ParseError",
    "PreconditionFailed", "SingularMatrix", "UnknownId",
    "Matrix", "inverse", "nullspace", "rank", "rref",
    "Scalar", "format_scalar", "parse_scalar",
    "BiHomAlgebra", "averaging_check", "averaging_induced", "commutator_construct",
    "direct_sum", "graph_subalgebra_check", "is_morphism", "rb_induced",
    "rota_baxter_check", "sum_middle_right", "swap_maps", "total_sum", "transport",
    "untwist",
]


def __getattr__(name):
    """Load the module a public name or submodule lives in (PEP 562)."""
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = import_module(f"{__name__}.{home}")
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES))
