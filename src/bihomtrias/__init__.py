"""Exact-arithmetic toolkit for finite-dimensional BiHom-associative trialgebras.

Verify the defining axioms from structure constants, apply the standard
constructions (transport, sums, weighted operators, averaging), compute
derivation and centroid spaces exactly over Q(i), and audit the embedded
low-dimensional classification tables, with machine-readable errata for
table entries that fail recomputation.
"""

from .catalog import (
    CatalogEntry,
    Fingerprint,
    catalog_get,
    catalog_list,
    catalog_verify,
    distinguish,
    fingerprint,
    rota_baxter_example,
)
from .centroids import (
    CentroidSpace,
    cent_der_property_suite,
    central_derivations,
    centralizer,
    centroid_space,
    is_centroid_element,
)
from .core import (
    AxiomReport,
    BiHomTrialgebra,
    MulTensor,
    check_axioms,
    check_multiplicativity,
    full_report,
    zero_algebra,
)
from .derivations import DerivationSpace, derivation_space, is_derivation
from .documents import (
    parse_algebra,
    parse_operator,
    serialize_algebra,
    serialize_operator,
)
from .errors import (
    BihomtriasError,
    DimensionError,
    DimensionMismatch,
    ParseError,
    PreconditionFailed,
    SingularMatrix,
    UnknownId,
)
from .matrices import Matrix, inverse, nullspace, rank, rref
from .scalars import Scalar, format_scalar, parse_scalar
from .transforms import (
    BiHomAlgebra,
    averaging_check,
    averaging_induced,
    commutator_construct,
    direct_sum,
    graph_subalgebra_check,
    is_morphism,
    rb_induced,
    rota_baxter_check,
    sum_middle_right,
    swap_maps,
    total_sum,
    transport,
    untwist,
)

__version__ = "0.1.0"
