"""The witness contract shared by every pointwise identity check.

Each checker reports its failures as ``core.Witness`` records produced by
``core.basis_witnesses``: a non-empty check name, 1-based indices with
``j``/``k`` set exactly up to the identity's arity, and two differing
values of length dim.
"""

from __future__ import annotations

import pytest

from bihomtrias import catalog_get, check_axioms, check_multiplicativity
from bihomtrias.centroids import is_centroid_element
from bihomtrias.core import Witness, twist_commutation_witnesses
from bihomtrias.derivations import is_derivation
from bihomtrias.matrices import Matrix
from bihomtrias.scalars import ONE
from bihomtrias.transforms import (
    BiHomAlgebra,
    averaging_check,
    bihom_associativity_witnesses,
    commutator_construct,
    is_morphism,
    rota_baxter_check,
    rota_baxter_check_single,
    transport,
)

# BTas_3^16 fails C0, every product axiom, several multiplicativity checks,
# both commutator identities and the BiHom-associativity of its left product.
A = catalog_get("BTas_3^16").algebra
U = Matrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 0, -1]])  # commutes with neither twist
SINGLE = BiHomAlgebra("left", A.left, A.alpha, A.beta)
SWAP = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])


def _twist_or(arity):
    return lambda w: 1 if w.check.startswith("commute-") else arity


CHECKERS = {
    "check_axioms": (
        lambda: [w for r in check_axioms(A).results for w in r.witnesses],
        lambda w: 1 if w.check == "C0" else 3,
    ),
    "check_multiplicativity": (
        lambda: [w for r in check_multiplicativity(A).results for w in r.witnesses],
        lambda w: 2,
    ),
    "twist_commutation_witnesses": (lambda: twist_commutation_witnesses(A, U), lambda w: 1),
    "is_derivation": (lambda: is_derivation(A, U)[1], _twist_or(2)),
    "is_centroid_element": (lambda: is_centroid_element(A, U)[1], _twist_or(2)),
    "is_morphism": (lambda: is_morphism(U, A, transport(A, SWAP))[1], _twist_or(2)),
    "rota_baxter_check": (lambda: rota_baxter_check(A, U, ONE)[1], _twist_or(2)),
    "rota_baxter_check_single": (
        lambda: rota_baxter_check_single(SINGLE, U, ONE)[1],
        _twist_or(2),
    ),
    "averaging_check": (lambda: averaging_check(A, U)[1], _twist_or(2)),
    "commutator_construct:beta": (lambda: commutator_construct(A).beta_witnesses, lambda w: 3),
    "commutator_construct:alphabeta": (
        lambda: commutator_construct(A).alphabeta_witnesses,
        lambda w: 3,
    ),
    "bihom_associativity_witnesses": (lambda: bihom_associativity_witnesses(SINGLE), lambda w: 3),
}


@pytest.mark.parametrize("checker", sorted(CHECKERS))
def test_witness_contract(checker):
    run, arity_of = CHECKERS[checker]
    witnesses = run()
    assert witnesses, f"{checker} should fail on the chosen input"
    n = A.dim
    for w in witnesses:
        assert isinstance(w, Witness)
        assert isinstance(w.check, str) and w.check
        arity = arity_of(w)
        indices = (w.i, w.j, w.k)
        assert all(1 <= x <= n for x in indices[:arity]), w
        assert all(x is None for x in indices[arity:]), w
        assert len(w.lhs) == n and len(w.rhs) == n
        assert w.lhs != w.rhs


# On BTas_3^2 both maps fail the two identities of the left product at some
# pairs together and at others alone.
B = catalog_get("BTas_3^2").algebra
ORDER_CASES = {
    "is_centroid_element": (
        is_centroid_element(B, Matrix.identity(3))[1],
        ("outer-vs-middle", "middle-vs-outer"),
    ),
    "averaging_check": (
        averaging_check(B, Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]]))[1],
        ("first", "second"),
    ),
}


@pytest.mark.parametrize("checker", sorted(ORDER_CASES))
def test_two_identity_sweeps_come_in_pair_order(checker):
    """Per product the witnesses follow the basis pairs in order, and at a
    pair failing both identities the first-named one comes first."""
    witnesses, halves = ORDER_CASES[checker]
    rank = {h: r for r, h in enumerate(halves)}
    for role in ("left", "right", "middle"):
        ours = [w for w in witnesses if w.check.startswith(role + ":")]
        keys = [(w.i, w.j, rank[w.check.split(":")[1]]) for w in ours]
        assert keys == sorted(keys)
    left = [{(w.i, w.j) for w in witnesses if w.check == f"left:{h}"} for h in halves]
    assert left[0] != left[1] and left[0] & left[1]


def test_centroid_witness_sequence_on_btas_3_2():
    witnesses, _ = ORDER_CASES["is_centroid_element"]
    assert [(w.check, w.i, w.j) for w in witnesses][:5] == [
        ("left:outer-vs-middle", 1, 2),
        ("left:middle-vs-outer", 1, 2),
        ("left:outer-vs-middle", 2, 1),
        ("left:middle-vs-outer", 2, 1),
        ("left:outer-vs-middle", 3, 2),
    ]
