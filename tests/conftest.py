"""Shared fixtures.

Catalog entries are built once per process, and each algebra keeps its
analyses (``core.per_algebra``) as long as it lives.  Timed tests and
repeat-and-compare tests ask for ``cold_catalog`` so that they measure
and compare a recomputation, not a memo hit left by an earlier test.
"""

import pytest

from bihomtrias.catalog import catalog_get, catalog_list


def clear_catalog_memos():
    """Drop the cached analyses of every catalog algebra and candidate."""
    for entry_id in catalog_list():
        entry = catalog_get(entry_id)
        for algebra in (entry.algebra, *(alg for _, alg in entry.candidates)):
            algebra._memo.clear()


@pytest.fixture
def cold_catalog():
    """Start the test with no cached catalog analyses; the fixture value
    clears them again when called."""
    clear_catalog_memos()
    return clear_catalog_memos
