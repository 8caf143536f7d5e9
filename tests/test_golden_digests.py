"""Every golden-digest cell reproduces its pinned digest.

``tests/golden_digests.py`` defines the cells and the hash chain;
``tests/golden_digests.json`` holds the digests recorded from the
cache-disabled reference implementation.  The scale, single-path,
attacked-line, zoo and full-stack matrix cells are checked by the named
tests in ``test_soa.py`` and ``test_full_stack_matrix.py``; this file
checks the remaining cells (tree formation, the e2e ``chaos`` cell, the
attacked scale legs and the pairwise-key deployments; the explicit-ring
revocation cells belong to ``test_soa.py``'s revocation parity test).
:func:`~tests.golden_digests.assert_pinned` runs each with the perf caches warm and with every cache bypassed
(:func:`repro.perf.cache.disabled`).  The CI ``matrix-nocache`` job
re-runs every cell with ``REPRO_DISABLE_PERF_CACHES=1`` to cover the
env-var path.
"""

from __future__ import annotations

import pytest

from tests.golden_digests import CELLS, DigestChain, assert_pinned, load_digests

UNNAMED_CELLS = sorted(
    name
    for name in CELLS
    if name.startswith(("tree-", "scale-attacked-", "pairwise-")) or name == "e2e-chaos"
)


@pytest.mark.parametrize("cell", UNNAMED_CELLS)
def test_cell_matches_pinned_digest(cell):
    assert_pinned(cell)


def test_every_cell_is_pinned_and_every_pin_has_a_cell():
    assert set(CELLS) == set(load_digests())


def test_chain_sees_order_and_exact_floats():
    def digest(*records):
        chain = DigestChain()
        for tag, value in records:
            chain.add(tag, value)
        return chain.hexdigest()

    base = digest(("a", 1), ("b", 0.1))
    assert base == digest(("a", 1), ("b", 0.1))
    assert base != digest(("b", 0.1), ("a", 1))
    assert base != digest(("a", 1), ("b", 0.1 + 2**-55))
    assert digest(("m", {1: 2, 3: 4})) == digest(("m", {3: 4, 1: 2}))
