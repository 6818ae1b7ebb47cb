"""Combinations of engine modes must compose without changing exactness."""

import numpy as np
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from repro.core.config import SigmoConfig
from repro.core.engine import find_all
from repro.runtime import run_resilient
from tests.conftest import random_case


def oracle(q, d, induced):
    gm = GraphMatcher(
        d.to_networkx(), q.to_networkx(),
        node_match=lambda a, b: a["label"] == b["label"],
        edge_match=lambda a, b: a["label"] == b["label"],
    )
    it = gm.subgraph_isomorphisms_iter() if induced else gm.subgraph_monomorphisms_iter()
    return sum(1 for _ in it)


@pytest.mark.parametrize("induced", [False, True])
@pytest.mark.parametrize("edge_signatures", [False, True])
@pytest.mark.parametrize("word_bits", [32, 64])
class TestModeMatrix:
    def test_exact_under_all_combinations(self, rng, induced, edge_signatures, word_bits):
        cfg = SigmoConfig(
            induced=induced,
            edge_signatures=edge_signatures,
            word_bits=word_bits,
            refinement_iterations=3,
        )
        for _ in range(5):
            q, d, _ = random_case(rng)
            assert find_all([q], [d], cfg).total_matches == oracle(q, d, induced)


class TestChunkedCombinations:
    def test_chunked_induced_edge_aware(self, rng):
        cfg = SigmoConfig(induced=True, edge_signatures=True)
        cases = [random_case(rng) for _ in range(6)]
        queries = [c[0] for c in cases[:2]]
        data = [c[1] for c in cases]
        full = find_all(queries, data, cfg).total_matches
        chunked = run_resilient(queries, data, 2, config=cfg).total_matches
        assert full == chunked

    def test_wildcards_with_edge_signatures_and_chunking(self):
        from repro.chem.smarts import pattern_from_smarts, wildcard_config
        from repro.chem.smiles import mol_from_smiles

        mols = [
            mol_from_smiles(s).graph()
            for s in ("CC(=O)Oc1ccccc1", "CCN", "O=S(=O)(N)c1ccccc1")
        ]
        pattern = pattern_from_smarts("*~C(=O)*")
        cfg_plain = wildcard_config()
        cfg_full = wildcard_config(edge_signatures=True)
        base = find_all([pattern], mols, cfg_plain).total_matches
        assert find_all([pattern], mols, cfg_full).total_matches == base
        assert run_resilient([pattern], mols, 1, config=cfg_full).total_matches == base
