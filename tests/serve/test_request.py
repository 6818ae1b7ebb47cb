"""The compact ``MatchResponse.matches`` sequence."""

import json

import numpy as np
import pytest

from repro.serve import STATUS_COMPLETE, MatchPairs, MatchResponse

pytestmark = pytest.mark.serve

PAIRS = [(0, 3), (0, 5), (2, 1), (4, 0)]


class TestMatchPairs:
    def test_behaves_like_the_list_of_pairs(self):
        pairs = MatchPairs(PAIRS)
        assert len(pairs) == 4 and pairs
        assert list(pairs) == PAIRS
        assert sorted(MatchPairs(PAIRS[::-1])) == PAIRS
        assert set(pairs) == set(PAIRS)
        assert pairs[2] == (2, 1) and pairs[-1] == (4, 0)
        assert list(pairs[1:3]) == PAIRS[1:3]
        assert (0, 5) in pairs and (5, 0) not in pairs
        assert pairs.index((2, 1)) == 2
        out = [(9, 9)]
        out.extend(pairs)
        assert out == [(9, 9), *PAIRS]
        assert all(type(v) is int for pair in pairs for v in pair)

    def test_empty(self):
        for empty in (MatchPairs(), MatchPairs([]), MatchPairs(np.empty((0, 2)))):
            assert len(empty) == 0 and not empty
            assert list(empty) == [] and empty.tolist() == []

    def test_equality(self):
        assert MatchPairs(PAIRS) == MatchPairs(PAIRS)
        assert MatchPairs(PAIRS) == PAIRS
        assert MatchPairs(PAIRS) != MatchPairs(PAIRS[:2])
        assert MatchPairs(PAIRS) != PAIRS[::-1]

    def test_immutable_and_independent_of_its_source(self):
        source = np.array(PAIRS, dtype=np.int32)
        pairs = MatchPairs(source)
        source[0] = (7, 7)
        assert pairs[0] == (0, 3)
        with pytest.raises(ValueError):
            pairs._pairs[0, 0] = 1
        with pytest.raises(TypeError):
            pairs[0] = (1, 1)

    def test_eight_bytes_per_pair(self):
        pairs = MatchPairs(np.arange(2000).reshape(-1, 2))
        assert pairs._pairs.nbytes == 8 * len(pairs)


class TestMatchResponse:
    def test_lists_are_converted(self):
        response = MatchResponse(seq=1, status=STATUS_COMPLETE, matches=PAIRS)
        assert isinstance(response.matches, MatchPairs)
        assert sorted(response.matches) == PAIRS
        assert isinstance(MatchResponse(seq=2, status=STATUS_COMPLETE).matches, MatchPairs)

    def test_to_dict_is_json_ready(self):
        response = MatchResponse(seq=1, status=STATUS_COMPLETE, matches=PAIRS)
        payload = json.loads(json.dumps(response.to_dict()))
        assert payload["matches"] == [list(p) for p in PAIRS]
