"""Record formats and their round trips."""

import json

import pytest

from wedgeshift import MonomialOrder, ParseError, SetFamily
from wedgeshift.sampling import random_subspace
from wedgeshift.serialize import (
    family_from_record,
    family_record,
    parse_input,
    subspace_from_record,
    subspace_record,
)


class TestFamilyRecords:
    def test_roundtrip(self):
        F = SetFamily(4, 2, ((1, 2), (1, 3)))
        assert family_from_record(family_record(F)) == F

    def test_duplicate_set_rejected(self):
        with pytest.raises(ParseError, match="duplicate set at position 2"):
            family_from_record({"n": 4, "k": 2, "sets": [[1, 2], [2, 1]]})

    def test_missing_field(self):
        with pytest.raises(ParseError, match="missing"):
            family_from_record({"n": 4, "sets": []})

    def test_bad_uniformity(self):
        with pytest.raises(ParseError):
            family_from_record({"n": 4, "k": 2, "sets": [[1, 2, 3]]})


class TestSubspaceRecords:
    def test_roundtrip(self, rng):
        for kind in ("lex", "weight2"):
            order = MonomialOrder(kind, 4, 2)
            V = random_subspace(rng, order, 2)
            assert subspace_from_record(subspace_record(V)) == V

    def test_reading_recanonicalizes(self):
        V = subspace_from_record(
            {"n": 3, "k": 2, "order": "lex", "basis": ["e1^e2 + e2^e3", "e2^e3"]}
        )
        assert [str(r) for r in V.rows] == ["e1^e2", "e2^e3"]

    def test_bad_row_is_positioned(self):
        with pytest.raises(ParseError, match="basis row #2"):
            subspace_from_record({"n": 3, "k": 2, "basis": ["e1^e2", "e1^^e2"]})

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ParseError, match="contract"):
            subspace_from_record({"n": 3, "k": 2, "basis": ["e1"]})

    def test_unknown_order(self):
        with pytest.raises(ParseError, match="order"):
            subspace_from_record({"n": 3, "k": 2, "order": "colex", "basis": []})


class TestParseInput:
    def test_family_literal(self):
        value = parse_input('{"n": 4, "k": 2, "sets": [[1, 2], [1, 3]]}')
        assert isinstance(value, SetFamily) and value.size == 2

    def test_file(self, tmp_path):
        p = tmp_path / "family.json"
        p.write_text(json.dumps({"n": 4, "k": 2, "sets": [[1, 2]]}))
        value = parse_input(str(p))
        assert isinstance(value, SetFamily)

    def test_source_is_inline_json_or_a_path(self):
        with pytest.raises(ParseError, match="cannot read"):
            parse_input("e1^e2")
        with pytest.raises(ParseError, match="inline record is not valid JSON"):
            parse_input('{"n": 3,')

    def test_deep_nesting(self, tmp_path):
        deep = '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"
        p = tmp_path / "deep.json"
        p.write_text(deep)
        for source in (deep, str(p)):
            with pytest.raises(ParseError, match="nests too deeply"):
                parse_input(source)

    def test_unclassifiable_record(self):
        with pytest.raises(ParseError, match="neither"):
            parse_input('{"n": 3}')
