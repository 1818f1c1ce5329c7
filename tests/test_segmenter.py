"""Connected-component segmentation and candidate-list tests."""

import json
import random

import pytest
from conftest import closure_oracle, enumerate_tuples

from entlink.fixtures import doc_from_spans, home_depot_document, random_mention_document, toy_index
from entlink.kb_store import NIL
from entlink.segmenter import (
    DocumentError,
    MentionDocument,
    connected_components,
    load_documents,
)


class TestDocumentParsing:
    def test_surface_derived_from_byte_slice(self):
        doc = home_depot_document()
        assert [m.surface for m in doc.mentions] == ["Home Depot", "Nardelli"]

    def test_mentions_sorted(self):
        record = {
            "doc_id": "d",
            "text": "alpha beta gamma",
            "mentions": [
                {"id": "b", "start": 6, "end": 10},
                {"id": "a", "start": 0, "end": 5},
            ],
        }
        doc = MentionDocument.from_record(record)
        assert [m.id for m in doc.mentions] == ["a", "b"]

    def test_bad_offsets_rejected(self):
        record = {"doc_id": "d", "text": "short", "mentions": [{"id": "m", "start": 0, "end": 99}]}
        with pytest.raises(DocumentError):
            MentionDocument.from_record(record)

    def test_split_utf8_span_rejected(self):
        record = {"doc_id": "d", "text": "李娜", "mentions": [{"id": "m", "start": 0, "end": 2}]}
        with pytest.raises(DocumentError):
            MentionDocument.from_record(record)

    def test_duplicate_mention_id_rejected(self):
        record = {
            "doc_id": "d",
            "text": "Home Depot CEO Nardelli quits",
            "mentions": [{"id": "m1", "start": 0, "end": 10}, {"id": "m1", "start": 15, "end": 23}],
        }
        with pytest.raises(DocumentError, match="duplicate mention id 'm1'"):
            MentionDocument.from_record(record)

    def test_duplicate_doc_id_rejected(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        record = {"doc_id": "d", "text": "Atlanta", "mentions": [{"id": "m", "start": 0, "end": 7}]}
        path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(DocumentError, match="duplicate doc_id 'd'"):
            load_documents(str(path))


class TestConnectedComponents:
    def test_home_depot_single_component(self):
        doc = home_depot_document()
        components = connected_components(doc, gap=4)
        assert len(components) == 1
        assert [m.id for m in components[0].mentions] == ["m1", "m2"]

    def test_distant_mentions_split(self):
        text = "A w w w w w w w w w w B"
        doc = doc_from_spans("d", text, [("m1", "A", None), ("m2", "B", None)])
        components = connected_components(doc, gap=4)
        assert [[m.id for m in c.mentions] for c in components] == [["m1"], ["m2"]]

    def test_transitive_closure_chains(self):
        # A..B and B..C are 3 tokens apart; A..C is 7, linked transitively
        text = "A a1 a2 a3 B b1 b2 b3 C"
        doc = doc_from_spans("d", text, [("a", "A", None), ("b", "B", None), ("c", "C", None)])
        components = connected_components(doc, gap=4)
        assert len(components) == 1
        assert closure_oracle(doc, 4) == {frozenset({"a", "b", "c"})}

    def test_overlapping_spans_distance_zero(self):
        record = {
            "doc_id": "d",
            "text": "New York City marathon",
            "mentions": [
                {"id": "outer", "start": 0, "end": 13},
                {"id": "inner", "start": 4, "end": 13},
            ],
        }
        doc = MentionDocument.from_record(record)
        components = connected_components(doc, gap=0)
        assert len(components) == 1

    def test_gap_zero_requires_adjacency(self):
        text = "A filler B"
        doc = doc_from_spans("d", text, [("m1", "A", None), ("m2", "B", None)])
        assert len(connected_components(doc, gap=0)) == 2
        assert len(connected_components(doc, gap=1)) == 1

    def test_empty_document(self):
        doc = MentionDocument(doc_id="d", text="no mentions here", mentions=[])
        assert connected_components(doc) == []

    def test_partition_property_random(self):
        rng = random.Random(11)
        for i in range(25):
            doc = random_mention_document(rng, f"doc{i}", max_mentions=15)
            components = connected_components(doc, gap=4)
            seen = [m.id for c in components for m in c.mentions]
            assert sorted(seen) == sorted(m.id for m in doc.mentions)
            assert len(set(seen)) == len(seen)

    def test_matches_closure_oracle_random(self):
        """Spans of 1-4 words, nested ones and ones cut inside a word, at
        every gap from 0 to 6; each component is a contiguous run of the
        sorted mentions."""
        rng = random.Random(23)
        for i in range(400):
            doc = random_mention_document(rng, f"doc{i}", max_words=40, max_mentions=12)
            gap = rng.randint(0, 6)
            components = connected_components(doc, gap)
            assert {frozenset(m.id for m in c.mentions) for c in components} == closure_oracle(doc, gap)
            assert [m for c in components for m in c.mentions] == doc.mentions

    def test_nested_span_keeps_the_furthest_end(self):
        """`after` is next to `long` but 5 tokens past `inner`, the mention
        with the latest start before it."""
        record = {
            "doc_id": "d",
            "text": "a b c d e f g h i j k l",
            "mentions": [
                {"id": "long", "start": 0, "end": 13},
                {"id": "inner", "start": 2, "end": 3},
                {"id": "after", "start": 14, "end": 15},
            ],
        }
        doc = MentionDocument.from_record(record)
        assert [[m.id for m in c.mentions] for c in connected_components(doc, gap=0)] == [["long", "inner", "after"]]
        assert closure_oracle(doc, 0) == {frozenset({"long", "inner", "after"})}


class TestEnumerateTuples:
    def test_product_size(self):
        index = toy_index()
        doc = home_depot_document()
        (component,) = connected_components(doc, gap=4)
        # 'Home Depot' has 1 KB candidate + NIL; 'Nardelli' has 2 + NIL
        tuples = enumerate_tuples(component, index, k=40)
        assert len(tuples) == 2 * 3
        assert all(len(t) == 2 for t in tuples)

    def test_singleton_without_hits_yields_nil_tuple(self):
        index = toy_index()
        doc = doc_from_spans("d", "zzzunknown went home", [("m", "zzzunknown", None)])
        (component,) = connected_components(doc, gap=4)
        tuples = enumerate_tuples(component, index, k=40)
        assert len(tuples) == 1
        assert tuple(c.entity_id for c in tuples[0]) == (NIL,)

    def test_invalid_arguments(self):
        index = toy_index()
        doc = home_depot_document()
        (component,) = connected_components(doc, gap=4)
        with pytest.raises(ValueError):
            enumerate_tuples(component, index, k=0)
