"""Feature-function tests against hand-computed values on small KBs."""

import random
import sys
import threading

import numpy as np
import pytest
from conftest import oracle_relation_frequencies, permuted_registry
from hypothesis import given, settings
from hypothesis import strategies as st

from entlink.features import (
    BOOLEAN_FEATURES,
    PAIR_FEATURES,
    FeatureExtractor,
    FeatureRegistry,
    PmiTable,
    contiguous_matches,
    count_contiguous,
    default_registry,
    jaccard,
    train_pmi,
)
from entlink.fixtures import doc_from_spans, home_depot_document, toy_documents, toy_index, toy_kb_entries
from entlink.kb_store import NIL, Candidate, KbEntry, build_index
from entlink.segmenter import connected_components
from entlink.text_vsm import cosine, term_freq, tokenize, words


@pytest.fixture(scope="module")
def toy():
    index = toy_index()
    extractor = FeatureExtractor(index)
    return index, extractor


def feature(extractor, vec, name):
    return vec[extractor.registry.index(name)]


class TestRegistry:
    def test_default_registry_size_and_uniqueness(self):
        registry = default_registry()
        assert len(registry) == 24
        assert len(set(registry.names)) == 24

    def test_round_trip(self):
        registry = default_registry()
        assert FeatureRegistry(list(registry.names)) == registry

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            FeatureRegistry(["a", "a"])

    @pytest.mark.parametrize("registry", [default_registry(), permuted_registry()], ids=["default", "permuted"])
    def test_column_groups_split_the_registry(self, registry):
        """The unary, pair and boolean columns are named by the features in
        them, whatever the registry order, and split its columns 16/5/3."""
        groups = (registry.unary_indices, registry.pair_indices, registry.boolean_indices)
        assert [g.size for g in groups] == [16, 5, 3]
        assert sorted(np.concatenate(groups).tolist()) == list(range(24))
        assert all(np.all(np.diff(g) > 0) for g in groups)
        names = [{registry.names[i] for i in g} for g in groups]
        assert names[1] == set(PAIR_FEATURES) and names[2] == BOOLEAN_FEATURES

    def test_partial_vectors_fill_only_their_columns(self, toy):
        """On the toy documents, mention partials are zero in the pair
        columns, and pair partials are zero outside them."""
        index, extractor = toy
        registry = extractor.registry
        outside_pairs = np.setdiff1d(np.arange(len(registry)), registry.pair_indices)
        ids = set()
        for doc in toy_documents():
            view = extractor.document_view(doc)
            for m in doc.mentions:
                for c in index.fast_search(m.surface, 5):
                    ids.add(c.entity_id)
                    assert np.all(extractor.mention_entity_features(m, c, view)[registry.pair_indices] == 0.0)
        assert len(ids) > 3
        for a in sorted(ids):
            for b in sorted(ids):
                assert np.all(extractor.entity_entity_features(a, b)[outside_pairs] == 0.0)


class TestHelpers:
    def test_jaccard(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1.0
        assert jaccard({"a"}, {"b"}) == 0.0
        assert jaccard(set(), {"a"}) == 0.0
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_count_contiguous(self):
        hay = ("a", "b", "a", "b", "a")
        assert count_contiguous(("a", "b"), hay) == 2
        assert count_contiguous(("b", "a"), hay) == 2
        assert count_contiguous(("a",), hay) == 3
        assert count_contiguous(("z",), hay) == 0
        assert count_contiguous((), hay) == 0

    @given(
        needle=st.lists(st.sampled_from("ab"), max_size=3).map(tuple),
        haystack=st.lists(st.sampled_from("abc"), max_size=12).map(tuple),
    )
    def test_contiguous_matches_every_start_position(self, needle, haystack):
        n = len(needle)
        expected = [i for i in range(len(haystack)) if n and haystack[i:i + n] == needle]
        assert list(contiguous_matches(needle, haystack)) == expected


class TestMentionEntityFeatures:
    def test_match_all_on_exact_title(self, toy):
        index, extractor = toy
        doc = home_depot_document()
        view = extractor.document_view(doc)
        m1 = doc.mentions[0]
        vec = extractor.mention_entity_features(m1, Candidate("HOME_DEPOT", 1.0), view)
        assert feature(extractor, vec, "match_all_title") == 1.0
        assert feature(extractor, vec, "exact_match_redirect") == 0.0
        assert feature(extractor, vec, "link_prior") == 1.0
        assert len(vec) == len(extractor.registry)
        assert np.all(np.isfinite(vec))

    def test_exact_match_redirect(self, toy):
        index, extractor = toy
        doc = doc_from_spans("d", "Bob Nardelli spoke", [("m", "Bob Nardelli", None)])
        view = extractor.document_view(doc)
        vec = extractor.mention_entity_features(
            doc.mentions[0], Candidate("ROBERT_NARDELLI", 0.5), view
        )
        assert feature(extractor, vec, "exact_match_redirect") == 1.0
        assert feature(extractor, vec, "match_all_title") == 0.0

    def test_match_acronym(self, toy):
        index, extractor = toy
        doc = doc_from_spans("d", "ABC aired the show", [("m", "ABC", None)])
        view = extractor.document_view(doc)
        vec = extractor.mention_entity_features(doc.mentions[0], Candidate("ABC_NETWORK", 0.0), view)
        assert feature(extractor, vec, "match_acronym") == 1.0

    def test_match_acronym_through_a_redirect(self, toy):
        index, extractor = toy
        # the initials of the redirect "ABC television network", not of the title
        doc = doc_from_spans("d", "ATN aired the show", [("m", "ATN", None)])
        view = extractor.document_view(doc)
        vec = extractor.mention_entity_features(doc.mentions[0], Candidate("ABC_NETWORK", 0.0), view)
        assert feature(extractor, vec, "match_acronym") == 1.0

    def test_acronym_requires_all_caps(self, toy):
        index, extractor = toy
        doc = doc_from_spans("d", "Abc aired the show", [("m", "Abc", None)])
        view = extractor.document_view(doc)
        vec = extractor.mention_entity_features(doc.mentions[0], Candidate("ABC_NETWORK", 0.0), view)
        assert feature(extractor, vec, "match_acronym") == 0.0

    def test_nil_candidate_sets_only_nil_indicator(self, toy):
        index, extractor = toy
        doc = home_depot_document()
        view = extractor.document_view(doc)
        vec = extractor.mention_entity_features(doc.mentions[0], Candidate(NIL, 0.0), view)
        nil_slot = extractor.registry.index("nil_frequency")
        expected = np.zeros(len(extractor.registry))
        expected[nil_slot] = 1.0
        assert np.array_equal(vec, expected)

    def test_unknown_entity_keeps_kb_features_zero(self, toy):
        index, extractor = toy
        doc = home_depot_document()
        view = extractor.document_view(doc)
        vec = extractor.mention_entity_features(doc.mentions[0], Candidate("GHOST", 0.25), view)
        assert feature(extractor, vec, "link_prior") == 0.25
        others = [i for i in range(len(vec)) if i != extractor.registry.index("link_prior")]
        assert np.all(vec[others] == 0.0)

    def test_cosine_feature_matches_independent_computation(self, toy):
        index, extractor = toy
        doc = home_depot_document()
        view = extractor.document_view(doc)
        m1 = doc.mentions[0]
        vec = extractor.mention_entity_features(m1, Candidate("HOME_DEPOT", 1.0), view)
        expected = cosine(
            term_freq(t.text for t in tokenize(index.entries["HOME_DEPOT"].text)),
            term_freq(t.text for t in tokenize(m1.surface)),
        )
        assert feature(extractor, vec, "cos_text_text") == pytest.approx(expected, abs=1e-12)
        assert expected > 0.0

    def test_category_frequency_in_context(self):
        entries = [
            KbEntry(
                id="ALI",
                title="Ali Quimico",
                text="Ali Quimico fue un militar y ministro .",
                categories=frozenset({"Políticos de Irak", "Militares de Irak"}),
            ),
        ]
        index = build_index(entries)
        doc = doc_from_spans(
            "d",
            "Ali Quimico fue uno de los políticos de Irak durante la guerra",
            [("m", "Ali Quimico", None)],
        )
        extractor = FeatureExtractor(index)
        view = extractor.document_view(doc)
        vec = extractor.mention_entity_features(doc.mentions[0], Candidate("ALI", 1.0), view)
        assert feature(extractor, vec, "category_freq_ctx") >= 1.0
        # the category phrase does not occur inside the mention surface itself
        assert feature(extractor, vec, "category_freq_text") == 0.0


def test_pages_share_one_object_per_token():
    """A CJK page and an ASCII Latin page that share tokens hold each
    distinct token as one object, words unchanged, and their feature rows
    equal those of extractors that derive each page alone."""
    entries = [
        KbEntry(id="TOKYO", title="東京", text="東京は日本の首都。東京の cafe と Tokyo Cafe"),
        KbEntry(id="CAFE", title="Cafe Tokyo", text="Cafe Tokyo serves cafe au lait near Tokyo, cafe Tokyo"),
    ]
    index = build_index(entries)
    doc = doc_from_spans("d", "Cafe Tokyo in 東京 serves cafe", [("m", "Cafe Tokyo", None)])
    mention = doc.mentions[0]
    extractor = FeatureExtractor(index)
    view = extractor.document_view(doc)
    rows = [extractor.mention_entity_features(mention, Candidate(e.id, 0.5), view) for e in entries]
    pages = [extractor._data(e.id).words for e in entries]
    for entry, page in zip(entries, pages):
        assert page == words(entry.text)
    tokens = [t for page in pages for t in page]
    assert len(tokens) > len(set(tokens))
    assert len({id(t) for t in tokens}) == len(set(tokens))
    for entry, row in zip(entries, rows):
        alone = FeatureExtractor(index)
        expected = alone.mention_entity_features(mention, Candidate(entry.id, 0.5), alone.document_view(doc))
        assert np.array_equal(row, expected)


def test_threads_sharing_an_extractor_share_its_page_tokens():
    """Threads that derive pages through one extractor at once, as
    `link --jobs` does, still leave one object per distinct page token."""
    rng = random.Random(5)
    han = [chr(0x4E00 + i) for i in range(40)]
    entries = [KbEntry(id=f"E{i}", title=f"E{i}", text="".join(rng.choices(han, k=300))) for i in range(24)]
    extractor = FeatureExtractor(build_index(entries))
    ids = [e.id for e in entries]

    def derive(seed):
        for eid in random.Random(seed).sample(ids, len(ids)):
            extractor._data(eid)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=derive, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    pages = [extractor._data(e.id).words for e in entries]
    assert pages == [words(e.text) for e in entries]
    tokens = [t for page in pages for t in page]
    assert len({id(t) for t in tokens}) == len(set(tokens)) == len(han)


_REL_WORDS = ["ab", "cd", "ef", "gh"]
_WORDLESS_NAMES = ["", "—", "!?", "_ _", "(...)"]


def _random_name(rng: random.Random) -> str:
    """A KB name over a four-word vocabulary: often one that tokenizes to
    nothing, or that repeats its first word."""
    if rng.random() < 0.2:
        return rng.choice(_WORDLESS_NAMES)
    seq = rng.choices(_REL_WORDS, k=rng.randint(1, 3))
    if rng.random() < 0.3:
        seq = [seq[0]] * len(seq)
    return rng.choice([" ", "_", " - "]).join(w.upper() if rng.random() < 0.2 else w for w in seq)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_relation_frequencies_equal_brute_force(seed):
    """The eight `*_freq_*` columns equal the brute-force sums over each
    entity's sorted names, whatever the first-word prefilter and the shared
    name cache skip: names without words, names that repeat a word, and
    names whose first word occurs in the text while the whole name does
    not (the "<word> zz" category of E0)."""
    rng = random.Random(seed)
    text_words = rng.choices(_REL_WORDS, k=rng.randint(3, 14))
    ids = [f"E{i}" for i in range(rng.randint(2, 5))]

    def names(most: int) -> frozenset[str]:
        return frozenset(_random_name(rng) for _ in range(rng.randint(0, most)))

    entries = [
        KbEntry(
            id=eid,
            title=_random_name(rng),
            text=" ".join(rng.choices(_REL_WORDS, k=5)),
            categories=names(3) | ({f"{rng.choice(text_words)} zz", rng.choice(_WORDLESS_NAMES)} if i == 0 else set()),
            outlinks=tuple((_random_name(rng), rng.choice(ids)) for _ in range(rng.randint(0, 4))),
            redirects=names(2),
        )
        for i, eid in enumerate(ids)
    ]
    index = build_index(entries)
    start = rng.randrange(len(text_words))
    surface = " ".join(text_words[start:start + rng.randint(1, 3)])
    doc = doc_from_spans("d", " ".join(text_words), [("m", surface, None)])
    extractor = FeatureExtractor(index, window=rng.choice([2, 4, 8, 50]))
    view = extractor.document_view(doc)
    mention = doc.mentions[0]
    for eid in ids:
        vec = extractor.mention_entity_features(mention, Candidate(eid, 0.5), view)
        expected = oracle_relation_frequencies(extractor, doc, mention, eid)
        assert {name: feature(extractor, vec, name) for name in expected} == expected


class TestEntityEntityFeatures:
    def test_identical_outlink_sets(self):
        entries = [
            KbEntry(id="A", title="A", text="", outlinks=(("x", "X"), ("y", "Y"))),
            KbEntry(id="B", title="B", text="", outlinks=(("x", "X"), ("y", "Y"))),
            KbEntry(id="X", title="X", text=""),
            KbEntry(id="Y", title="Y", text=""),
        ]
        index = build_index(entries)
        extractor = FeatureExtractor(index)
        vec = extractor.entity_entity_features("A", "B")
        assert feature(extractor, vec, "outlink_overlap") == 1.0

    def test_disjoint_outlink_sets(self):
        entries = [
            KbEntry(id="A", title="A", text="", outlinks=(("x", "X"),)),
            KbEntry(id="B", title="B", text="", outlinks=(("y", "Y"),)),
            KbEntry(id="X", title="X", text=""),
            KbEntry(id="Y", title="Y", text=""),
        ]
        index = build_index(entries)
        extractor = FeatureExtractor(index)
        assert feature(extractor, extractor.entity_entity_features("A", "B"), "outlink_overlap") == 0.0

    def test_nil_pair_is_all_zero(self, toy):
        index, extractor = toy
        assert np.all(extractor.entity_entity_features("HOME_DEPOT", NIL) == 0.0)
        assert np.all(extractor.entity_entity_features(NIL, NIL) == 0.0)

    def test_title_cooccurrence_directed_counts(self):
        entries = [
            KbEntry(id="P1", title="Page One", text="", outlinks=(("two", "P2"), ("two", "P2"))),
            KbEntry(id="P2", title="Page Two", text=""),
        ]
        index = build_index(entries)
        extractor = FeatureExtractor(index)
        vec = extractor.entity_entity_features("P1", "P2")
        assert feature(extractor, vec, "title_cooccurrence") == 2.0
        # symmetric orientation counts links in both directions
        assert feature(extractor, extractor.entity_entity_features("P2", "P1"), "title_cooccurrence") == 2.0

    def test_toy_kb_cooccurrence(self, toy):
        index, extractor = toy
        vec = extractor.entity_entity_features("HOME_DEPOT", "ROBERT_NARDELLI")
        # 2 links from the retailer page + 1 back-link
        assert feature(extractor, vec, "title_cooccurrence") == 3.0

    def test_inlink_overlap(self, toy):
        index, extractor = toy
        # ROBERT_NARDELLI and ATLANTA are both linked from HOME_DEPOT only
        vec = extractor.entity_entity_features("ROBERT_NARDELLI", "ATLANTA")
        assert feature(extractor, vec, "inlink_overlap") == 1.0

    def test_categorical_relation_fires_on_shared_tokens(self, toy):
        index, extractor = toy
        # Category 'Home Depot people' vs title 'Home Depot': jaccard 2/3. No
        # other category of either entity shares a word with the other's title.
        for pair in (("ROBERT_NARDELLI", "HOME_DEPOT"), ("HOME_DEPOT", "ROBERT_NARDELLI")):
            vec = extractor.entity_entity_features(*pair)
            assert feature(extractor, vec, "categorical_relation_freq") == 1.0

    def test_category_pmi_sums_table_scores(self, toy):
        index, _ = toy
        pmi = PmiTable(pair_scores={("American businesspeople", "American retail companies"): 0.25})
        extractor = FeatureExtractor(index, pmi)
        vec = extractor.entity_entity_features("HOME_DEPOT", "ROBERT_NARDELLI")
        assert feature(extractor, vec, "category_pmi") == pytest.approx(0.25)


def test_returned_pair_vectors_do_not_change_the_cache():
    """A caller may change a pair vector it was given: a later call, and a
    chain built afterwards, still read the cached values."""
    doc = home_depot_document()
    (component,) = connected_components(doc, gap=4)
    assignment = (Candidate("HOME_DEPOT", 1.0), Candidate("ROBERT_NARDELLI", 0.5))
    fresh = FeatureExtractor(toy_index())
    want = assignment_vector(fresh, component, fresh.document_view(doc), assignment)
    extractor = FeatureExtractor(toy_index())
    vec = extractor.entity_entity_features("HOME_DEPOT", "ROBERT_NARDELLI")  # fills the cache
    original = vec.copy()
    assert np.any(original != 0.0)
    vec[:] = 7.0
    assert np.array_equal(extractor.entity_entity_features("HOME_DEPOT", "ROBERT_NARDELLI"), original)
    assert np.array_equal(assignment_vector(extractor, component, extractor.document_view(doc), assignment), want)


def assignment_vector(extractor, component, view, assignment):
    """Aggregate features of one assignment, through the component's chain."""
    chain = extractor.component_chain(component, [[c] for c in assignment], view)
    return chain.assignment_features([0] * len(assignment))


class TestTupleFeatures:
    def test_single_mention_has_no_pair_features(self, toy):
        index, extractor = toy
        doc = doc_from_spans("d", "Atlanta is warm", [("m", "Atlanta", None)])
        (component,) = connected_components(doc, gap=4)
        view = extractor.document_view(doc)
        vec = assignment_vector(extractor, component, view, (Candidate("ATLANTA", 1.0),))
        for name in ("outlink_overlap", "inlink_overlap", "category_pmi",
                     "categorical_relation_freq", "title_cooccurrence"):
            assert feature(extractor, vec, name) == 0.0

    def test_real_features_sum_over_mentions(self, toy):
        index, extractor = toy
        doc = home_depot_document()
        (component,) = connected_components(doc, gap=4)
        view = extractor.document_view(doc)
        c1, c2 = Candidate("HOME_DEPOT", 1.0), Candidate("ROBERT_NARDELLI", 0.5)
        vec = assignment_vector(extractor, component, view, (c1, c2))
        part1 = extractor.mention_entity_features(doc.mentions[0], c1, view)
        part2 = extractor.mention_entity_features(doc.mentions[1], c2, view)
        pair = extractor.entity_entity_features(c1.entity_id, c2.entity_id)
        for name in ("cos_text_text", "link_prior", "nil_frequency"):
            i = extractor.registry.index(name)
            assert vec[i] == part1[i] + part2[i] + pair[i]

    def test_boolean_features_combine_with_and(self, toy):
        index, extractor = toy
        doc = doc_from_spans(
            "d",
            "Home Depot store in Atlanta",
            [("m1", "Home Depot", None), ("m2", "Atlanta", None)],
        )
        (component,) = connected_components(doc, gap=4)
        view = extractor.document_view(doc)
        both_exact = (Candidate("HOME_DEPOT", 1.0), Candidate("ATLANTA", 1.0))
        vec = assignment_vector(extractor, component, view, both_exact)
        assert feature(extractor, vec, "match_all_title") == 1.0

        one_off = (Candidate("HOME_DEPOT", 1.0), Candidate("CHRYSLER", 0.0))
        vec = assignment_vector(extractor, component, view, one_off)
        assert feature(extractor, vec, "match_all_title") == 0.0

    def test_nil_frequency_counts_nil_assignments(self, toy):
        index, extractor = toy
        doc = home_depot_document()
        (component,) = connected_components(doc, gap=4)
        view = extractor.document_view(doc)
        vec = assignment_vector(extractor, component, view, (Candidate(NIL, 0.0), Candidate(NIL, 0.0)))
        assert feature(extractor, vec, "nil_frequency") == 2.0

    def test_arity_mismatch_is_hard_error(self, toy):
        index, extractor = toy
        doc = home_depot_document()
        (component,) = connected_components(doc, gap=4)
        view = extractor.document_view(doc)
        with pytest.raises(ValueError):
            extractor.component_chain(component, [[Candidate(NIL, 0.0)]], view)
        chain = extractor.component_chain(component, [[Candidate(NIL, 0.0)]] * 2, view)
        with pytest.raises(ValueError):
            chain.assignment_features([0])

    def test_preferred_tuple_scores_higher_cooccurrence(self, toy):
        index, extractor = toy
        doc = home_depot_document()
        (component,) = connected_components(doc, gap=4)
        view = extractor.document_view(doc)
        robert = assignment_vector(
            extractor, component, view, (Candidate("HOME_DEPOT", 1.0), Candidate("ROBERT_NARDELLI", 0.5))
        )
        steve = assignment_vector(
            extractor, component, view, (Candidate("HOME_DEPOT", 1.0), Candidate("STEVE_NARDELLI", 0.5))
        )
        i = extractor.registry.index("title_cooccurrence")
        assert robert[i] > steve[i]

    def test_bit_identical_recomputation(self, toy):
        index, extractor = toy
        doc = home_depot_document()
        (component,) = connected_components(doc, gap=4)
        view = extractor.document_view(doc)
        t = (Candidate("HOME_DEPOT", 1.0), Candidate("ROBERT_NARDELLI", 0.5))
        first = assignment_vector(extractor, component, view, t)
        second = assignment_vector(extractor, component, view, t)
        assert np.array_equal(first, second)

    def test_invariant_under_kb_record_order(self):
        entries = toy_kb_entries()
        rng = random.Random(3)
        shuffled = list(entries)
        rng.shuffle(shuffled)
        doc = home_depot_document()
        vectors = []
        for source in (entries, shuffled):
            index = build_index(source)
            extractor = FeatureExtractor(index)
            (component,) = connected_components(doc, gap=4)
            view = extractor.document_view(doc)
            t = (Candidate("HOME_DEPOT", 1.0), Candidate("ROBERT_NARDELLI", 0.5))
            vectors.append(assignment_vector(extractor, component, view, t))
        assert np.array_equal(vectors[0], vectors[1])


class TestValueRanges:
    def test_random_fixtures_stay_in_bounds(self):
        from conftest import enumerate_tuples, oracle_features, random_linking_doc, random_linking_kb

        rng = random.Random(99)
        registry = default_registry()
        cos_idx = [registry.index(n) for n in registry.names if n.startswith("cos_")]
        overlap_idx = [registry.index("outlink_overlap"), registry.index("inlink_overlap")]
        freq_idx = [
            registry.index(n)
            for n in registry.names
            if n.endswith(("_freq_text", "_freq_ctx"))
            or n in ("nil_frequency", "categorical_relation_freq", "title_cooccurrence")
        ]

        for i in range(10):
            index = random_linking_kb(rng)
            extractor = FeatureExtractor(index, PmiTable(), registry)
            doc = random_linking_doc(rng, f"doc{i}")
            view = extractor.document_view(doc)
            for component in connected_components(doc, gap=4):
                lists = [index.fast_search(m.surface, 5) for m in component.mentions]
                chain = extractor.component_chain(component, lists, view)
                assignments = enumerate_tuples(component, index, 5)
                expected = oracle_features(extractor, component, assignments, view)
                for combo, choice, want in zip(assignments, np.ndindex(*chain.sizes), expected):
                    vec = chain.assignment_features(choice)
                    assert np.allclose(vec, want, rtol=1e-12, atol=1e-12)
                    assert np.all(np.isfinite(vec))
                    n_pairs = max(0, len(combo) - 1)
                    for j in cos_idx:
                        assert 0.0 <= vec[j] <= len(combo) + 1e-9
                    for j in overlap_idx:
                        assert 0.0 <= vec[j] <= n_pairs + 1e-9
                    for j in freq_idx:
                        assert vec[j] >= 0.0
                        assert vec[j] == int(vec[j])  # integral counts


class TestTrainPmi:
    def pmi_kb(self):
        return build_index(
            [
                KbEntry(id="e1", title="E one", text="", categories=frozenset({"A"})),
                KbEntry(id="e2", title="E two", text="", categories=frozenset({"B"})),
                KbEntry(id="e3", title="E three", text="", categories=frozenset({"A"})),
            ]
        )

    def test_hand_computed_score(self):
        index = self.pmi_kb()
        # one consecutive (A, B) pair; A occurs at 2 gold entities, B at 1
        table = train_pmi([["e1", "e2"], ["e3"]], index, blacklist_threshold=1.0)
        assert table.score("A", "B") == pytest.approx(0.5)
        assert table.score("B", "A") == pytest.approx(0.5)

    def test_never_cooccurring_pair_scores_zero(self):
        index = self.pmi_kb()
        table = train_pmi([["e1", "e2"], ["e3"]], index, blacklist_threshold=1.0)
        assert table.score("A", "A") == 0.0

    def test_blacklisted_category_contributes_no_pairs(self):
        index = self.pmi_kb()
        # A occurs at 2/3 of gold entities > 0.4 threshold, so it is removed
        table = train_pmi([["e1", "e2"], ["e3"]], index, blacklist_threshold=0.4)
        assert table.score("A", "B") == 0.0
        assert table.pair_scores == {}

    def test_nil_and_unknown_ids_skipped(self):
        index = self.pmi_kb()
        table = train_pmi([["e1", NIL, "e2"], ["UNKNOWN"]], index, blacklist_threshold=1.0)
        # NIL breaks adjacency: no (A, B) pair was observed
        assert table.score("A", "B") == 0.0

    def test_payload_round_trip(self):
        index = self.pmi_kb()
        table = train_pmi([["e1", "e2"], ["e3"]], index, blacklist_threshold=1.0)
        restored = PmiTable.from_payload(table.to_payload())
        assert restored == table
        assert table.to_payload() == {"pairs": [["A", "B", 0.5]]}

    def test_scores_non_negative_and_finite(self):
        index = self.pmi_kb()
        table = train_pmi([["e1", "e2"], ["e2", "e3"], ["e1", "e3"]], index, blacklist_threshold=1.0)
        for value in table.pair_scores.values():
            assert value >= 0.0
            assert value == value  # not NaN
