"""Anchor-title index construction, retrieval and serialization tests."""

import gc
import json
import os
import random
import re
import struct
import tracemalloc
import zlib
from collections import Counter
from itertools import chain

import pytest
from conftest import DAMAGE, MALFORMED_BODIES, canonical_lines, index_blob, index_oracle, subword_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from entlink import kb_store
from entlink.fixtures import toy_index, toy_kb_entries
from entlink.kb_store import (
    INDEX_FORMAT_VERSION,
    NIL,
    AnchorIndex,
    FormatVersionError,
    KbEntry,
    KbError,
    build_index,
    load_kb_jsonl,
    normalize_name,
)
from entlink.text_vsm import words as text_words


def titanic_entries():
    """Entry SOURCE links anchor 'Titanic' to SHIP three times, FILM once."""
    return [
        KbEntry(
            id="SOURCE",
            title="Shipwreck articles",
            text="An index page about famous shipwrecks and their films .",
            outlinks=(
                ("Titanic", "SHIP"),
                ("Titanic", "SHIP"),
                ("Titanic", "SHIP"),
                ("Titanic", "FILM"),
            ),
        ),
        KbEntry(id="SHIP", title="RMS Titanic", text="The ocean liner that sank in 1912 ."),
        KbEntry(id="FILM", title="Titanic (1997 film)", text="A 1997 romance film ."),
    ]


def unusual_entries():
    """Texts holding characters that `str.splitlines` breaks at (U+2028,
    U+2029, U+0085), CJK and combining marks; the last two entries have
    empty categories, links and redirects."""
    return [
        KbEntry(
            id="LINES",
            title="Line\u2028Separator",
            text="before\u2028after\u0085next\u2029end",
            categories=frozenset({"Cat\u0085egory"}),
            outlinks=(("\u6771\u4eac\u2028", "TOKYO"), ("Se\u0301ance", "SEANCE")),
            redirects=frozenset({"Line\u2029Sep"}),
        ),
        KbEntry(id="TOKYO", title="\u6771\u4eac\u90fd", text="\u6771\u4eac\u306f\u65e5\u672c\u306e\u9996\u90fd"),
        KbEntry(id="SEANCE", title="Se\u0301ance", text=""),
    ]


def empty_entries():
    return []


def write_kb(tmp_path, records) -> str:
    """A KB JSONL file of the records, one per line, a str as it is;
    returns its path."""
    path = tmp_path / "kb.jsonl"
    path.write_text("".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in records), encoding="utf-8")
    return str(path)


class TestNormalizeName:
    def test_casefold_and_whitespace(self):
        assert normalize_name("  Home   Depot ") == "home depot"

    def test_strip_edge_punctuation(self):
        assert normalize_name("'Obama'") == "obama"
        assert normalize_name("(disambiguation)") == "disambiguation"

    def test_underscores_are_spaces(self):
        assert normalize_name("Home_Depot") == "home depot"

    def test_internal_punctuation_kept(self):
        assert normalize_name("O'Neill") == "o'neill"


class TestBuildIndex:
    def test_anchor_counts_aggregate(self):
        index = build_index(titanic_entries())
        assert index.postings["titanic"] == [("SHIP", 3), ("FILM", 1)]

    def test_empty_kb(self):
        index = build_index([])
        assert index.postings == {}
        assert len(index.entries) == 0

    def test_redirect_map(self):
        entry = KbEntry(
            id="OBAMA",
            title="Barack Obama",
            text="44th president .",
            redirects=frozenset({"Barack Obama Jr.", "Barack Hussein Obama"}),
        )
        index = build_index([entry])
        assert index.redirect_map[normalize_name("Barack Obama Jr.")] == "OBAMA"

    def test_duplicate_id_is_hard_error(self):
        entry = KbEntry(id="X", title="X", text="")
        with pytest.raises(KbError):
            build_index([entry, entry])

    def test_reserved_nil_id_rejected(self, tmp_path):
        """Every NIL label is reserved, not only the bare one: a KB id NIL7
        would be linked and then scored as NIL."""
        for eid in (NIL, "NIL7", "NIL0001"):
            with pytest.raises(KbError):
                build_index([KbEntry(id=eid, title="nil", text="")])
            path = write_kb(tmp_path, [{"id": eid, "title": "nil", "text": ""}])
            with pytest.raises(KbError, match=f"kb.jsonl:1: KB id '{eid}' is reserved"):
                list(load_kb_jsonl(path))

    def test_entries_without_names_share_one_empty_set(self, tmp_path):
        """An absent or empty `categories` or `redirects` list gives every
        entry the same empty frozenset, not one object per entry."""
        a, b, c = load_kb_jsonl(write_kb(tmp_path, [
            {"id": "A", "title": "A", "text": ""},
            {"id": "B", "title": "B", "text": "", "categories": [], "redirects": []},
            {"id": "C", "title": "C", "text": "", "redirects": ["Sea"]},
        ]))
        assert a.redirects is b.redirects is a.categories is b.categories is c.categories
        assert a.redirects == frozenset() and c.redirects == frozenset({"Sea"})

    def test_dangling_target_counted_and_kept_in_postings(self):
        entries = [
            KbEntry(id="A", title="A", text="", outlinks=(("ghost", "MISSING"),)),
        ]
        index = build_index(entries)
        assert index.dangling_links == 1
        assert index.postings["ghost"] == [("MISSING", 1)]
        assert "MISSING" not in index.inlinks
        assert index.outlink_counts["A"] == {}

    def test_outlink_target_resolves_via_redirect(self):
        entries = [
            KbEntry(id="A", title="Page A", text="", outlinks=(("Big Blue", "I.B.M."),)),
            KbEntry(id="IBM", title="IBM", text="", redirects=frozenset({"I.B.M."})),
        ]
        index = build_index(entries)
        assert index.dangling_links == 0
        assert index.outlink_counts["A"] == {"IBM": 1}
        assert index.inlinks["IBM"] == ("A",)
        assert index.postings["big blue"] == [("IBM", 1)]

    def test_inlink_outlink_duality_brute_force(self):
        index = toy_index()
        entries = index.entries
        # independent resolution: ids first, then normalized titles/redirects
        names = {}
        for eid, entry in entries.items():
            names.setdefault(normalize_name(entry.title), eid)
        for eid, entry in entries.items():
            for alias in entry.redirects:
                names.setdefault(normalize_name(alias), eid)
        resolved_targets = {
            eid: {
                target if target in entries else names.get(normalize_name(target))
                for _, target in entry.outlinks
            }
            - {None}
            for eid, entry in entries.items()
        }
        for e in entries:
            for source in entries:
                expected = e in resolved_targets[source]
                assert (source in index.inlinks.get(e, ())) == expected


def _page(eid, title=None):
    return {"id": eid, "title": eid if title is None else title, "text": ""}


@pytest.mark.parametrize(
    "records,message",
    [
        pytest.param([_page("A"), _page("B"), _page("A"), _page("C", 5)], "3: duplicate KB id 'A'",
                     id="duplicate-first"),
        pytest.param([_page("A"), _page("B", 5), _page("A")], "2: entry 'B': 'title' and 'text' must be strings",
                     id="rule-fault-first"),
        pytest.param([_page("A"), _page("A"), "{"], "2: duplicate KB id 'A'", id="before-invalid-json"),
        pytest.param([_page(eid) for eid in "ABCDA"], "5: duplicate KB id 'A'", id="across-batches"),
    ],
)
def test_a_kb_file_reports_its_first_bad_line(tmp_path, monkeypatch, records, message):
    """Of a duplicate id and a rule fault, or a line that is no JSON, in
    one batch of records, the one on the earlier line is reported, with its
    line; an id is also a duplicate of one in an earlier batch."""
    monkeypatch.setattr(kb_store, "_GROUP_SIZE", 4)
    path = write_kb(tmp_path, records)
    with pytest.raises(KbError, match=f"^{re.escape(path)}:{message}$"):
        list(load_kb_jsonl(path))


# Names that collide once normalized ("Alpha", "alpha!", "ALPHA"), that are
# also ids ("B", "C"), that normalize to "" ("", "...", " _ "), or that
# nothing claims ("Ghost"); ids may be missing, so targets dangle or resolve
# through a title or redirect.
_KB_IDS = ["A", "B", "C", "D"]
_KB_NAMES = ["Alpha", "alpha!", "ALPHA", "Beta", "B", "C", "", "...", " _ ", "Ghost"]


@st.composite
def random_kbs(draw):
    ids = draw(st.lists(st.sampled_from(_KB_IDS), unique=True, max_size=len(_KB_IDS)))
    names = st.sampled_from(_KB_NAMES)
    return [
        KbEntry(
            id=eid,
            title=draw(names),
            text="",
            outlinks=tuple(draw(st.lists(st.tuples(names, st.sampled_from(_KB_IDS + _KB_NAMES)), max_size=6))),
            redirects=frozenset(draw(st.lists(names, max_size=3))),
        )
        for eid in ids
    ]


@settings(max_examples=300, deadline=None)
@given(entries=random_kbs(), data=st.data())
def test_build_index_matches_the_oracle(entries, data):
    """Postings, inlinks, outlink counts, the redirect map and the dangling
    count equal the brute-force derivation, whatever the record order."""
    index = build_index(data.draw(st.permutations(entries)))
    for name, value in index_oracle(entries).items():
        assert getattr(index, name) == value, name


def test_build_index_holds_no_second_copy_of_the_links():
    """Building an index of 3,000 pages with 6 links each allocates at its
    peak little more than the index it keeps: a build that held the links
    again, as lists, pair counts or sets, would peak near twice that."""
    rng = random.Random(0)
    n = 3000
    ids = [f"P{i:05d}" for i in range(n)]
    surnames = [f"Surname{i}" for i in range(n // 8)]
    titles = [f"Given{i % 97} {surnames[i % len(surnames)]}" for i in range(n)]
    entries = [
        KbEntry(eid, titles[i], "", outlinks=tuple(
            (titles[t] if rng.random() < 0.3 else surnames[t % len(surnames)], ids[t]) for t in rng.sample(range(n), 6)
        ))
        for i, eid in enumerate(ids)
    ]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        index = build_index(entries)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index.entries) == n
    assert (peak - start) / (held - start) < 1.4


# Characters a codec could mishandle: line and paragraph separators, NEL,
# quotes, backslashes, an astral character, CJK, a combining mark, and
# characters that normalization strips or folds.
_CODEC_CHARS = st.sampled_from(["a", "B", " ", "_", "!", "\u2028", "\u2029", "\u0085", '"', "\\", "\n",
                                "\U0001F600", "\u6771", "\u0301", "\u00df"])
_CODEC_TEXT = st.text(_CODEC_CHARS, max_size=5)


@st.composite
def codec_kbs(draw):
    """KBs with empty and odd titles, texts and names, and link targets that
    are ids, redirect or title names, or dangle."""
    ids = draw(st.lists(st.text(_CODEC_CHARS, min_size=1, max_size=3), unique=True, max_size=7))
    names = st.sampled_from(ids) | _CODEC_TEXT if ids else _CODEC_TEXT
    return [
        KbEntry(
            id=eid,
            title=draw(_CODEC_TEXT),
            text=draw(_CODEC_TEXT),
            categories=frozenset(draw(st.lists(_CODEC_TEXT, max_size=3))),
            outlinks=tuple(draw(st.lists(st.tuples(_CODEC_TEXT, names), max_size=5))),
            redirects=frozenset(draw(st.lists(names, max_size=3))),
        )
        for eid in ids
    ]


@settings(max_examples=150, deadline=None)
@given(
    entries=codec_kbs(),
    sizes=st.tuples(st.integers(1, 5), st.integers(1, 9)),
    data=st.data(),
)
def test_codec_round_trip_matches_the_oracle(entries, sizes, data):
    """Whatever the group (and so block) and chunk sizes, a loaded index
    holds the KB's entries and the oracle's derived fields, and its bytes
    depend on neither the record order nor the worker count."""
    with pytest.MonkeyPatch.context() as patch:
        for name, size in zip(("_GROUP_SIZE", "_CHUNK_SIZE"), sizes):
            patch.setattr(kb_store, name, size)
        blob = build_index(entries).to_bytes()
        loaded = AnchorIndex.from_bytes(blob)
        assert loaded.entries == {e.id: e for e in entries}
        for name, value in index_oracle(entries).items():
            assert getattr(loaded, name) == value, name
        for workers in (1, 2, 5):
            patch.setattr(os, "cpu_count", lambda: workers)
            assert build_index(data.draw(st.permutations(entries))).to_bytes() == blob


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The cyclic collector enabled or disabled for the test, then restored."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


class TestCollector:
    """`build_index` and `to_bytes` pause the cyclic collector and leave it
    as they found it, and a build collects once when it built at least a
    full-collection interval of container objects."""

    def test_state_kept_after_a_build(self, collector):
        build_index(toy_kb_entries())
        assert gc.isenabled() == collector

    def test_state_kept_after_a_duplicate_id(self, collector):
        entry = KbEntry(id="X", title="X", text="")
        with pytest.raises(KbError):
            build_index([entry, entry])
        assert gc.isenabled() == collector

    def test_state_kept_after_a_bad_record_in_an_index(self, collector):
        lines = canonical_lines(toy_kb_entries())
        lines[1] = '{"id": "X", "text": ""}'
        with pytest.raises(KbError):
            AnchorIndex.from_bytes(index_blob(lines))
        assert gc.isenabled() == collector

    def test_paused_while_serializing_and_restored(self, collector, monkeypatch):
        index = build_index(toy_kb_entries())
        states = []
        columns = kb_store._columns
        monkeypatch.setattr(kb_store, "_columns", lambda group: states.append(gc.isenabled()) or columns(group))
        index.to_bytes()
        assert states == [False]
        assert gc.isenabled() == collector

    @pytest.mark.parametrize("threshold,expected", [((1, 1, 1), 1), ((10**9, 10, 10), 0)],
                             ids=["above-interval", "below-interval"])
    def test_one_collection_above_the_interval(self, collector, monkeypatch, threshold, expected):
        """One pass when the build's new objects reach the product of the
        thresholds, none below it, and none when the caller disabled the
        collector."""
        calls = []
        monkeypatch.setattr(gc, "get_threshold", lambda: threshold)
        monkeypatch.setattr(gc, "collect", lambda *args: calls.append(args) or 0)
        build_index(toy_kb_entries())
        assert len(calls) == (expected if collector else 0)


_SUBWORDS = ["ab", "Cd", "ef", "ab", "—"]


class TestFastSearch:
    def test_priors_and_nil(self):
        index = build_index(titanic_entries())
        result = index.fast_search("Titanic", 40)
        assert result[0] == ("SHIP", 0.75)
        assert result[1] == ("FILM", 0.25)
        assert result[-1] == (NIL, 0.0)
        assert len(result) == 3

    def test_truncation_keeps_top_and_full_list_prior(self):
        index = build_index(titanic_entries())
        result = index.fast_search("Titanic", 1)
        assert result == [("SHIP", 0.75), (NIL, 0.0)]

    def test_unknown_surface_returns_only_nil(self):
        index = build_index(titanic_entries())
        assert index.fast_search("zzz unknown", 40) == [(NIL, 0.0)]

    def test_k_must_be_positive(self):
        index = build_index(titanic_entries())
        with pytest.raises(ValueError):
            index.fast_search("Titanic", 0)

    def test_subword_superset_match(self):
        # exact anchor 'robert nardelli' exists; surface 'Nardelli' is a subset
        index = toy_index()
        hits = index.fast_search("Robert James Nardelli", 40)
        assert hits[0].entity_id == "ROBERT_NARDELLI"
        assert hits[-1].entity_id == NIL

    def test_subword_merges_counts(self):
        entries = [
            KbEntry(
                id="S",
                title="Some page",
                text="",
                outlinks=(("Alpha Beta", "X"), ("Beta Gamma", "X"), ("Beta Gamma", "Y")),
            ),
            KbEntry(id="X", title="X", text=""),
            KbEntry(id="Y", title="Y", text=""),
        ]
        index = build_index(entries)
        # 'Beta' alone has no exact anchor; superset anchors merge by count:
        # X gets 1 + 1 occurrences, Y gets 1
        hits = index.fast_search("Beta", 40)
        assert [h.entity_id for h in hits] == ["X", "Y", NIL]
        assert hits[0].link_prior == pytest.approx(2 / 3)
        assert hits[1].link_prior == pytest.approx(1 / 3)

    @settings(max_examples=200, deadline=None)
    @given(
        anchors=st.lists(st.tuples(st.lists(st.sampled_from(_SUBWORDS), max_size=3), st.sampled_from("XYZ")),
                         max_size=12),
        query=st.lists(st.sampled_from(_SUBWORDS), max_size=4),
    )
    def test_subword_lookup_matches_the_oracle(self, anchors, query):
        """Anchors built from a few words, some repeated or wordless, so that
        subsets and supersets of a query abound; an anchor that repeats a
        word is listed once under it, and its word count counts it once."""
        links = tuple((" ".join(words), target) for words, target in anchors)
        index = build_index([KbEntry(id="S", title="S", text="", outlinks=links)])
        key = normalize_name(" ".join(query))
        assert index.lookup(" ".join(query)) == (index.postings.get(key) or subword_oracle(index.postings, key))
        listed = Counter((word, anchor) for word, holders in index._word_anchors.items() for anchor in holders)
        assert listed == Counter((word, anchor) for anchor in index.postings for word in set(text_words(anchor)))
        assert index._word_counts == {anchor: len(set(text_words(anchor))) for anchor in index.postings}

    def test_monotone_in_k(self):
        index = toy_index()
        for surface in ("Nardelli", "Home Depot", "Atlanta"):
            results = [index.fast_search(surface, k) for k in (1, 2, 3, 40)]
            for small, big in zip(results, results[1:]):
                small_kb = [c.entity_id for c in small[:-1]]
                big_kb = [c.entity_id for c in big[:-1]]
                assert big_kb[: len(small_kb)] == small_kb

    def test_priors_sum_to_one_over_full_lists(self):
        index = toy_index()
        for anchor, plist in index.postings.items():
            total = sum(c for _, c in plist)
            assert sum(c / total for _, c in plist) == pytest.approx(1.0, abs=1e-9)


class TestResolveRedirect:
    """Titles and redirects resolve through `redirect_map` by normalized name."""

    def test_redirect_hit(self):
        index = toy_index()
        assert index.redirect_map[normalize_name("Bob Nardelli")] == "ROBERT_NARDELLI"

    def test_title_identity(self):
        index = toy_index()
        assert index.redirect_map[normalize_name("Chrysler")] == "CHRYSLER"

    def test_unknown(self):
        index = toy_index()
        assert index.redirect_map.get(normalize_name("No Such Page")) is None


def assert_one_object_per_value(index):
    """Every id, anchor and target string of the entries is one object per
    value, and so is every category and redirect name set."""
    strings, name_sets = {}, {}
    for entry in index.entries.values():
        for value in (entry.id, *chain.from_iterable(entry.outlinks)):
            assert strings.setdefault(value, value) is value
        for names in (entry.categories, entry.redirects):
            assert name_sets.setdefault(names, names) is names


_LINKED_IDS = ("ANN", "BOB", "CAT", "DAN")  # not one character: CPython shares those anyway


class TestSharedValues:
    @staticmethod
    def linked_entries():
        """Entries with shared category and redirect sets, and links between them."""
        cats = ["People", "Sailors"]
        return [
            KbEntry(id=eid, title=f"Page {eid}", text="", categories=frozenset(cats[: 1 + i % 2]),
                    redirects=frozenset({"Sea"}) if i % 2 else frozenset(),
                    outlinks=tuple((f"to {t}", t) for t in _LINKED_IDS if t != eid))
            for i, eid in enumerate(_LINKED_IDS)
        ]

    def test_a_read_kb_and_its_loaded_index_share_values(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text("".join(json.dumps(e.to_record()) + "\n" for e in self.linked_entries()))
        built = build_index(load_kb_jsonl(str(path)))
        loaded = AnchorIndex.from_bytes(built.to_bytes())
        for index in (built, loaded):
            entries = index.entries
            assert entries["ANN"].outlinks[0][1] is entries["BOB"].id
            assert entries["BOB"].categories is entries["DAN"].categories
            assert entries["BOB"].redirects is entries["DAN"].redirects
            assert_one_object_per_value(index)

    @settings(max_examples=100, deadline=None)
    @given(entries=codec_kbs())
    def test_a_loaded_index_shares_values(self, entries):
        assert_one_object_per_value(AnchorIndex.from_bytes(build_index(entries).to_bytes()))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        index = toy_index()
        path = tmp_path / "toy.idx"
        index.save(str(path))
        loaded = AnchorIndex.load(str(path))
        assert loaded.postings == index.postings
        assert loaded.redirect_map == index.redirect_map
        assert loaded.inlinks == index.inlinks
        assert loaded.outlink_counts == index.outlink_counts
        assert loaded.fast_search("Nardelli", 40) == index.fast_search("Nardelli", 40)

    def test_record_order_invariance(self):
        entries = toy_kb_entries()
        rng = random.Random(7)
        reference = build_index(entries).to_bytes()
        for _ in range(5):
            shuffled = list(entries)
            rng.shuffle(shuffled)
            assert build_index(shuffled).to_bytes() == reference

    @pytest.mark.parametrize("entries", [toy_kb_entries, unusual_entries, empty_entries],
                             ids=["toy", "unusual", "empty"])
    def test_round_trip_keeps_every_record(self, entries):
        index = build_index(entries())
        assert AnchorIndex.from_bytes(index.to_bytes()).entries == index.entries

    @pytest.mark.parametrize("entries", [toy_kb_entries, unusual_entries, empty_entries],
                             ids=["toy", "unusual", "empty"])
    def test_body_is_the_canonical_groups(self, entries, tmp_path):
        """The decompressed body is the canonical column lines, and the KB
        records read back from its columns build the same index file."""
        blob = build_index(entries()).to_bytes()
        body = zlib.decompress(blob[8:]).decode("utf-8")
        assert body.split("\n")[:-1] == canonical_lines(entries())
        columns = [json.loads(line) for line in body.split("\n")[:-1]]
        records = [
            {"id": eid, "title": title, "text": text, "categories": categories, "redirects": redirects,
             "links": [{"anchor": anchor, "target": target} for anchor, target in zip(links[::2], links[1::2])]}
            for start in range(0, len(columns), 6)
            for eid, title, text, categories, redirects, links in zip(*columns[start:start + 6])
        ]
        path = tmp_path / "body.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert build_index(load_kb_jsonl(str(path))).to_bytes() == blob

    @pytest.mark.parametrize("case", MALFORMED_BODIES)
    def test_invalid_record_names_its_line(self, case, monkeypatch):
        """A malformed body raises KbError naming the line at fault."""
        monkeypatch.setattr(kb_store, "_GROUP_SIZE", 2)
        edit, lineno, message = MALFORMED_BODIES[case]
        blob = index_blob(edit(canonical_lines(titanic_entries())))
        with pytest.raises(KbError, match=f"^anchor-index body:{lineno}: .*{message}"):
            AnchorIndex.from_bytes(blob)

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_damaged_stream_is_rejected(self, damage):
        blob = index_blob(canonical_lines(toy_kb_entries()))
        with pytest.raises(FormatVersionError, match="corrupt anchor-index file"):
            AnchorIndex.from_bytes(DAMAGE[damage](blob))

    def test_version_mismatch(self):
        blob = bytearray(toy_index().to_bytes())
        blob[4] = 99  # corrupt the little-endian version field
        expected = f"^index format version 99, expected {INDEX_FORMAT_VERSION}; rebuild it with build-index$"
        with pytest.raises(FormatVersionError, match=expected):
            AnchorIndex.from_bytes(bytes(blob))

    def test_not_an_index_file(self):
        with pytest.raises(FormatVersionError):
            AnchorIndex.from_bytes(b"garbage bytes")

    def test_one_block_is_a_level_4_stream(self):
        """A body of one block is deflated as zlib does it at level 4, under
        the zlib header of levels 2 to 5."""
        blob = build_index(toy_kb_entries()).to_bytes()
        body = "".join(line + "\n" for line in canonical_lines(toy_kb_entries())).encode("utf-8")
        packer = zlib.compressobj(4, zlib.DEFLATED, 15, 9)
        assert blob[8:] == packer.compress(body) + packer.flush()
        assert blob[8:10] == b"\x78\x5e"


@pytest.fixture(params=[(2, 1), (5, 3), (13, 7)], ids=lambda p: f"block{p[0]}-chunk{p[1]}")
def small_blocks(request, monkeypatch):
    """Deflate blocks, which are groups, of a few entries, and inflate
    chunks of a few bytes, so a small KB spans several of each. One-byte
    chunks cut every multi-byte UTF-8 character (U+2028 among them) at a
    chunk boundary."""
    entries, chunk = request.param
    monkeypatch.setattr(kb_store, "_GROUP_SIZE", entries)
    monkeypatch.setattr(kb_store, "_CHUNK_SIZE", chunk)


class TestBlocks:
    """The block-parallel deflate and the streamed inflate, at sizes small
    enough that the toy KBs cross every kind of boundary."""

    @pytest.mark.parametrize("entries", [toy_kb_entries, unusual_entries, empty_entries],
                             ids=["toy", "unusual", "empty"])
    def test_each_group_is_one_block_that_inflates_alone(self, entries, monkeypatch):
        """The blob is the header, then each group's lines deflated alone
        (raw, level 4, memLevel 9, a sync flush, the finish for the last
        group or an empty body), then the adler32 of the body; and each
        block inflates on its own to its group's lines."""
        monkeypatch.setattr(kb_store, "_GROUP_SIZE", 2)
        lines = [line + "\n" for line in canonical_lines(entries())]
        groups = ["".join(lines[start:start + 6]).encode("utf-8") for start in range(0, len(lines), 6)] or [b""]
        blocks = []
        for number, group in enumerate(groups, start=1):
            packer = zlib.compressobj(4, zlib.DEFLATED, -15, 9)
            mode = zlib.Z_FINISH if number == len(groups) else zlib.Z_SYNC_FLUSH
            blocks.append(packer.compress(group) + packer.flush(mode))
        header = b"ELIX" + struct.pack("<I", INDEX_FORMAT_VERSION) + b"\x78\x5e"
        checksum = struct.pack(">I", zlib.adler32(b"".join(groups)))
        assert build_index(entries()).to_bytes() == header + b"".join(blocks) + checksum
        for block, group in zip(blocks, groups):
            assert zlib.decompressobj(-15).decompress(block) == group

    @pytest.mark.parametrize("entries", [toy_kb_entries, unusual_entries, empty_entries],
                             ids=["toy", "unusual", "empty"])
    def test_body_inflates_to_the_canonical_lines(self, entries, small_blocks):
        blob = build_index(entries()).to_bytes()
        body = zlib.decompress(blob[8:])
        assert body == "".join(line + "\n" for line in canonical_lines(entries())).encode("utf-8")
        assert AnchorIndex.from_bytes(blob).entries == build_index(entries()).entries

    @pytest.mark.parametrize("entries", [toy_kb_entries, unusual_entries], ids=["toy", "unusual"])
    def test_blob_depends_on_neither_workers_nor_record_order(self, entries, small_blocks, monkeypatch):
        reference = build_index(entries()).to_bytes()
        rng = random.Random(11)
        for workers in (None, 1, 2, 5):
            monkeypatch.setattr(kb_store.os, "cpu_count", lambda: workers)
            shuffled = entries()
            rng.shuffle(shuffled)
            assert build_index(shuffled).to_bytes() == reference

    @pytest.mark.parametrize("entries", [toy_kb_entries, unusual_entries], ids=["toy", "unusual"])
    def test_serial_stream_loads(self, entries, small_blocks):
        """A body deflated in one serial pass, by any zlib writer, reads back
        chunk by chunk to the same entries, also without its last newline."""
        lines = canonical_lines(entries())
        expected = build_index(entries()).entries
        assert AnchorIndex.from_bytes(index_blob(lines)).entries == expected
        unended = b"ELIX" + struct.pack("<I", INDEX_FORMAT_VERSION) + zlib.compress("\n".join(lines).encode(), 6)
        assert AnchorIndex.from_bytes(unended).entries == expected

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_damaged_stream_is_rejected(self, damage, small_blocks):
        blob = build_index(toy_kb_entries()).to_bytes()
        with pytest.raises(FormatVersionError, match="corrupt anchor-index file"):
            AnchorIndex.from_bytes(DAMAGE[damage](blob))

    @pytest.mark.parametrize("tail", [b"\xff\n", b"\xe2\x80"], ids=["invalid-byte", "cut-character"])
    def test_body_that_is_not_utf8_is_rejected(self, tail, small_blocks):
        body = "".join(line + "\n" for line in canonical_lines(toy_kb_entries())).encode("utf-8") + tail
        blob = b"ELIX" + struct.pack("<I", INDEX_FORMAT_VERSION) + zlib.compress(body, 6)
        with pytest.raises(FormatVersionError, match="UnicodeDecodeError"):
            AnchorIndex.from_bytes(blob)
