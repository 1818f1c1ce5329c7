"""Small bundled fixtures: a hand-built toy KB, documents over it, and a
synthetic corpus generator. Used by the selfcheck command and the test suite.
"""

from __future__ import annotations

import random

from .kb_store import KbEntry, build_index
from .segmenter import MentionDocument


def doc_from_spans(
    doc_id: str,
    text: str,
    spans: list[tuple[str, str, str | None]],
) -> MentionDocument:
    """Build a document record by locating each surface in the text.

    Each span is (mention_id, surface, gold); surfaces are found left to
    right, so repeated surfaces pick successive occurrences. Offsets are byte
    offsets into the UTF-8 encoding.
    """
    record: dict = {"doc_id": doc_id, "text": text, "mentions": []}
    cursor = 0
    for mention_id, surface, gold in spans:
        at = text.find(surface, cursor)
        if at < 0:
            raise ValueError(f"surface {surface!r} not found in {doc_id!r}")
        start = len(text[:at].encode("utf-8"))
        end = start + len(surface.encode("utf-8"))
        mention = {"id": mention_id, "start": start, "end": end}
        if gold is not None:
            mention["gold"] = gold
        record["mentions"].append(mention)
        cursor = at + len(surface)
    return MentionDocument.from_record(record)


def toy_kb_entries() -> list[KbEntry]:
    """A seven-entity KB around the 'Home Depot CEO Nardelli' ambiguity."""
    return [
        KbEntry(
            id="HOME_DEPOT",
            title="Home Depot",
            text=(
                "Home Depot is an American home improvement retailer headquartered "
                "in Atlanta . The chain was led by chief executive Robert Nardelli "
                "until 2007 , when Nardelli resigned after disputes over pay ."
            ),
            categories=frozenset({"American retail companies", "Companies based in Atlanta"}),
            outlinks=(
                ("Robert Nardelli", "ROBERT_NARDELLI"),
                ("Nardelli", "ROBERT_NARDELLI"),
                ("Atlanta", "ATLANTA"),
            ),
            redirects=frozenset({"The Home Depot"}),
        ),
        KbEntry(
            id="ROBERT_NARDELLI",
            title="Robert Nardelli",
            text=(
                "Robert Nardelli is an American businessman who served as chief "
                "executive of Home Depot and later led Chrysler ."
            ),
            categories=frozenset({"American businesspeople", "Home Depot people"}),
            outlinks=(("Home Depot", "HOME_DEPOT"), ("Chrysler", "CHRYSLER")),
            redirects=frozenset({"Bob Nardelli", "Robert Louis Nardelli"}),
        ),
        KbEntry(
            id="STEVE_NARDELLI",
            title="Steve Nardelli",
            text=(
                "Steve Nardelli is an English musician and singer who founded the "
                "rock band the Syn ."
            ),
            categories=frozenset({"English musicians"}),
            outlinks=(("the Syn", "SYN_BAND"),),
            redirects=frozenset(),
        ),
        KbEntry(
            id="SYN_BAND",
            title="The Syn",
            text=(
                "The Syn are an English rock band formed in London and fronted by "
                "singer Steve Nardelli for most of their career . Nardelli reformed "
                "the band in 2004 ."
            ),
            categories=frozenset({"English rock groups"}),
            outlinks=(("Steve Nardelli", "STEVE_NARDELLI"), ("Nardelli", "STEVE_NARDELLI")),
            redirects=frozenset(),
        ),
        KbEntry(
            id="ATLANTA",
            title="Atlanta",
            text="Atlanta is the capital city of the state of Georgia in the United States .",
            categories=frozenset({"Cities in Georgia"}),
            outlinks=(),
            redirects=frozenset({"Atlanta, Georgia"}),
        ),
        KbEntry(
            id="CHRYSLER",
            title="Chrysler",
            text="Chrysler is an American automobile manufacturer with headquarters in Michigan .",
            categories=frozenset({"American automobile manufacturers"}),
            outlinks=(),
            redirects=frozenset({"Chrysler Corporation"}),
        ),
        KbEntry(
            id="ABC_NETWORK",
            title="American Broadcasting Company",
            text="The American Broadcasting Company is an American television network .",
            categories=frozenset({"American television networks"}),
            outlinks=(),
            redirects=frozenset({"ABC television network"}),
        ),
    ]


def toy_index():
    return build_index(toy_kb_entries())


def home_depot_document() -> MentionDocument:
    return doc_from_spans(
        "doc-home-depot",
        "Home Depot CEO Nardelli quits",
        [
            ("m1", "Home Depot", "HOME_DEPOT"),
            ("m2", "Nardelli", "ROBERT_NARDELLI"),
        ],
    )


def toy_documents() -> list[MentionDocument]:
    """A small labeled corpus over the toy KB."""
    return [
        home_depot_document(),
        doc_from_spans(
            "doc-chrysler",
            "Nardelli left the retailer and moved to Chrysler in Michigan",
            [("m1", "Nardelli", "ROBERT_NARDELLI"), ("m2", "Chrysler", "CHRYSLER")],
        ),
        doc_from_spans(
            "doc-syn",
            "Syn singer Nardelli reformed the English rock band",
            [("m1", "Nardelli", "STEVE_NARDELLI")],
        ),
        doc_from_spans(
            "doc-atlanta",
            "The retailer is headquartered in Atlanta",
            [("m1", "Atlanta", "ATLANTA")],
        ),
        doc_from_spans(
            "doc-nil",
            "Analyst Nardelli had no opinion about the figures",
            [("m1", "Nardelli", "NIL")],
        ),
    ]


def random_mention_document(
    rng: random.Random,
    doc_id: str,
    max_words: int = 120,
    max_mentions: int = 50,
) -> MentionDocument:
    """Random ASCII document with possibly overlapping mention spans."""
    n_words = rng.randint(5, max_words)
    words = [f"t{i}" for i in range(n_words)]
    text = " ".join(words)
    word_starts = []
    pos = 0
    for w in words:
        word_starts.append(pos)
        pos += len(w) + 1
    record: dict = {"doc_id": doc_id, "text": text, "mentions": []}
    n_mentions = rng.randint(0, min(max_mentions, n_words))
    for i in range(n_mentions):
        first = rng.randrange(n_words)
        length = min(rng.choice((1, 1, 2)), n_words - first)
        start = word_starts[first]
        last_word = words[first + length - 1]
        end = word_starts[first + length - 1] + len(last_word)
        record["mentions"].append({"id": f"m{i}", "start": start, "end": end})
    return MentionDocument.from_record(record)


def synthetic_kb(n_entities: int = 10, words_per_entity: int = 10) -> list[KbEntry]:
    """Entities in ambiguous surface pairs with disjoint page vocabularies.

    Surface ``name<p>`` can refer to entities 2p and 2p+1; a hub page links
    the surface three times to the even entity and twice to the odd one, so
    the link prior alone favors the even member of every pair.
    """
    entries = []
    hub_links = []
    for i in range(n_entities):
        pair = i // 2
        surface = f"name{pair}"
        vocab = [f"w{i}x{j}" for j in range(words_per_entity)]
        text = f"{surface} stands for entity {i} . " + " ".join(vocab * 3)
        entries.append(
            KbEntry(
                id=f"E{i}",
                title=f"Name{pair} ({i})",
                text=text,
                categories=frozenset({f"Group {i % 3}"}),
                outlinks=(),
                redirects=frozenset({f"name{pair} number {i}"}),
            )
        )
        weight = 3 if i % 2 == 0 else 2
        hub_links.extend([(surface, f"E{i}")] * weight)
    entries.append(
        KbEntry(
            id="HUB",
            title="Disambiguation hub",
            text="This page lists surface forms and their referents .",
            categories=frozenset(),
            outlinks=tuple(hub_links),
            redirects=frozenset(),
        )
    )
    return entries


def synthetic_corpus(
    rng: random.Random,
    n_entities: int = 10,
    n_train: int = 50,
    n_test: int = 20,
    words_per_entity: int = 10,
    context_words: int = 8,
    nil_fraction: float = 0.1,
) -> tuple[list[KbEntry], list[MentionDocument], list[MentionDocument]]:
    """KB plus labeled train/test documents whose mention contexts share most
    of their vocabulary with the gold entity's page."""
    entries = synthetic_kb(n_entities, words_per_entity)

    def make_doc(doc_id: str, serial: int) -> MentionDocument:
        if rng.random() < nil_fraction:
            pair = rng.randrange(n_entities // 2)
            surface = f"name{pair}"
            words = [f"noise{serial}x{j}" for j in range(context_words)]
            gold = "NIL"
        else:
            entity = rng.randrange(n_entities)
            pair = entity // 2
            surface = f"name{pair}"
            vocab = [f"w{entity}x{j}" for j in range(words_per_entity)]
            words = rng.sample(vocab, context_words)
            gold = f"E{entity}"
        text = f"{surface} reported " + " ".join(words)
        return doc_from_spans(doc_id, text, [("m0", surface, gold)])

    train_docs = [make_doc(f"train-{i}", i) for i in range(n_train)]
    test_docs = [make_doc(f"test-{i}", n_train + i) for i in range(n_test)]
    return entries, train_docs, test_docs
