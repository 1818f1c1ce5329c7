"""Seeded input generators for the benchmark workloads.

Each workload is a KB file, a labeled training file and a labeled test file,
all in entlink's documented JSONL formats, plus the same KB in a shuffled
record order for the index-determinism check. The same seed always gives
byte-identical files. Sizes are fixed per workload and scale, and component
sizes are fixed multisets, so the work per pass does not depend on the seed:
the seed only picks names, words, entities and orders.

Run as a script to write one workload's inputs into a directory:

    python3 perfbench/workloads.py --workload bulk --seed 1 --out DIR [--smoke]

The benchmark runs it in a child process, so no generator state sits in the
measured process.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("bulk", "collective")

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


class Lexicon:
    """Distinct pronounceable words: consonant-vowel syllables spelling a
    counter in base 85, over a seed-shuffled syllable table."""

    def __init__(self, rng: random.Random):
        self._syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
        rng.shuffle(self._syllables)
        self._next = 0

    def word(self, min_syllables: int = 2) -> str:
        n = self._next
        self._next += 1
        base = len(self._syllables)
        parts = []
        while n or len(parts) < min_syllables:
            parts.append(self._syllables[n % base])
            n //= base
        return "".join(parts)

    def words(self, count: int, min_syllables: int = 2) -> list[str]:
        return [self.word(min_syllables) for _ in range(count)]


class DocBuilder:
    """Appends text pieces and records mentions at UTF-8 byte offsets."""

    def __init__(self, doc_id: str):
        self.doc_id = doc_id
        self._parts: list[str] = []
        self._bytes = 0
        self.mentions: list[dict] = []

    def add(self, text: str) -> None:
        self._parts.append(text)
        self._bytes += len(text.encode("utf-8"))

    def mention(self, surface: str, gold: str) -> None:
        start = self._bytes
        self.add(surface)
        self.mentions.append(
            {"id": f"m{len(self.mentions)}", "start": start, "end": self._bytes, "gold": gold}
        )

    def record(self) -> dict:
        return {"doc_id": self.doc_id, "text": "".join(self._parts), "mentions": self.mentions}


@dataclass
class Entity:
    id: str
    title: str
    surfaces: list[str]          # names a document may use for it
    context: list[str]           # words a document about it draws from
    text: str = ""
    categories: list[str] = field(default_factory=list)
    links: list[tuple[str, str]] = field(default_factory=list)
    redirects: list[str] = field(default_factory=list)
    group: tuple = ()            # entities a document about it also mentions

    def record(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "text": self.text,
            "categories": self.categories,
            "links": [{"anchor": a, "target": t} for a, t in self.links],
            "redirects": self.redirects,
        }


@dataclass
class Inputs:
    kb: list[dict]
    train: list[dict]
    test: list[dict]


def _sentences(rng: random.Random, words: list[str], per_sentence: int = 12) -> str:
    out = []
    for i in range(0, len(words), per_sentence):
        out.append(" ".join(words[i:i + per_sentence]) + " .")
    return " ".join(out)


def _nil_label(person: int) -> str:
    return f"NIL{person:04d}"


# -- bulk -----------------------------------------------------------------------

BULK = {
    "full": dict(latin=16000, han=1600, kana=1200, hangul=1200, latin_topics=400, cjk_topics=30,
                 train=80, test=240),
    "smoke": dict(latin=320, han=60, kana=40, hangul=40, latin_topics=10, cjk_topics=6,
                  train=40, test=40),
}
PER_SURNAME = {"latin": 8, "cjk": 10}

# Mention kinds, as exact shares of each document set so the work per pass
# does not vary with the seed: full title (an anchor of one entity), surname
# alone (an anchor shared by the surname's 8 or 10 entities), given name alone
# (no anchor: the sub-word fallback retrieves the titles holding it), a
# surname used for someone outside the KB (gold NIL among KB candidates) and
# a name outside the KB (NIL only).
BULK_KINDS = (("title", 0.30), ("surname", 0.30), ("given", 0.20), ("nil_known", 0.10), ("nil", 0.10))

_HAN = (0x4E00, 0x9FFF)
_HIRAGANA = (0x3041, 0x3096)
_KATAKANA = (0x30A1, 0x30FA)
_HANGUL = (0xAC00, 0xD7A3)

# Han and Kana pages run without spaces, Hangul pages put spaces between
# words, as those scripts are written. Surname, given-name, topic and general
# characters come from disjoint slices of each script's character pool.
_CJK_SCRIPTS = (
    # script, id prefix, Unicode blocks, full stop, word separator, slice ends
    ("han", "Z", (_HAN,), "。", "", (80, 400, 900)),
    ("kana", "J", (_HIRAGANA, _KATAKANA), "。", "", (20, 60, 140)),
    ("hangul", "K", (_HANGUL,), ".", " ", (80, 400, 900)),
)


def _kinds(rng: random.Random, shares, n: int) -> list[str]:
    kinds = []
    for kind, share in shares:
        kinds += [kind] * round(share * n)
    kinds = (kinds + [shares[0][0]] * n)[:n]
    rng.shuffle(kinds)
    return kinds


def _script_chars(rng: random.Random, block: tuple[int, int], count: int) -> list[str]:
    lo, hi = block
    return [chr(cp) for cp in rng.sample(range(lo, hi + 1), min(count, hi - lo + 1))]


def bulk(rng: random.Random, scale: str) -> Inputs:
    """Large KB of Latin-script and CJK people with long pages; documents of
    one mention each, a share of them NIL.

    Titles are "Given Surname" (Latin) or surname then given name (CJK), and
    every surname is shared by exactly 8 (Latin) or 10 (CJK) entities, whose
    link priors follow each entity's popularity. The model trains on Latin
    documents only; test documents cycle through Latin, Han, Kana and Hangul,
    so three quarters of them are linked across scripts unchanged.
    """
    p = BULK[scale]
    lex = Lexicon(rng)
    entities: list[Entity] = []
    by_group: dict[tuple, list[Entity]] = {}
    general_of: dict[str, list[str]] = {}
    surnames_of: dict[str, list[str]] = {}

    def add_entity(entity: Entity) -> None:
        entities.append(entity)
        by_group.setdefault(entity.group, []).append(entity)

    # Latin part: pages of about 85 words.
    per = PER_SURNAME["latin"]
    general = general_of["latin"] = lex.words(2000, 2)
    topics = [lex.words(25, 3) for _ in range(p["latin_topics"])]
    given = [w.capitalize() for w in lex.words(max(p["latin"] // 5, 2 * per), 2)]
    surnames = surnames_of["latin"] = [w.capitalize() for w in lex.words(p["latin"] // per, 3)]
    for last in surnames:
        for first in rng.sample(given, per):
            topic = rng.randrange(len(topics))
            private = lex.words(5, 3)
            words = rng.choices(topics[topic], k=40) + private * 3 + rng.choices(general, k=30) + [last, first]
            rng.shuffle(words)
            add_entity(Entity(
                id=f"L{len(entities):05d}",
                title=f"{first} {last}",
                surfaces=[f"{first} {last}", last, first],
                context=private + rng.sample(topics[topic], 10),
                text=f"{first} {last} . " + _sentences(rng, words),
                categories=[f"Topic {topics[topic][0]}"],
                group=("latin", topic),
            ))

    # CJK part: pages of about 140 characters.
    per = PER_SURNAME["cjk"]
    for script, prefix, blocks, stop, space, (c1, c2, c3) in _CJK_SCRIPTS:
        count = p[script]
        pool = [ch for block in blocks for ch in _script_chars(rng, block, 1200)]
        rng.shuffle(pool)
        surname_len = 2 if script == "kana" else 1
        surnames = surnames_of[script] = []
        while len(surnames) < count // per:  # distinct, two thirds one character longer
            name = "".join(rng.sample(pool[:c1], surname_len + (len(surnames) % 3 != 0)))
            if name not in surnames:
                surnames.append(name)
        given = ["".join(rng.sample(pool[c1:c2], 2 + (script == "kana"))) for _ in range(200)]
        topic_chars = [rng.sample(pool[c2:c3], 30) for _ in range(p["cjk_topics"])]
        general = general_of[script] = pool[c3:]
        for i, (last, first) in enumerate((last, first) for last in surnames
                                          for first in rng.sample(given, per)):
            title = last + first if script != "kana" else f"{last}・{first}"
            topic = rng.randrange(p["cjk_topics"])
            private = rng.sample(pool[c2:], 6)
            chars = rng.choices(topic_chars[topic], k=70) + private * 4 + rng.choices(general, k=40) + [last, first]
            rng.shuffle(chars)
            words = ["".join(chars[k:k + 3]) for k in range(0, len(chars), 3)]
            sentences = [space.join(words[k:k + 6]) + stop for k in range(0, len(words), 6)]
            add_entity(Entity(
                id=f"{prefix}{i:04d}",
                title=title,
                surfaces=[title, last, first],
                context=private + rng.sample(topic_chars[topic], 12),
                text=title + stop + space.join(sentences),
                categories=["類" + "".join(topic_chars[topic][:2])],
                group=(script, topic),
            ))

    # Links within each script and topic: full title once, surname as often
    # as the entity's popularity says. Given names alone are never anchors.
    for target in entities:
        group = by_group[target.group]
        for r in range(rng.choice((1, 1, 1, 2, 2, 3, 4, 6)) + 1):
            source = rng.choice(group)
            source.links.append((target.surfaces[0] if r == 0 else target.surfaces[1], target.id))

    by_script: dict[str, list[Entity]] = {}
    for e in entities:
        by_script.setdefault(e.group[0], []).append(e)
    nil_people = 50

    def make_doc(doc_id: str, script: str, kind: str) -> dict:
        doc = DocBuilder(doc_id)
        space = " " if script in ("latin", "hangul") else ""
        general = general_of[script]
        entity = rng.choice(by_script[script])
        if kind in ("nil", "nil_known"):
            person = rng.randrange(nil_people)
            if kind == "nil":  # a name that is in no anchor, title or page
                surface = (lex.word(3).capitalize() if script == "latin" else "".join(rng.sample(general, 3)))
                gold = _nil_label(zlib.crc32(surface.encode("utf-8")) % 10_000)
            else:
                surface = surnames_of[script][person % len(surnames_of[script])]
                gold = _nil_label(10_000 + person)
            words = rng.sample(general, 14)
        else:
            surface = entity.surfaces[("title", "surname", "given").index(kind)]
            gold = entity.id
            words = rng.sample(entity.context, 3) + rng.sample(general, 11)
        rng.shuffle(words)
        at = rng.randrange(len(words))
        doc.add(space.join(words[:at]) + (space if at else ""))
        doc.mention(surface, gold)
        doc.add(space + space.join(words[at:]) + ("." if space else "。"))
        return doc.record()

    def make_docs(prefix: str, n_docs: int, scripts: list[str]) -> list[dict]:
        kinds = _kinds(rng, BULK_KINDS, n_docs)
        return [make_doc(f"{prefix}-{d:04d}", scripts[d % len(scripts)], kind) for d, kind in enumerate(kinds)]

    train = make_docs("train", p["train"], ["latin"])
    test = make_docs("test", p["test"], ["latin", "han", "kana", "hangul"])
    return Inputs([e.record() for e in entities], train, test)


# -- collective -------------------------------------------------------------------

# Component sizes per document set. Every surface has exactly two KB
# candidates, so a component of n mentions has 3**n joint assignments (KB,
# KB, NIL each) before the tuple budget of 100,000 applies; from 11 mentions
# on, the cap cuts each mention to its top-prior candidate plus NIL.
COLLECTIVE = {
    "full": dict(groups=100, group_size=12, group_words=20, general=600,
                 train_sizes=[1] * 30 + [2] * 20 + [3] * 14 + [4] * 10 + [5] * 6 + [6] * 4 + [7] * 2 + [8],
                 test_sizes=[1] * 16 + [2] * 10 + [3] * 8 + [4] * 6 + [5] * 4 + [6] * 3 + [7] * 2 + [8, 9, 11, 12],
                 nil_mentions=(12, 8), components_per_doc=3),
    "smoke": dict(groups=12, group_size=12, group_words=12, general=100,
                  train_sizes=[1] * 10 + [2] * 6 + [3] * 4 + [4] * 2,
                  test_sizes=[1] * 4 + [2] * 3 + [3] * 2 + [5, 11],
                  nil_mentions=(3, 2), components_per_doc=3),
}


def collective(rng: random.Random, scale: str) -> Inputs:
    """Small KB of topic groups with two-way ambiguous surfaces; documents
    about one group whose mentions chain into components of fixed sizes."""
    p = COLLECTIVE[scale]
    lex = Lexicon(rng)
    general = lex.words(p["general"], 2)
    group_names = [w.capitalize() for w in lex.words(p["groups"], 3)]
    group_words = [lex.words(p["group_words"], 3) for _ in range(p["groups"])]
    fields = [w.capitalize() for w in lex.words(10, 2)]

    slots = [(g, k) for g in range(p["groups"]) for k in range(p["group_size"])]
    # Pair slots of different groups so every surface has exactly two referents.
    while True:
        rng.shuffle(slots)
        if all(slots[i][0] != slots[i + 1][0] for i in range(0, len(slots), 2)):
            break
    surface_of: dict[tuple[int, int], str] = {}
    for i in range(0, len(slots), 2):
        surface = lex.word(3).capitalize()
        surface_of[slots[i]] = surface_of[slots[i + 1]] = surface

    members: list[list[Entity]] = []
    for g in range(p["groups"]):
        row = []
        for k in range(p["group_size"]):
            surface = surface_of[(g, k)]
            private = lex.words(4, 3)
            words = rng.choices(group_words[g], k=24) + private * 2 + rng.choices(general, k=20) + [surface] * 2
            rng.shuffle(words)
            row.append(Entity(
                id=f"C{g:03d}_{k:02d}",
                title=f"{surface} {group_names[g]}",
                surfaces=[surface],
                context=private + group_words[g],
                text=f"{surface} {group_names[g]} . " + _sentences(rng, words),
                categories=[f"Group {group_names[g]}", f"Field {fields[g % len(fields)]}"],
            ))
        members.append(row)
        for target in row:
            sources = [e for e in row if e is not target]
            for source in rng.sample(sources, rng.randint(1, 4)):
                source.links.append((target.surfaces[0], target.id))
    unknown = [w.capitalize() for w in lex.words(40, 3)]

    def make_docs(prefix: str, sizes: list[int], n_nil: int) -> list[dict]:
        units: list[int] = list(sizes) + [0] * n_nil  # 0 marks a NIL mention
        rng.shuffle(units)
        docs = []
        per_doc = p["components_per_doc"]
        for d in range(0, len(units), per_doc):
            g = rng.randrange(p["groups"])
            doc = DocBuilder(f"{prefix}-{d // per_doc:04d}")
            for u, size in enumerate(units[d:d + per_doc]):
                filler = rng.sample(group_words[g], 3) + rng.choices(general, k=5)
                doc.add(("" if u == 0 else " ") + " ".join(filler) + " ")
                if size == 0:
                    person = rng.randrange(len(unknown))
                    doc.mention(unknown[person], _nil_label(person))
                    continue
                for i, entity in enumerate(rng.sample(members[g], size)):
                    if i:
                        doc.add(rng.choice((" and ", " with ", " , ", " then ")))
                    doc.mention(entity.surfaces[0], entity.id)
            doc.add(" " + " ".join(rng.choices(general, k=6)) + " .")
            docs.append(doc.record())
        return docs

    train = make_docs("train", p["train_sizes"], p["nil_mentions"][0])
    test = make_docs("test", p["test_sizes"], p["nil_mentions"][1])
    kb = [e.record() for row in members for e in row]
    return Inputs(kb, train, test)


GENERATORS = {"bulk": bulk, "collective": collective}


def write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def generate(workload: str, seed: int, out: Path, scale: str = "full") -> None:
    """Write kb.jsonl, kb_shuffled.jsonl, train.jsonl and test.jsonl to `out`."""
    rng = random.Random(f"{workload}:{seed}")
    inputs = GENERATORS[workload](rng, scale)
    out.mkdir(parents=True, exist_ok=True)
    write_jsonl(out / "kb.jsonl", inputs.kb)
    shuffled = list(inputs.kb)
    rng.shuffle(shuffled)
    write_jsonl(out / "kb_shuffled.jsonl", shuffled)
    write_jsonl(out / "train.jsonl", inputs.train)
    write_jsonl(out / "test.jsonl", inputs.test)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, "smoke" if args.smoke else "full")
    return 0


if __name__ == "__main__":
    sys.exit(main())
