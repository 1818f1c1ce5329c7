"""Knowledge-base ingestion, the anchor-title index, and candidate retrieval.

The index maps each distinct link anchor string to the entities it points at,
with occurrence counts aggregated over the whole KB. A built index is
immutable and safe to share between concurrent readers; construction is
single-writer.
"""

from __future__ import annotations

import json
import struct
import unicodedata
import zlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .text_vsm import tokenize

# Reserved label for "not in the KB". KB files may not use it as an id.
NIL = "NIL"

_INDEX_MAGIC = b"ELIX"
INDEX_FORMAT_VERSION = 2


class KbError(ValueError):
    """Malformed KB input: duplicate ids, reserved ids, bad records."""


class FormatVersionError(RuntimeError):
    """Serialized artifact has an incompatible format version."""


def normalize_name(name: str) -> str:
    """Canonical form used for anchor, title and redirect lookups.

    Casefolds, treats underscores as spaces, collapses internal whitespace and
    strips leading/trailing punctuation. Nothing script-specific happens here,
    so non-Latin names pass through intact.
    """
    s = " ".join(name.replace("_", " ").casefold().split())
    start, end = 0, len(s)
    while start < end and unicodedata.category(s[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(s[end - 1]).startswith("P"):
        end -= 1
    return s[start:end].strip()


@dataclass(frozen=True)
class KbEntry:
    """One KB entity: page text plus categories, outlinks and redirects."""

    id: str
    title: str
    text: str
    categories: frozenset[str] = frozenset()
    outlinks: tuple[tuple[str, str], ...] = ()  # (anchor text, target id) occurrences
    redirects: frozenset[str] = frozenset()

    @staticmethod
    def from_record(record: dict) -> "KbEntry":
        """Build an entry from one parsed KB record, validating required fields."""
        try:
            eid = record["id"]
            title = record["title"]
            text = record["text"]
        except KeyError as exc:
            raise KbError(f"KB record missing field {exc}") from None
        if not isinstance(eid, str) or not eid:
            raise KbError("KB record id must be a non-empty string")
        if eid == NIL:
            raise KbError(f"KB id {NIL!r} is reserved")
        links = []
        for link in record.get("links", ()):
            try:
                links.append((str(link["anchor"]), str(link["target"])))
            except (KeyError, TypeError):
                raise KbError(f"entry {eid!r}: links need 'anchor' and 'target'") from None
        return KbEntry(
            id=eid,
            title=str(title),
            text=str(text),
            categories=frozenset(str(c) for c in record.get("categories", ())),
            outlinks=tuple(links),
            redirects=frozenset(str(r) for r in record.get("redirects", ())),
        )

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "text": self.text,
            "categories": sorted(self.categories),
            "links": [{"anchor": a, "target": t} for a, t in self.outlinks],
            "redirects": sorted(self.redirects),
        }


class Candidate(NamedTuple):
    entity_id: str
    link_prior: float


@dataclass
class AnchorIndex:
    """Anchor-text index plus the link structures derived from a KB.

    postings map a normalized anchor to (entity id, count) pairs sorted by
    descending count, ties by ascending id, so identical KBs always produce
    identical indexes regardless of record order.
    """

    entries: dict[str, KbEntry]
    postings: dict[str, list[tuple[str, int]]]
    inlinks: dict[str, frozenset[str]]
    redirect_map: dict[str, str]
    outlink_counts: dict[str, dict[str, int]]  # page id -> resolved target id -> link count
    dangling_links: int = 0
    _token_to_anchors: dict[str, list[str]] = field(default_factory=dict, repr=False)
    _anchor_tokens: dict[str, frozenset[str]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._token_to_anchors:
            self._build_token_map()

    def _build_token_map(self) -> None:
        by_token: dict[str, list[str]] = defaultdict(list)
        for anchor in sorted(self.postings):
            toks = frozenset(t.text for t in tokenize(anchor))
            self._anchor_tokens[anchor] = toks
            for tok in toks:
                by_token[tok].append(anchor)
        self._token_to_anchors = dict(by_token)

    @property
    def entry_count(self) -> int:
        return len(self.entries)

    def titles(self, entity_ids: Iterable[str]) -> list[str]:
        """Titles for the given ids, skipping ids without a KB entry."""
        out = []
        for eid in entity_ids:
            entry = self.entries.get(eid)
            if entry is not None:
                out.append(entry.title)
        return out

    # -- retrieval ----------------------------------------------------------

    def _subword_postings(self, key: str) -> list[tuple[str, int]]:
        """Fallback lookup: merge anchors whose token set is a superset or
        subset of the query's token set, summing counts per entity."""
        query_tokens = frozenset(t.text for t in tokenize(key))
        if not query_tokens:
            return []
        matched: set[str] = set()
        # Superset anchors contain every query token.
        candidate_lists = [self._token_to_anchors.get(t, []) for t in query_tokens]
        if all(candidate_lists):
            supersets = set(candidate_lists[0])
            for lst in candidate_lists[1:]:
                supersets &= set(lst)
            matched |= supersets
        # Subset anchors use only query tokens.
        for tok in query_tokens:
            for anchor in self._token_to_anchors.get(tok, []):
                if self._anchor_tokens[anchor] <= query_tokens:
                    matched.add(anchor)
        matched.discard(key)
        merged: Counter[str] = Counter()
        for anchor in matched:
            for eid, count in self.postings[anchor]:
                merged[eid] += count
        return sorted(merged.items(), key=lambda ec: (-ec[1], ec[0]))

    def lookup(self, surface: str) -> list[tuple[str, int]]:
        """Full posting list for a surface: exact anchor match, else sub-word."""
        key = normalize_name(surface)
        plist = self.postings.get(key)
        if plist:
            return plist
        return self._subword_postings(key)

    def fast_search(self, surface: str, k: int) -> list[Candidate]:
        """Top-k candidates for a surface with link priors, NIL appended.

        Priors are computed over the full posting list, not the truncated one.
        An unknown surface yields just the NIL candidate.
        """
        if k < 1:
            raise ValueError("candidate cap k must be >= 1")
        plist = self.lookup(surface)
        candidates: list[Candidate] = []
        if plist:
            total = sum(count for _, count in plist)
            candidates = [Candidate(eid, count / total) for eid, count in plist[:k]]
        candidates.append(Candidate(NIL, 0.0))
        return candidates

    def link_prior(self, surface: str, entity_id: str) -> float:
        """Prior probability of `entity_id` given the surface; 0.0 if unseen."""
        plist = self.lookup(surface)
        total = sum(count for _, count in plist)
        if total == 0:
            return 0.0
        for eid, count in plist:
            if eid == entity_id:
                return count / total
        return 0.0

    def resolve_redirect(self, name: str) -> str | None:
        """Entity id whose title or redirect matches `name`, else None."""
        return self.redirect_map.get(normalize_name(name))

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to a versioned binary blob.

        Only the entries are stored; all derived structures are rebuilt on
        load, so equal KBs serialize to byte-identical blobs.
        """
        payload = {"entries": {eid: entry.to_record() for eid, entry in sorted(self.entries.items())}}
        data = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
        return _INDEX_MAGIC + struct.pack("<I", INDEX_FORMAT_VERSION) + zlib.compress(data.encode("utf-8"), 6)

    @staticmethod
    def from_bytes(blob: bytes) -> "AnchorIndex":
        """Rebuild an index from `to_bytes` output; a corrupt or incompatible
        blob raises FormatVersionError (or KbError for invalid records)."""
        if blob[: len(_INDEX_MAGIC)] != _INDEX_MAGIC:
            raise FormatVersionError("not an anchor-index file")
        try:
            (version,) = struct.unpack_from("<I", blob, len(_INDEX_MAGIC))
            if version != INDEX_FORMAT_VERSION:
                raise FormatVersionError(
                    f"index format version {version}, expected {INDEX_FORMAT_VERSION}"
                )
            payload = json.loads(zlib.decompress(blob[len(_INDEX_MAGIC) + 4:]).decode("utf-8"))
            records = [KbEntry.from_record({"id": eid, **rec}) for eid, rec in payload["entries"].items()]
            return build_index(records)
        except (
            zlib.error,
            struct.error,
            UnicodeDecodeError,
            json.JSONDecodeError,
            KeyError,
            TypeError,
            AttributeError,
        ) as exc:
            raise FormatVersionError(f"corrupt anchor-index file ({type(exc).__name__}: {exc})") from None

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @staticmethod
    def load(path: str) -> "AnchorIndex":
        with open(path, "rb") as fh:
            return AnchorIndex.from_bytes(fh.read())


def build_index(kb_records: Iterable[KbEntry]) -> AnchorIndex:
    """Aggregate KB records into an AnchorIndex.

    Outlink targets resolve against entry ids first, then the redirect map.
    A target that resolves nowhere counts toward the dangling counter and is
    dropped from inlink/outlink derivation, but its anchor occurrence is kept
    in the postings under the raw target id.
    """
    entries: dict[str, KbEntry] = {}
    for record in kb_records:
        if record.id == NIL or not record.id:
            raise KbError(f"invalid KB id {record.id!r}")
        if record.id in entries:
            raise KbError(f"duplicate KB id {record.id!r}")
        entries[record.id] = record

    # Titles claim normalized names first, then redirects; within each pass
    # the smallest entity id wins, which makes the map order-independent.
    redirect_map: dict[str, str] = {}
    for eid in sorted(entries):
        key = normalize_name(entries[eid].title)
        if key and key not in redirect_map:
            redirect_map[key] = eid
    for eid in sorted(entries):
        for alias in sorted(entries[eid].redirects):
            key = normalize_name(alias)
            if key and key not in redirect_map:
                redirect_map[key] = eid

    anchor_counts: dict[str, Counter[str]] = defaultdict(Counter)
    outlink_counts: dict[str, Counter[str]] = {eid: Counter() for eid in entries}
    inlinks: dict[str, set[str]] = defaultdict(set)
    dangling = 0
    for eid in sorted(entries):
        for anchor, target in entries[eid].outlinks:
            if target in entries:
                resolved = target
            else:
                resolved = redirect_map.get(normalize_name(target))
            akey = normalize_name(anchor)
            if akey:
                anchor_counts[akey][resolved if resolved is not None else target] += 1
            if resolved is None:
                dangling += 1
                continue
            outlink_counts[eid][resolved] += 1
            inlinks[resolved].add(eid)

    postings = {
        anchor: sorted(counts.items(), key=lambda ec: (-ec[1], ec[0]))
        for anchor, counts in anchor_counts.items()
    }
    return AnchorIndex(
        entries=entries,
        postings=postings,
        inlinks={eid: frozenset(src) for eid, src in inlinks.items()},
        redirect_map=redirect_map,
        outlink_counts={eid: dict(c) for eid, c in outlink_counts.items()},
        dangling_links=dangling,
    )


def load_kb_jsonl(path: str) -> Iterator[KbEntry]:
    """Stream KB entries from a line-delimited JSON file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise KbError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            yield KbEntry.from_record(record)
