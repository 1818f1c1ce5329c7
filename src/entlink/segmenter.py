"""Partition document mentions into connected components and retrieve each
mention's candidate list."""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .kb_store import AnchorIndex, Candidate
from .text_vsm import tokenize


class DocumentError(ValueError):
    """Malformed document input (bad offsets, unparsable records)."""


@dataclass(frozen=True)
class Mention:
    id: str
    surface: str
    start: int  # byte offsets into the UTF-8 text
    end: int
    gold: str | None = None


@dataclass
class MentionDocument:
    doc_id: str
    text: str
    mentions: list[Mention]

    @staticmethod
    def from_record(record: dict) -> "MentionDocument":
        """Build a document from one parsed record, deriving mention surfaces.

        Mentions are sorted by (start, end, id); offsets must address valid
        UTF-8 slices of the text, and mention ids must be unique in the
        document.
        """
        if not isinstance(record, dict):
            raise DocumentError("a document record must be a JSON object")
        try:
            doc_id = str(record["doc_id"])
            text = str(record["text"])
            raw_mentions = record["mentions"]
        except KeyError as exc:
            raise DocumentError(f"document record missing field {exc}") from None
        if not isinstance(raw_mentions, list):
            raise DocumentError(f"doc {doc_id!r}: 'mentions' must be a list")
        encoded = text.encode("utf-8")
        mentions = []
        seen: set[str] = set()
        for m in raw_mentions:
            try:
                mid, start, end = str(m["id"]), int(m["start"]), int(m["end"])
            except (KeyError, TypeError, ValueError):
                raise DocumentError(f"doc {doc_id!r}: mentions need 'id', 'start', 'end'") from None
            if mid in seen:
                raise DocumentError(f"doc {doc_id!r}: duplicate mention id {mid!r}")
            seen.add(mid)
            if not (0 <= start < end <= len(encoded)):
                raise DocumentError(f"doc {doc_id!r}, mention {mid!r}: span [{start},{end}) out of range")
            try:
                surface = encoded[start:end].decode("utf-8")
            except UnicodeDecodeError:
                raise DocumentError(f"doc {doc_id!r}, mention {mid!r}: span splits a UTF-8 sequence") from None
            gold = m.get("gold")
            mentions.append(Mention(mid, surface, start, end, None if gold is None else str(gold)))
        mentions.sort(key=lambda m: (m.start, m.end, m.id))
        return MentionDocument(doc_id, text, mentions)


@dataclass
class ConnectedComponent:
    id: str
    mentions: list[Mention]  # document order


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:  # path compression
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def connected_components(doc: MentionDocument, gap: int = 4) -> list[ConnectedComponent]:
    """Group mentions whose pairwise token distance is <= gap, transitively.

    Distance counts tokens strictly between the end of the earlier mention and
    the start of the later one; overlapping spans are 0 apart.
    """
    if gap < 0:
        raise ValueError("gap must be >= 0")
    mentions = doc.mentions
    if not mentions:
        return []
    tokens = tokenize(doc.text)
    starts = [t.start for t in tokens]
    ends = [t.end for t in tokens]

    def distance(a: Mention, b: Mention) -> int:
        if b.start <= a.end:
            return 0
        lo = bisect_left(starts, a.end)
        hi = bisect_right(ends, b.start)
        return max(0, hi - lo)

    uf = _UnionFind(len(mentions))
    for i in range(len(mentions)):
        for j in range(i + 1, len(mentions)):
            d = distance(mentions[i], mentions[j])
            if d <= gap:
                uf.union(i, j)
            else:
                # mentions are sorted by start, so distance from i only grows
                break

    groups: dict[int, list[int]] = {}
    for i in range(len(mentions)):
        groups.setdefault(uf.find(i), []).append(i)
    components = []
    for n, root in enumerate(sorted(groups, key=lambda r: min(groups[r]))):
        members = [mentions[i] for i in sorted(groups[root])]
        components.append(ConnectedComponent(id=f"{doc.doc_id}/c{n}", mentions=members))
    return components


def candidate_lists(
    component: ConnectedComponent, index: AnchorIndex, k: int
) -> list[list[Candidate]]:
    """Per-mention lists of the top-k KB candidates, each with NIL appended;
    `fast_search` rejects k < 1."""
    return [index.fast_search(m.surface, k) for m in component.mentions]


def load_documents(path: str) -> list[MentionDocument]:
    """Read mention documents from a line-delimited JSON file; doc ids must
    be unique in the file."""
    docs = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DocumentError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            doc = MentionDocument.from_record(record)
            if doc.doc_id in seen:
                raise DocumentError(f"{path}:{lineno}: duplicate doc_id {doc.doc_id!r}")
            seen.add(doc.doc_id)
            docs.append(doc)
    return docs
