"""Mention documents and their partition into connected components.

A document tokenizes its text once, on first use, and both the components
and the features read those tokens. The components come from one pass over
the mentions sorted by start, each a contiguous run of them.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

from .config import PipelineConfig
from .text_vsm import TokenStream, tokenize

_START, _END = attrgetter("start"), attrgetter("end")


class DocumentError(ValueError):
    """Malformed document input (bad offsets, unparsable records)."""


@dataclass(frozen=True)
class Mention:
    id: str
    surface: str
    start: int  # byte offsets into the UTF-8 text
    end: int
    gold: str | None = None


@dataclass(frozen=True)
class MentionDocument:
    doc_id: str
    text: str
    mentions: list[Mention]

    @cached_property
    def tokens(self) -> TokenStream:
        """The text's tokens with byte offsets, computed on first use."""
        return tokenize(self.text)

    @staticmethod
    def from_record(record: dict) -> "MentionDocument":
        """Build a document from one parsed record, deriving mention surfaces.

        Mentions are sorted by (start, end, id); offsets must be integers
        that address valid UTF-8 slices of the text, and mention ids must be
        unique in the document. No value is coerced: ids and text must be
        strings, and a gold label a string or null.
        """
        if not isinstance(record, dict):
            raise DocumentError("a document record must be a JSON object")
        try:
            doc_id, text, raw_mentions = record["doc_id"], record["text"], record["mentions"]
        except KeyError as exc:
            raise DocumentError(f"document record missing field {exc}") from None
        if not isinstance(doc_id, str) or not isinstance(text, str):
            raise DocumentError("a document's 'doc_id' and 'text' must be strings")
        if not isinstance(raw_mentions, list):
            raise DocumentError(f"doc {doc_id!r}: 'mentions' must be a list")
        try:
            encoded = text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DocumentError(f"doc {doc_id!r}: text has no UTF-8 encoding ({exc})") from None
        mentions = []
        seen: set[str] = set()
        for m in raw_mentions:
            try:
                mid, start, end, gold = m["id"], m["start"], m["end"], m.get("gold")
            except (KeyError, TypeError):
                raise DocumentError(f"doc {doc_id!r}: mentions need 'id', 'start', 'end'") from None
            if not isinstance(mid, str):
                raise DocumentError(f"doc {doc_id!r}: mention id {mid!r} is not a string")
            if type(start) is not int or type(end) is not int:  # a bool is not an offset
                raise DocumentError(f"doc {doc_id!r}, mention {mid!r}: 'start' and 'end' must be integers")
            if gold is not None and not isinstance(gold, str):
                raise DocumentError(f"doc {doc_id!r}, mention {mid!r}: 'gold' must be a string or null")
            if mid in seen:
                raise DocumentError(f"doc {doc_id!r}: duplicate mention id {mid!r}")
            seen.add(mid)
            if not (0 <= start < end <= len(encoded)):
                raise DocumentError(f"doc {doc_id!r}, mention {mid!r}: span [{start},{end}) out of range")
            try:
                surface = encoded[start:end].decode("utf-8")
            except UnicodeDecodeError:
                raise DocumentError(f"doc {doc_id!r}, mention {mid!r}: span splits a UTF-8 sequence") from None
            mentions.append(Mention(mid, surface, start, end, gold))
        mentions.sort(key=lambda m: (m.start, m.end, m.id))
        return MentionDocument(doc_id, text, mentions)


@dataclass
class ConnectedComponent:
    id: str
    mentions: list[Mention]  # a contiguous run of the document's mentions


def connected_components(doc: MentionDocument, gap: int = PipelineConfig.gap) -> list[ConnectedComponent]:
    """Group mentions whose pairwise token distance is <= gap, transitively.

    Distance counts tokens strictly between the end of the earlier mention and
    the start of the later one; overlapping spans are 0 apart. One pass over
    the mentions in start order finds the components: a mention joins the
    open component when it is within `gap` of that component's furthest end,
    since the distance only shrinks as the earlier end grows; and it cannot
    join an earlier component, since the distance only grows as the later
    start grows. Each component is therefore a contiguous run of
    `doc.mentions`.
    """
    if gap < 0:
        raise ValueError("gap must be >= 0")
    tokens = doc.tokens
    runs: list[list[Mention]] = []
    reach = 0  # furthest end in the open run
    for m in doc.mentions:
        # Tokens that end by m.start, less those that start before `reach`:
        # the tokens in between if there are any, else at most 0.
        between = bisect_right(tokens, m.start, key=_END) - bisect_left(tokens, reach, key=_START)
        if runs and between <= gap:
            runs[-1].append(m)
            reach = max(reach, m.end)
        else:
            runs.append([m])
            reach = m.end
    return [ConnectedComponent(id=f"{doc.doc_id}/c{n}", mentions=run) for n, run in enumerate(runs)]


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
                doc = MentionDocument.from_record(json.loads(line))
            except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
                raise DocumentError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            except DocumentError as exc:
                raise DocumentError(f"{path}:{lineno}: {exc}") from None
            if doc.doc_id in seen:
                raise DocumentError(f"{path}:{lineno}: duplicate doc_id {doc.doc_id!r}")
            seen.add(doc.doc_id)
            docs.append(doc)
    return docs
