"""Knowledge-base ingestion, the anchor-title index, and candidate retrieval.

The index maps each distinct link anchor string to the entities it points at,
with occurrence counts aggregated over the whole KB. A built index is
immutable and safe to share between concurrent readers; construction is
single-writer. Building one, which loading one does too, and serializing
one pause the process-wide cyclic garbage collector and restore its state
afterwards. Each distinct id, anchor and target string, and each distinct set
of category or redirect names, is held once however many entries use it.

An index file (format 4) is the header, `ELIX` and the format number, then
one zlib stream holding the KB entries in id order, cut into groups of
`_GROUP_SIZE`. Each group is six lines, each a compact JSON array with one
value per entry: the ids, the titles, the texts, the sorted categories, the
sorted redirects, and the links flattened to `[anchor, target, ...]` in
record order. Laid out by column, the body deflates smaller than one record
per line, so a cheap deflate level still makes a smaller file. Each group is
also one deflate block, made without the history of the groups before it
and ended on a byte boundary: the blocks join into one ordinary zlib stream,
and each can be inflated on its own. Everything else in the index is
derived again on load.
"""

from __future__ import annotations

import codecs
import gc
import io
import json
import math
import os
import re
import struct
import unicodedata
import zlib
from collections import Counter, defaultdict, deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .text_vsm import words

# Reserved label for "not in the KB". KB files may not use it, nor any NIL
# cluster label (NIL + digits), as an id.
NIL = "NIL"
_NIL_PATTERN = re.compile(r"NIL\d*")


def is_nil_label(label: str) -> bool:
    """True for the bare NIL label and for cluster-qualified ones (NIL0042)."""
    return bool(_NIL_PATTERN.fullmatch(label))


_INDEX_MAGIC = b"ELIX"
INDEX_FORMAT_VERSION = 4
_ZLIB_HEADER = b"\x78\x5e"  # deflate, 32 KiB window, levels 2 to 5
_GROUP_SIZE = 1024  # entries per group of column lines, and per deflate block
_CHUNK_SIZE = 1 << 18  # compressed bytes read, and at most as many inflated, per step


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


# The categories or redirects of every entry that has none: one shared object
# rather than an empty frozenset per entry.
_NO_NAMES: frozenset[str] = frozenset()


class KbEntry(NamedTuple):
    """One KB entity: page text plus categories, outlinks and redirects."""

    id: str
    title: str
    text: str
    categories: frozenset[str] = _NO_NAMES
    outlinks: tuple[tuple[str, str], ...] = ()  # (anchor text, target id) occurrences
    redirects: frozenset[str] = _NO_NAMES

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
    descending count, ties by ascending id, and inlinks map an entity id to
    the ids of the pages that link to it, in ascending order, each once, so
    identical KBs always produce identical indexes regardless of record
    order.

    A surface that is no anchor falls back on sub-word matches: the index
    lists each anchor once under each of its distinct words and records its
    count of distinct words, and an anchor holding `h` of a query's distinct
    words is a superset when `h` is the query's count, a subset when its own.
    """

    entries: dict[str, KbEntry]
    postings: dict[str, list[tuple[str, int]]]
    inlinks: dict[str, tuple[str, ...]]  # entity id -> ids of the pages that link to it, sorted
    redirect_map: dict[str, str]
    outlink_counts: dict[str, dict[str, int]]  # page id -> resolved target id -> link count
    dangling_links: int = 0
    _word_anchors: dict[str, list[str]] = field(init=False, repr=False)  # word -> anchors holding it, each once
    _word_counts: dict[str, int] = field(init=False, repr=False)  # anchor -> its number of distinct words

    def __post_init__(self) -> None:
        # Derived eagerly: built on first use, it would charge its cost to
        # the first training or link pass instead of the index build or load.
        by_word: dict[str, list[str]] = defaultdict(list)
        self._word_counts = {}
        for anchor in self.postings:
            distinct = set(words(anchor))
            self._word_counts[anchor] = len(distinct)
            for word in distinct:
                by_word[word].append(anchor)
        self._word_anchors = dict(by_word)

    # -- retrieval ----------------------------------------------------------

    def _subword_postings(self, key: str) -> list[tuple[str, int]]:
        """Fallback for a key that is no anchor: the postings of the anchors
        whose distinct words are a superset or a subset of the key's, counts
        summed per entity. An anchor's hits `h` under the key's distinct
        words are the key's word count for a superset and the anchor's own
        for a subset; an anchor or a key without words matches nothing."""
        query = set(words(key))
        hits: Counter[str] = Counter()
        for word in query:
            hits.update(self._word_anchors.get(word, ()))
        merged: Counter[str] = Counter()
        for anchor, h in hits.items():
            if h == len(query) or h == self._word_counts[anchor]:
                for eid, count in self.postings[anchor]:
                    merged[eid] += count
        return sorted(merged.items(), key=_posting_order)

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

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to a versioned binary blob: the header, then one zlib
        stream of the entries' column lines, group by group in id order.

        Each group's six lines are one block, deflated at level 4 on a
        thread pool as the groups are made, a few in flight at a time. A
        block starts with no history and ends on a byte boundary (a sync
        flush, the finish for the last), so the blocks join into one
        ordinary zlib stream whatever the number of workers, and each
        inflates alone. Derived structures are rebuilt on load, so equal
        KBs serialize to byte-identical blobs. The cyclic collector is
        paused meanwhile: the lines are made and dropped as they go, so its
        passes would only scan the index's objects and free nothing. The
        blob is gathered in a `BytesIO`, whose `getvalue` hands its buffer
        over uncopied.
        """
        with _collector_paused():
            ids = sorted(self.entries)
            # An empty body is one empty block: its one group's columns are
            # empty, and make no lines.
            starts = range(0, len(ids), _GROUP_SIZE) or range(1)
            blob = io.BytesIO()
            blob.write(_INDEX_MAGIC + struct.pack("<I", INDEX_FORMAT_VERSION) + _ZLIB_HEADER)
            checksum = zlib.adler32(b"")
            workers = os.cpu_count() or 1
            in_flight: deque[Future[bytes]] = deque()
            with ThreadPoolExecutor(workers) as pool:
                for start in starts:
                    columns = _columns([self.entries[eid] for eid in ids[start:start + _GROUP_SIZE]])
                    block = b"".join(
                        (json.dumps(column, ensure_ascii=False, separators=(",", ":")) + "\n").encode("utf-8")
                        for column in columns
                        if column
                    )
                    checksum = zlib.adler32(block, checksum)
                    mode = zlib.Z_FINISH if start == starts[-1] else zlib.Z_SYNC_FLUSH
                    in_flight.append(pool.submit(_deflate_block, block, mode))
                    if len(in_flight) > workers:
                        blob.write(in_flight.popleft().result())
                while in_flight:
                    blob.write(in_flight.popleft().result())
            blob.write(struct.pack(">I", checksum))
            return blob.getvalue()

    @staticmethod
    def from_bytes(blob: bytes) -> "AnchorIndex":
        """Rebuild an index from `to_bytes` output, or from any blob of the
        same format, however its zlib stream was deflated.

        The body is inflated a chunk at a time and its column lines go to the
        group reader as they come, so it is never held whole. A corrupt
        stream (damaged, truncated, or followed by more bytes) or an
        incompatible blob raises FormatVersionError, an invalid group KbError
        naming its line.
        """
        if blob[: len(_INDEX_MAGIC)] != _INDEX_MAGIC:
            raise FormatVersionError("not an anchor-index file")
        try:
            (version,) = struct.unpack_from("<I", blob, len(_INDEX_MAGIC))
        except struct.error as exc:
            raise FormatVersionError(f"corrupt anchor-index file ({exc})") from None
        if version != INDEX_FORMAT_VERSION:
            raise FormatVersionError(
                f"index format version {version}, expected {INDEX_FORMAT_VERSION}; rebuild it with build-index"
            )
        lines = _body_lines(memoryview(blob)[len(_INDEX_MAGIC) + 4:])
        try:
            return build_index(_read_groups(lines, "anchor-index body"))
        except KbError:
            # A damaged stream can inflate to a bad group before its checksum
            # is read: finish the stream, so that damage is reported as such.
            for _ in lines:
                pass
            raise

    def save(self, path: str) -> None:
        # Serialized before the file is opened: a failure leaves it as it was.
        blob = self.to_bytes()
        with open(path, "wb") as fh:
            fh.write(blob)

    @staticmethod
    def load(path: str) -> "AnchorIndex":
        """Read a saved index; its errors are those of `from_bytes`, prefixed
        with the path."""
        with open(path, "rb") as fh:
            blob = fh.read()
        try:
            return AnchorIndex.from_bytes(blob)
        except (KbError, FormatVersionError) as exc:
            raise type(exc)(f"{path}: {exc}") from None


def build_index(kb_records: Iterable[KbEntry]) -> AnchorIndex:
    """Aggregate KB records into an AnchorIndex.

    Outlink targets resolve against entry ids first, then the redirect map.
    A target that resolves nowhere counts toward the dangling counter and is
    dropped from inlink/outlink derivation, but its anchor occurrence is kept
    in the postings under the raw target id.

    The process-wide cyclic collector is paused while the records are read
    (they may be parsed as they stream in) and aggregated, and its state is
    restored on return or error: everything built here lives on, so the
    collector's passes would free nothing. If the collector was enabled and
    the build left at least its full-collection interval of new container
    objects (the product of `gc.get_threshold()`), one full collection runs
    before returning, so the next caller does not inherit the pending passes.
    """
    with _collector_paused() as enabled:
        start = gc.get_count()[0]
        index = _aggregate(kb_records)
        if enabled and 0 < math.prod(gc.get_threshold()) <= gc.get_count()[0] - start:
            gc.collect()
        return index


@contextmanager
def _collector_paused() -> Iterator[bool]:
    """Pause the process-wide cyclic collector for the block, which is told
    whether it was enabled, and restore that state on the way out."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield enabled
    finally:
        if enabled:
            gc.enable()


def _aggregate(kb_records: Iterable[KbEntry]) -> AnchorIndex:
    """`build_index` itself, which runs it with the collector paused.

    Each distinct title, alias and anchor is normalized once, and each
    distinct link target resolved once (`functools.cache`). After the
    redirect map, one pass over the entries in id order derives the rest,
    holding no second copy of the links: each normalized anchor counts its
    postings in a small dict, replaced by its sorted list at the end, and
    each page counts its outlinks in place. A page joins a target's inlinks
    at its first link there, so with the ids in order each tuple of inlinks
    comes out sorted, with no duplicates.
    """
    entries: dict[str, KbEntry] = {}
    for record in kb_records:
        if not record.id or is_nil_label(record.id):
            raise KbError(f"invalid KB id {record.id!r}")
        if record.id in entries:
            raise KbError(f"duplicate KB id {record.id!r}")
        entries[record.id] = record
    ids = sorted(entries)

    keys = cache(normalize_name)
    # Titles claim normalized names first, then redirects; within each pass
    # the smallest entity id wins, which makes the map order-independent.
    redirect_map: dict[str, str] = {}
    for eid in ids:
        redirect_map.setdefault(keys(entries[eid].title), eid)
    for eid in ids:
        for alias in entries[eid].redirects:
            redirect_map.setdefault(keys(alias), eid)
    redirect_map.pop("", None)

    resolve = cache(lambda target: target if target in entries else redirect_map.get(keys(target)))
    postings: dict = {}  # normalized anchor -> {posted target: count}, then its sorted list
    outlink_counts: dict[str, dict[str, int]] = {}
    inlinks: dict = {}  # target -> [source, ...], then a tuple
    dangling = 0
    for source in ids:
        counts = outlink_counts[source] = {}
        for anchor, target in entries[source].outlinks:
            resolved = resolve(target)
            akey = keys(anchor)
            if akey:
                # A link that resolves nowhere is posted under its raw target.
                posted = target if resolved is None else resolved
                tally = postings.get(akey)
                if tally is None:
                    postings[akey] = {posted: 1}
                else:
                    tally[posted] = tally.get(posted, 0) + 1
            if resolved is None:
                dangling += 1
            elif resolved in counts:
                counts[resolved] += 1
            else:
                counts[resolved] = 1
                linked = inlinks.get(resolved)
                if linked is None:
                    inlinks[resolved] = [source]
                else:
                    linked.append(source)
    # Replaced in place: each tally or list is freed as its value replaces it.
    for akey, tally in postings.items():
        postings[akey] = sorted(tally.items(), key=_posting_order)
    for target, linked in inlinks.items():
        inlinks[target] = tuple(linked)

    return AnchorIndex(
        entries=entries,
        postings=postings,
        inlinks=inlinks,
        redirect_map=redirect_map,
        outlink_counts=outlink_counts,
        dangling_links=dangling,
    )


def _posting_order(entry: tuple[str, int]) -> tuple[int, str]:
    """Descending count, then ascending id."""
    return -entry[1], entry[0]


def _columns(group: list[KbEntry]) -> tuple[list, ...]:
    """The six columns of a group of entries, in `_FIELDS` order."""
    return (
        [e.id for e in group],
        [e.title for e in group],
        [e.text for e in group],
        [sorted(e.categories) for e in group],
        [sorted(e.redirects) for e in group],
        [list(chain.from_iterable(e.outlinks)) for e in group],
    )


def _deflate_block(block: bytes, mode: int) -> bytes:
    """One group's lines as raw deflate data with no history, ended by
    `mode`. It runs on a worker thread and calls zlib, which releases the
    interpreter lock, and nothing else. Level 4 is the cheapest at which the
    columnar body still deflates smaller than the record lines of format 3
    did at level 6."""
    packer = zlib.compressobj(4, zlib.DEFLATED, -15, 9)
    return packer.compress(block) + packer.flush(mode)


def _inflate(body: memoryview) -> Iterator[bytes]:
    """Inflate one zlib stream a chunk at a time. A damaged or truncated
    stream, or bytes after its end, raise zlib.error once reached."""
    unpacker = zlib.decompressobj()
    read = 0
    while read < len(body) and not unpacker.eof:
        data = body[read:read + _CHUNK_SIZE]
        read += len(data)
        while data and not unpacker.eof:
            yield unpacker.decompress(data, _CHUNK_SIZE)
            data = unpacker.unconsumed_tail
    if not unpacker.eof:
        raise zlib.error("the stream is truncated")
    if unpacker.unused_data or read < len(body):
        raise zlib.error("bytes follow the end of the stream")


def _body_lines(body: memoryview) -> Iterator[str]:
    """The lines of a zlib stream of UTF-8 text, inflated and split as it goes,
    the last one also when no newline ends it; a corrupt stream raises
    FormatVersionError once reached."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    partial: list[str] = []  # the pieces of a line that spans chunks
    try:
        for chunk in _inflate(body):
            # "\n", not splitlines(): U+2028 and U+0085 stay raw inside records.
            *lines, tail = decoder.decode(chunk).split("\n")
            if lines:
                lines[0] = "".join(partial) + lines[0]
                partial.clear()
                yield from lines
            partial.append(tail)
        tail = "".join(partial) + decoder.decode(b"", final=True)
        if tail:
            yield tail
    except (zlib.error, UnicodeDecodeError) as exc:
        raise FormatVersionError(f"corrupt anchor-index file ({type(exc).__name__}: {exc})") from None


# The fields of an entry, in the order of an index group's columns.
_FIELDS = ("id", "title", "text", "categories", "redirects", "links")


def _strings(values: Iterable) -> bool:
    return set(map(type, values)) <= {str}


def _string_lists(column: Sequence) -> bool:
    return set(map(type, column)) <= {list} and _strings(chain.from_iterable(column))


def _link_lists(column: Sequence) -> bool:
    return _string_lists(column) and not any(len(links) % 2 for links in column)


# The rule that every value of a field keeps, checked over a whole column at
# once, and what a value that breaks it says.
_RULES = {
    "title": (_strings, "'title' and 'text' must be strings"),
    "text": (_strings, "'title' and 'text' must be strings"),
    "categories": (_string_lists, "'categories' must be a list of strings"),
    "redirects": (_string_lists, "'redirects' must be a list of strings"),
    "links": (_link_lists, "links must be pairs of an anchor and a target string"),
}


def _faults(columns: Sequence[Sequence]) -> Iterator[tuple[int, int, str]]:
    """(column, row, message) of the first value to break its field's rule
    in each column at fault, columns in `_FIELDS` order. The columns are
    checked whole, and only one at fault is searched value by value."""
    ids = columns[0]
    if not _strings(ids) or "" in ids:
        row = next(i for i, eid in enumerate(ids) if type(eid) is not str or not eid)
        yield 0, row, "KB record id must be a non-empty string"
    nil = next((i for i, eid in enumerate(ids) if type(eid) is str and eid[:3] == "NIL" and is_nil_label(eid)), None)
    if nil is not None:
        yield 0, nil, f"KB id {ids[nil]!r} is reserved for NIL labels"
    for number, (name, column) in enumerate(zip(_FIELDS[1:], columns[1:]), start=1):
        keeps, message = _RULES[name]
        if not keeps(column):
            row = next(i for i, value in enumerate(column) if not keeps([value]))
            yield number, row, f"entry {ids[row]!r}: {message}"


def _entry(memo: dict, eid: str, title: str, text: str, categories: list, redirects: list, links: list) -> KbEntry:
    """An entry from field values that keep their rules, its links flat.

    `memo`, one `_memo()` per read, maps each id, anchor and target string,
    and each set of category or redirect names, to its first occurrence,
    which every equal one is replaced with: the entries share one object per
    distinct value. Titles and texts are kept as they come.
    """
    pairs = map(memo.setdefault, links, links)
    categories, redirects = frozenset(categories), frozenset(redirects)
    # Positional arguments: keywords cost a KB of 20,000 entries about 8 ms.
    return KbEntry(
        memo.setdefault(eid, eid),
        title,
        text,
        memo.setdefault(categories, categories),
        tuple(zip(pairs, pairs)),
        memo.setdefault(redirects, redirects),
    )


def _memo() -> dict:
    """A memo for `_entry` that starts with the one shared empty name set."""
    return {_NO_NAMES: _NO_NAMES}


_ANCHOR_TARGET = itemgetter("anchor", "target")


def _record_values(record: dict) -> tuple:
    """The field values of a parsed KB record, in `_FIELDS` order and its
    links flattened, for `_faults` to check. Raises KbError for a record
    that is not an object with an id, a title, a text and, if any, a list
    of links that each have an anchor and a target."""
    if not isinstance(record, dict):
        raise KbError(f"KB record must be a JSON object, not {type(record).__name__}")
    try:
        eid = record["id"]
        title = record["title"]
        text = record["text"]
    except KeyError as exc:
        raise KbError(f"KB record missing field {exc}") from None
    links = record.get("links", [])
    if not isinstance(links, list):
        raise KbError(f"entry {eid!r}: 'links' must be a list")
    try:
        flat = list(chain.from_iterable(map(_ANCHOR_TARGET, links)))
    except (KeyError, TypeError):
        raise KbError(f"entry {eid!r}: links need 'anchor' and 'target'") from None
    return eid, title, text, record.get("categories", []), record.get("redirects", []), flat


def _read_groups(lines: Iterable[str], source: str) -> Iterator[KbEntry]:
    """KB entries from the column lines of an index body, group by group; a
    bad line raises KbError prefixed with `source` and its line number."""
    seen: set[str] = set()
    memo = _memo()
    group: list[list] = []
    lineno = 0
    for lineno, line in enumerate(lines, start=1):
        try:
            try:
                column = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
                raise KbError(f"invalid JSON ({exc})") from None
            name = _FIELDS[len(group)]
            if type(column) is not list:
                raise KbError(f"the {name} column must be a JSON array, not {type(column).__name__}")
            if group and len(column) != len(group[0]):
                raise KbError(f"the {name} column has {len(column)} values for {len(group[0])} ids")
        except KbError as exc:
            raise KbError(f"{source}:{lineno}: {exc}") from None
        group.append(column)
        if len(group) < len(_FIELDS):
            continue
        first = lineno - len(_FIELDS) + 1
        yield from _checked_group(group, lambda column, row: first + column, source, seen, memo)
        group = []
    if group:
        raise KbError(f"{source}:{lineno}: the body ends after {len(group)} of a group's {len(_FIELDS)} lines")


def _checked_group(columns: Sequence, line: Callable, source: str, seen: set, memo: dict) -> Iterator[KbEntry]:
    """The entries of one group of columns, in `_FIELDS` order, made with
    `memo` (see `_entry`); each id joins `seen`, the read's ids so far. Of
    the values that break their field's rule (`_faults`) and the first id
    already seen, the one on the earliest line raises KbError prefixed with
    `source` and that line, `line(column, row)`."""
    faults = list(_faults(columns))
    for row, eid in enumerate(columns[0]):
        if type(eid) is str:  # any other id is a fault of its own
            if eid in seen:
                faults.append((0, row, f"duplicate KB id {eid!r}"))
                break
            seen.add(eid)
    fault = min(faults, key=lambda f: line(f[0], f[1]), default=None)
    if fault is not None:
        raise KbError(f"{source}:{line(fault[0], fault[1])}: {fault[2]}")
    return map(_entry, repeat(memo), *columns)


def load_kb_jsonl(path: str) -> Iterator[KbEntry]:
    """Stream KB entries from a line-delimited JSON file, skipping blank
    lines. The records are checked `_GROUP_SIZE` at a time, and the first
    bad line raises KbError prefixed with the path and its line number."""
    rows: list[tuple] = []
    linenos: list[int] = []
    seen: set[str] = set()
    memo = _memo()

    def checked() -> Iterator[KbEntry]:
        """The entries of the records read since the last call."""
        columns = tuple(zip(*rows)) or ((),) * len(_FIELDS)
        entries = _checked_group(columns, lambda column, row: linenos[row], path, seen, memo)
        rows.clear()
        linenos.clear()
        return entries

    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values = _record_values(json.loads(line))
            except (json.JSONDecodeError, RecursionError, KbError) as exc:  # RecursionError: nested too deep
                yield from checked()  # an earlier bad record is reported first
                detail = exc if isinstance(exc, KbError) else f"invalid JSON ({exc})"
                raise KbError(f"{path}:{lineno}: {detail}") from None
            rows.append(values)
            linenos.append(lineno)
            if len(rows) == _GROUP_SIZE:
                yield from checked()
    yield from checked()
