"""Near-duplicate detection across and within corpora.

Books are fingerprinted with normalized title/author strings plus a
128-value MinHash signature over 5-word shingles of the body text. Two
entries are duplicates when title and author both match or when the
estimated content similarity reaches the configured threshold; duplicate
groups are closed transitively (union-find) and one representative is kept
per group. numpy is imported only by the functions that hash, so a run
that reuses every fingerprint does not load it.
"""

import hashlib
import json
import random
import re
from dataclasses import dataclass, field

from .errors import ParseError, TooShortError
from .ingest import strip_diacritics
from .store import index_records, write_if_changed

BASE_SEED = 0x5EED
NUM_HASHES = 128
SHINGLE_SIZE = 5

_ARTICLES = ("a ", "an ", "the ")
_NON_ALNUM = re.compile(r"[^a-z0-9]+")
_SPACE = re.compile(r"\s")
# Characters of body text normalized at a time, and shingles hashed at a
# time: a fingerprint's scratch memory does not grow with the book.
_PIECE = 4096
_BLOCK = 256


def normalize_name(value):
    """Deterministic title/author normalization for exact matching."""
    lowered = strip_diacritics(value or "").lower()
    collapsed = _NON_ALNUM.sub(" ", lowered).strip()
    for article in _ARTICLES:
        if collapsed.startswith(article):
            collapsed = collapsed[len(article):]
            break
    return re.sub(r"\s+", " ", collapsed)


def _shingle_runs(text, shingle_size):
    """Every window of ``shingle_size`` consecutive normalized words, repeats
    included, as one list per piece of text.

    The text is normalized and split a piece at a time, each piece ending
    at a whitespace character, so no list of every word or shingle of the
    book is built. Whitespace is a word break before and after
    normalization, so the words are those of the whole text.
    """
    tail = []
    count = 0
    start = 0
    while start < len(text):
        cut = _SPACE.search(text, start + _PIECE)
        end = cut.start() if cut else len(text)
        piece = strip_diacritics(text[start:end]).lower()
        words = _NON_ALNUM.sub(" ", piece).split()
        count += len(words)
        words = tail + words
        yield [" ".join(words[i:i + shingle_size])
               for i in range(len(words) - shingle_size + 1)]
        tail = words[max(0, len(words) - shingle_size + 1):]
        start = end
    if count < shingle_size:
        raise TooShortError(
            f"text has {count} words, need at least {shingle_size}")


def shingle_set(text, shingle_size=SHINGLE_SIZE):
    """Set of consecutive word windows over the normalized text."""
    shingles = set()
    for run in _shingle_runs(text, shingle_size):
        shingles.update(run)
    return shingles


@dataclass
class BookFingerprint:
    normalized_title: str
    normalized_author: str
    signature: tuple

    def __post_init__(self):
        self.signature = tuple(int(v) for v in self.signature)


def _hash_params(num_hashes, seed):
    import numpy as np

    rnd = random.Random(seed)
    a = np.array([rnd.getrandbits(64) | 1 for _ in range(num_hashes)],
                 dtype=np.uint64)
    b = np.array([rnd.getrandbits(64) for _ in range(num_hashes)],
                 dtype=np.uint64)
    return a, b


def _base_hashes(shingles):
    """Each shingle's 8-byte BLAKE2b digest as a little-endian uint64, in
    the given order: a signature takes minima, which ignore order and
    repeats."""
    import numpy as np

    digests = b"".join(hashlib.blake2b(shingle.encode("utf-8"),
                                       digest_size=8).digest()
                       for shingle in shingles)
    return np.frombuffer(digests, dtype="<u8")


def fingerprint(text, title="", author="", num_hashes=NUM_HASHES,
                shingle_size=SHINGLE_SIZE, seed=BASE_SEED):
    """MinHash fingerprint of a body text plus normalized metadata.

    Each signature position is the minimum of an independent 64-bit
    multiply-shift hash over the shingle set; all hash functions derive
    from ``seed``, so identical texts under one seed always produce
    identical signatures. ``BASE_SEED`` is the library default; the
    pipeline passes the run seed (``config.seed``), so ``--seed`` changes
    the signatures, and the dedup memo key in the index records it.
    Shingles are hashed ``_BLOCK`` at a time into one preallocated
    ``_BLOCK x num_hashes`` array, so the scratch memory is the same for
    every book.
    """
    import numpy as np

    a, b = _hash_params(num_hashes, seed)
    signature = np.full(num_hashes, np.iinfo(np.uint64).max, dtype=np.uint64)
    block = np.empty((_BLOCK, num_hashes), dtype=np.uint64)
    for run in _shingle_runs(text, shingle_size):
        base = _base_hashes(run)
        for lo in range(0, len(base), _BLOCK):
            chunk = base[lo:lo + _BLOCK]
            rows = block[:len(chunk)]
            np.multiply(chunk[:, None], a, out=rows)
            rows += b
            np.minimum(signature, rows.min(axis=0), out=signature)
    return BookFingerprint(
        normalized_title=normalize_name(title),
        normalized_author=normalize_name(author),
        signature=tuple(int(v) for v in signature),
    )


def estimate_similarity(a, b):
    """Estimated Jaccard similarity: fraction of matching signature positions."""
    if len(a.signature) != len(b.signature):
        raise ValueError(
            f"signature length mismatch: {len(a.signature)} vs {len(b.signature)}")
    matches = sum(1 for x, y in zip(a.signature, b.signature) if x == y)
    return matches / len(a.signature)


# -- corpus index -----------------------------------------------------------------


@dataclass
class CorpusEntry:
    book_id: str
    title: str = ""
    author: str = ""
    year: int | None = None
    corpus: str = ""
    text_length: int = 0
    fingerprint: BookFingerprint | None = None
    representative_of: str | None = None
    # Memo key: the ingest body digest and (hashes, shingle size, seed).
    body_sha256: str | None = None
    minhash: tuple | None = None

    @property
    def is_duplicate(self):
        return self.representative_of is not None


@dataclass
class CorpusIndex:
    entries: list = field(default_factory=list)

    def save(self, path, digests=None):
        """Write one JSON record per line, a record at a time; ``digests``
        gets the file's digest (``write_if_changed``)."""
        write_if_changed(path, (json.dumps(_record(entry), sort_keys=True)
                                + "\n" for entry in self.entries), digests)

    @classmethod
    def load(cls, path):
        """Read an index a line at a time; a malformed line or record
        raises ParseError."""
        index = cls()
        for number, record in index_records(path):
            try:
                index.entries.append(_entry_from_record(record))
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{path}: bad record for {record['id']}: "
                                 f"{exc!r}", line=number) from exc
        return index


def _record(entry):
    """The index record of ``entry``, as ``CorpusIndex.save`` writes it."""
    record = {
        "id": entry.book_id,
        "title": entry.title,
        "author": entry.author,
        "year": entry.year,
        "corpus": entry.corpus,
        "text_length": entry.text_length,
        "representative_of": entry.representative_of,
    }
    if entry.fingerprint is not None:
        record["normalized_title"] = entry.fingerprint.normalized_title
        record["normalized_author"] = entry.fingerprint.normalized_author
        record["signature"] = list(entry.fingerprint.signature)
    if entry.body_sha256 is not None:
        record["body_sha256"] = entry.body_sha256
        record["minhash"] = list(entry.minhash)
    return record


def _entry_from_record(record):
    fp = None
    if "signature" in record:
        fp = BookFingerprint(
            normalized_title=record["normalized_title"],
            normalized_author=record["normalized_author"],
            signature=tuple(record["signature"]),
        )
    minhash = record.get("minhash")
    return CorpusEntry(
        book_id=record["id"],
        title=record.get("title", ""),
        author=record.get("author", ""),
        year=record.get("year"),
        corpus=record.get("corpus", ""),
        text_length=record.get("text_length", 0),
        fingerprint=fp,
        representative_of=record.get("representative_of"),
        body_sha256=record.get("body_sha256"),
        minhash=tuple(minhash) if minhash is not None else None,
    )


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def dedup_corpus(index, title_author_match=True, content_threshold=0.8):
    """Mark duplicate entries, keeping one representative per group.

    Entries group together when their normalized title and author both
    match (and are non-empty) or their estimated content similarity
    reaches ``content_threshold``; grouping is transitive. The
    representative is the longest text, ties going to the smaller id.
    """
    entries = index.entries
    order = sorted(range(len(entries)), key=lambda i: entries[i].book_id)
    uf = _UnionFind(len(entries))
    for oi in range(len(order)):
        i = order[oi]
        fp_i = entries[i].fingerprint
        if fp_i is None:
            continue
        for oj in range(oi + 1, len(order)):
            j = order[oj]
            fp_j = entries[j].fingerprint
            if fp_j is None:
                continue
            same_meta = (title_author_match
                         and fp_i.normalized_title
                         and fp_i.normalized_author
                         and fp_i.normalized_title == fp_j.normalized_title
                         and fp_i.normalized_author == fp_j.normalized_author)
            if same_meta or estimate_similarity(fp_i, fp_j) >= content_threshold:
                uf.union(i, j)

    groups = {}
    for i in range(len(entries)):
        groups.setdefault(uf.find(i), []).append(i)
    for members in groups.values():
        if len(members) < 2:
            entries[members[0]].representative_of = None
            continue
        rep = min(members,
                  key=lambda i: (-entries[i].text_length, entries[i].book_id))
        for i in members:
            entries[i].representative_of = (
                None if i == rep else entries[rep].book_id)
    return index
