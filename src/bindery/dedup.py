"""Near-duplicate detection across and within corpora.

Books are fingerprinted with normalized title/author strings plus a
128-value MinHash signature over 5-word shingles of the body text. Two
entries are duplicates when title and author both match or when the
estimated content similarity reaches the configured threshold; duplicate
groups are closed transitively (union-find) and one representative is kept
per group. Each index record keeps the ids its book's estimate matched, so
a pair of books whose records are reused is not compared again. numpy is
imported only by the functions that hash, so a run that reuses every
fingerprint does not load it.
"""

import hashlib
import json
import random
import re
import unicodedata
from dataclasses import dataclass, field

from .errors import ParseError, TooShortError
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


def strip_diacritics(value):
    if value.isascii():
        return value
    decomposed = unicodedata.normalize("NFD", value)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


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
    signature: tuple  # of int


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
    the signatures; an index record's ``minhash`` names the hash count,
    shingle size and seed its signature was made with, and a record made
    with others is not reused. The signature holds Python ints, as
    ``CorpusIndex.load`` reads them, so a reused one is never converted
    again. Shingles are hashed ``_BLOCK`` at a time into one preallocated
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
    # Set by dedup_corpus on a fingerprinted entry: the ids its content
    # estimate matched, under (content threshold, title/author matching).
    matches: tuple | None = None
    matched_under: tuple | None = None

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
        if entry.matches is not None:
            record["matches"] = list(entry.matches)
            record["matched_under"] = list(entry.matched_under)
    return record


def _entry_from_record(record):
    fp = None
    if "signature" in record:
        fp = BookFingerprint(
            normalized_title=record["normalized_title"],
            normalized_author=record["normalized_author"],
            signature=tuple(map(int, record["signature"])),
        )
    minhash = record.get("minhash")
    matches = record.get("matches")
    matched_under = record.get("matched_under")
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
        matches=tuple(map(str, matches)) if matches is not None else None,
        matched_under=(tuple(matched_under) if matched_under is not None
                       else None),
    )


def dedup_corpus(index, title_author_match=True, content_threshold=0.8,
                 settled=()):
    """Mark duplicate entries, keeping one representative per group.

    Entries group together when their normalized title and author both
    match (and are non-empty) or their estimated content similarity
    reaches ``content_threshold``; grouping is transitive. The
    representative is the longest text, ties going to the smaller id.
    Each fingerprinted entry gets its ``matches``, the ids its estimate
    reached the threshold with (a pair grouped by title and author is not
    estimated), and the two settings as ``matched_under``. ``settled``
    names entries whose ``matches`` were found under these settings, over
    these fingerprints: a pair of them keeps its stored outcome, so only
    pairs with another entry are estimated.
    """
    entries = sorted((e for e in index.entries if e.fingerprint is not None),
                     key=lambda e: e.book_id)
    settled = {e.book_id for e in entries}.intersection(settled)
    matches = {e.book_id: (settled.intersection(e.matches)
                           if e.book_id in settled else set())
               for e in entries}
    meta = {}
    for entry in entries:
        names = (entry.fingerprint.normalized_title,
                 entry.fingerprint.normalized_author)
        if title_author_match and all(names):
            meta[entry.book_id] = names
    fresh = [e for e in entries if e.book_id not in settled]
    old = [e for e in entries if e.book_id in settled]
    for k, a in enumerate(fresh):
        for b in fresh[k + 1:] + old:
            if a.book_id in meta and meta[a.book_id] == meta.get(b.book_id):
                continue
            if estimate_similarity(a.fingerprint,
                                   b.fingerprint) >= content_threshold:
                matches[a.book_id].add(b.book_id)
                matches[b.book_id].add(a.book_id)

    parent = {}  # union-find over ids, each set rooted at its smallest id

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    first = {}
    for entry in entries:
        links = list(matches[entry.book_id])
        if entry.book_id in meta:
            links.append(first.setdefault(meta[entry.book_id], entry.book_id))
        for other in links:
            root, child = sorted((find(entry.book_id), find(other)))
            parent[child] = root
        entry.matches = tuple(sorted(matches[entry.book_id]))
        entry.matched_under = (content_threshold, title_author_match)
    members = {}
    for entry in entries:
        members.setdefault(find(entry.book_id), []).append(entry)
    for entry in index.entries:
        entry.representative_of = None
    for group in members.values():
        rep = min(group, key=lambda e: (-e.text_length, e.book_id))
        for entry in group:
            if entry is not rep:
                entry.representative_of = rep.book_id
    return index
