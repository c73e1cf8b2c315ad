import hashlib
import json
import random
import shutil
import tracemalloc
from collections import Counter

import pytest

from bindery import dedup, ingest, pipeline, xml_model
from bindery.config import Config
from bindery.dedup import (BookFingerprint, CorpusEntry, CorpusIndex,
                           _base_hashes, dedup_corpus, estimate_similarity,
                           fingerprint, normalize_name, shingle_set,
                           strip_diacritics)
from bindery.errors import ParseError, TooShortError
from bindery.store import Traces
from generators import dialogue_text, random_book
from oracles import minhash as oracle
from oracles.dedup_corpus import dedup_corpus as oracle_dedup_corpus


def words(n, seed=0, prefix="w"):
    rnd = random.Random(seed)
    return " ".join(f"{prefix}{rnd.randrange(400)}" for _ in range(n))


def exact_jaccard(a_text, b_text):
    a = shingle_set(a_text)
    b = shingle_set(b_text)
    return len(a & b) / len(a | b)


def test_identical_texts_identical_signatures():
    text = words(300, seed=1)
    assert fingerprint(text).signature == fingerprint(text).signature


def test_base_hashes_are_the_digests_of_each_shingle():
    for text in (words(300, seed=2), "Crème brûlée à la naïve façade " * 3):
        shingles = shingle_set(text)
        expected = [int.from_bytes(hashlib.blake2b(
            s.encode("utf-8"), digest_size=8).digest(), "little")
            for s in shingles]
        assert _base_hashes(shingles).tolist() == expected


def test_strip_diacritics():
    text = "plain ASCII, kept as is"
    assert strip_diacritics(text) is text
    assert strip_diacritics("Crème brûlée à la naïve façade") == (
        "Creme brulee a la naive facade")


def test_four_words_too_short():
    with pytest.raises(TooShortError):
        fingerprint("only four words here")


# -- block MinHash against the whole-set oracle ---------------------------------

# Diacritics, every kind of whitespace, runs of punctuation, digits, and a
# word longer than a normalization piece.
_ODD_WORDS = ["Crème", "brûlée", "naïve", "FAÇADE", "don't", "well-known",
              "2,300", "—", "...", "x", "\u00a0", "Ærø", "ﬁne", "İstanbul",
              "a" * 5000, "Σοφία", "ΣΑΣ", "\t", "\n\n", "\u2003"]


def _odd_text(n, seed):
    rnd = random.Random(seed)
    return " ".join(rnd.choice(_ODD_WORDS + [f"w{rnd.randrange(50)}"] * 20)
                    for _ in range(n))


def test_fingerprint_equals_oracle_on_fixture_bodies(fixture_books):
    for path in fixture_books:
        body = pipeline.body_text_of(pipeline.ingest_to_book(
            ingest.read_gutenberg(path), Config()))
        assert fingerprint(body).signature == oracle.signature(body)
        assert shingle_set(body) == oracle.shingle_set(body)


@pytest.mark.parametrize("seed", range(12))
def test_fingerprint_equals_oracle_on_generated_texts(seed):
    rnd = random.Random(seed)
    n = rnd.choice([5, 40, 900, 3000])
    text = _odd_text(n, seed) if seed % 2 else words(n, seed=seed)
    shingle_size = rnd.choice([1, 2, 5, 8])
    num_hashes = rnd.choice([1, 64, 128, 200])
    try:
        expected = oracle.signature(text, num_hashes=num_hashes,
                                    shingle_size=shingle_size, seed=seed)
    except TooShortError:
        with pytest.raises(TooShortError):
            fingerprint(text, shingle_size=shingle_size)
        return
    assert fingerprint(text, num_hashes=num_hashes, shingle_size=shingle_size,
                       seed=seed).signature == expected
    assert shingle_set(text, shingle_size) == oracle.shingle_set(
        text, shingle_size)


@pytest.mark.parametrize("shingles", [1, 255, 256, 257, 4095, 4096, 4097])
@pytest.mark.parametrize("num_hashes", [1, 64, 128, 200])
def test_fingerprint_equals_oracle_at_block_edges(shingles, num_hashes):
    # Distinct words, so the shingle count is the distinct-shingle count.
    text = " ".join(f"w{i}" for i in range(shingles + dedup.SHINGLE_SIZE - 1))
    assert len(oracle.shingle_set(text)) == shingles
    sig = fingerprint(text, num_hashes=num_hashes).signature
    assert len(sig) == num_hashes
    assert sig == oracle.signature(text, num_hashes=num_hashes)


@pytest.mark.parametrize("piece", [1, 3, 17, 200])
def test_piece_boundaries_do_not_change_the_shingles(monkeypatch, piece):
    monkeypatch.setattr(dedup, "_PIECE", piece)
    for seed, text in enumerate((words(700, seed=9), _odd_text(300, 10))):
        assert shingle_set(text) == oracle.shingle_set(text)
        assert fingerprint(text, seed=seed).signature == oracle.signature(
            text, seed=seed)


@pytest.mark.parametrize("text", ["", "   \n\t ", "— ... — one, two; three!",
                                  "a" * 10000 + " b c d"])
def test_too_short_texts_still_raise(text):
    with pytest.raises(TooShortError):
        oracle.shingle_set(text)
    with pytest.raises(TooShortError):
        shingle_set(text)
    with pytest.raises(TooShortError):
        fingerprint(text)


def test_fingerprint_scratch_memory_does_not_grow_with_the_text():
    text = words(20_000 + dedup.SHINGLE_SIZE - 1, seed=11)
    fingerprint(words(300, seed=12))  # numpy's first-use allocations
    tracemalloc.start()
    try:
        fingerprint(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_estimate_tracks_exact_jaccard():
    shared = words(400, seed=2)
    a_text = shared + " " + words(200, seed=3, prefix="a")
    b_text = shared + " " + words(200, seed=4, prefix="b")
    exact = exact_jaccard(a_text, b_text)
    estimate = estimate_similarity(fingerprint(a_text), fingerprint(b_text))
    assert abs(estimate - exact) <= 0.1


def test_disjoint_texts_estimate_near_zero():
    a_text = words(300, seed=5, prefix="a")
    b_text = words(300, seed=6, prefix="b")
    assert exact_jaccard(a_text, b_text) == 0.0
    estimate = estimate_similarity(fingerprint(a_text), fingerprint(b_text))
    assert estimate <= 0.05


def test_estimate_reflexive_and_symmetric():
    a = fingerprint(words(100, seed=7))
    b = fingerprint(words(100, seed=8))
    assert estimate_similarity(a, a) == 1.0
    assert estimate_similarity(a, b) == estimate_similarity(b, a)


def test_no_matching_positions_gives_zero():
    a = BookFingerprint("", "", tuple(range(0, 128)))
    b = BookFingerprint("", "", tuple(range(1000, 1128)))
    assert estimate_similarity(a, b) == 0.0


def test_length_mismatch_rejected():
    a = BookFingerprint("", "", (1, 2, 3))
    b = BookFingerprint("", "", (1, 2))
    with pytest.raises(ValueError):
        estimate_similarity(a, b)


def test_normalize_name():
    assert normalize_name("The Marsh-Lantern!") == "marsh lantern"
    assert normalize_name("  Émile  ZOLA ") == "emile zola"
    assert normalize_name("A Tale of Two Cities") == "tale of two cities"


# -- corpus dedup ---------------------------------------------------------------


def _entry(book_id, text, title="", author=""):
    return CorpusEntry(book_id=book_id, title=title, author=author,
                       text_length=len(text),
                       fingerprint=fingerprint(text, title=title, author=author))


def test_exact_copies_collapse():
    text = words(400, seed=10)
    index = CorpusIndex(entries=[_entry("pgA", text), _entry("pgB", text)])
    dedup_corpus(index)
    kept = [e.book_id for e in index.entries if not e.is_duplicate]
    assert kept == ["pgA"]  # tie on length -> smaller id
    assert [e.representative_of for e in index.entries
            if e.book_id == "pgB"] == ["pgA"]


def test_same_title_different_authors_kept():
    index = CorpusIndex(entries=[
        _entry("pgA", words(300, seed=11, prefix="a"),
               title="Collected Tales", author="Ann Prior"),
        _entry("pgB", words(300, seed=12, prefix="b"),
               title="Collected Tales", author="Thomas Hale"),
    ])
    dedup_corpus(index)
    assert sum(not e.is_duplicate for e in index.entries) == 2


def test_title_author_match_collapses_regardless_of_content():
    index = CorpusIndex(entries=[
        _entry("pgA", words(300, seed=13, prefix="a"),
               title="The Weir", author="Thomas Hale"),
        _entry("pgB", words(300, seed=14, prefix="b"),
               title="The Weir", author="Thomas Hale"),
    ])
    dedup_corpus(index)
    assert sum(not e.is_duplicate for e in index.entries) == 1


def test_ninety_percent_overlap_variant_grouped():
    sentences = [words(8, seed=100 + i) + " ." for i in range(60)]
    original = " ".join(sentences)
    variant = " ".join(s for i, s in enumerate(sentences) if i % 10 != 0)
    assert exact_jaccard(original, variant) >= 0.8  # oracle confirms overlap
    index = CorpusIndex(entries=[_entry("pgA", original),
                                 _entry("pgB", variant)])
    dedup_corpus(index, content_threshold=0.8)
    assert [e.representative_of for e in index.entries
            if e.book_id == "pgB"] == ["pgA"]


def test_transitive_chains_group_together():
    base = [words(8, seed=200 + i) + " ." for i in range(80)]
    a = " ".join(base)
    b = " ".join(base[4:])       # ~95% of a
    c = " ".join(base[8:])       # ~95% of b, ~90% of a
    index = CorpusIndex(entries=[_entry("pgA", a), _entry("pgB", b),
                                 _entry("pgC", c)])
    dedup_corpus(index, content_threshold=0.9)
    reps = {e.book_id: e.representative_of for e in index.entries}
    assert reps["pgA"] is None
    assert reps["pgB"] == "pgA"
    assert reps["pgC"] == "pgA"


def test_representative_stable_under_permutation():
    text = words(400, seed=20)
    other = words(400, seed=21, prefix="z")
    entries = [_entry("pgA", text), _entry("pgB", text), _entry("pgC", other)]
    outcomes = []
    for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        index = CorpusIndex(entries=[entries[i] for i in order])
        for entry in index.entries:
            entry.representative_of = None
        dedup_corpus(index)
        outcomes.append(sorted((e.book_id, e.representative_of)
                               for e in index.entries))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_longest_text_wins_representative():
    long_text = words(500, seed=30)
    short_text = " ".join(long_text.split()[:450])
    index = CorpusIndex(entries=[_entry("pgSHORT", short_text),
                                 _entry("pgLONG", long_text)])
    dedup_corpus(index, content_threshold=0.5)
    assert [e.representative_of for e in index.entries
            if e.book_id == "pgSHORT"] == ["pgLONG"]


def test_index_jsonl_roundtrip(tmp_path):
    text = words(300, seed=40)
    index = CorpusIndex(entries=[
        _entry("pgA", text, title="A Title", author="Someone"),
        CorpusEntry(book_id="pgNOFP", title="Short", text_length=3),
    ])
    index.entries[0].year = 1890
    index.entries[0].body_sha256 = "ab" * 32
    index.entries[0].minhash = (128, 5, 7)
    dedup_corpus(index)
    path = tmp_path / "index.jsonl"
    index.save(path)
    loaded = CorpusIndex.load(path)
    assert loaded == index
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0]["body_sha256"] == "ab" * 32
    assert records[0]["minhash"] == [128, 5, 7]
    assert (records[0]["matches"], records[0]["matched_under"]) == ([],
                                                                    [0.8, True])
    assert "body_sha256" not in records[1] and "minhash" not in records[1]
    assert "matches" not in records[1]


@pytest.mark.parametrize("bad_line", [
    '{"id": "pgB", "title": "cut o',
    '["pgB"]',
    '{"title": "no id"}',
    '{"id": 7}',
    '{"id": "pgB", "signature": [1, "x"], "normalized_title": "",'
    ' "normalized_author": ""}',
    '{"id": "pgB", "signature": [1, 2]}',
    '{"id": "pgB", "minhash": 5}',
    '{"id": "pgB", "matches": 5}',
    '{"id": "pgB", "matched_under": 5}',
    b'{"id": "pg\xff"}',
])
def test_malformed_index_line_is_a_parse_error_naming_it(tmp_path, bad_line):
    path = tmp_path / "index.jsonl"
    good = '{"id": "pgA", "text_length": 3}\n'
    if isinstance(bad_line, str):
        bad_line = bad_line.encode("utf-8")
    path.write_bytes(good.encode("utf-8") + b"\n" + bad_line + b"\n")
    with pytest.raises(ParseError) as err:
        CorpusIndex.load(path)
    assert err.value.line == 3
    assert str(path) in str(err.value)


# -- incremental dedup over a store against the all-pairs oracle -----------------


def _store_book(store, book_id, paragraphs, title, author):
    """Write an ingest-stage book.xml, with its body digest in <meta>."""
    blocks, offset = [], 0
    for text in paragraphs:
        blocks.append(xml_model.Paragraph(raw=text, offset=offset))
        offset += len(text) + 2
    body = "\n\n".join(paragraphs)
    book = xml_model.AnnotatedBook(
        meta=xml_model.BookMeta(
            title=title, author=author, source_id=book_id, corpus="gutenberg",
            body_sha256=hashlib.sha256(body.encode("utf-8")).hexdigest()),
        body=[xml_model.Section(header=None, paragraphs=blocks)])
    book.add_phase("ingest")
    path = store / book_id / "book.xml"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(xml_model.serialize(book), encoding="utf-8")


def _random_books(rnd, store, count):
    books = {}
    for i in range(count):
        books[f"pg{i}"] = (dialogue_text(rnd).split("\n\n"), f"Book {i}",
                           "Ann Prior")
        _store_book(store, f"pg{i}", *books[f"pg{i}"])
    return books


def _change(rnd, store, books, step):
    """One random change to the store: a book added, near-duplicated
    (from the newest book, so chains form), removed or edited, or its
    title and author made another book's or its own again."""
    ids = sorted(books)
    kind = rnd.choice(["add", "near", "near", "remove", "edit", "collide",
                       "rename"] if len(ids) > 2 else ["add", "near"])
    if kind == "remove":
        book_id = rnd.choice(ids)
        del books[book_id]
        shutil.rmtree(store / book_id)
        return
    if kind in ("add", "near"):
        book_id = f"pg{1000 + step}"
        if kind == "add":
            paragraphs = dialogue_text(rnd).split("\n\n")
            if rnd.random() < 0.1:
                paragraphs = ["Too short."]
        else:
            paragraphs = list(books[max(ids, key=lambda b: int(b[2:]))][0])
            del paragraphs[rnd.randrange(len(paragraphs))]
        meta = random_book(rnd).meta
        title, author = ((meta.title, meta.author) if rnd.random() < 0.5
                         else (f"Book {step}", "Ann Prior"))
    else:
        book_id = rnd.choice(ids)
        paragraphs, title, author = books[book_id]
        if kind == "edit":
            paragraphs = paragraphs[1:] + [dialogue_text(rnd)]
        elif kind == "collide":
            title, author = books[rnd.choice(ids)][1:]
        else:
            title, author = f"Book {book_id}", "Ann Prior"
    books[book_id] = (paragraphs, title, author)
    _store_book(store, book_id, paragraphs, title, author)


@pytest.mark.parametrize("seed", range(4))
def test_incremental_dedup_equals_the_all_pairs_oracle(tmp_path, seed):
    """After each change, dedup reusing the last index writes the index a
    forced run writes, and its groups and representatives are those of
    the all-pairs oracle over the books then stored."""
    rnd = random.Random(seed)
    store, forced = tmp_path / "store", tmp_path / "forced"
    books = _random_books(rnd, store, 8)
    settings = [(0.8, True), (0.8, False), (0.5, True)]
    for step in range(30):
        _change(rnd, store, books, step)
        threshold, title_author = settings[step // 10]
        config = Config(dedup_content_threshold=threshold,
                        dedup_title_author=title_author)
        results = pipeline.run_dedup(store, config, Traces(False))
        shutil.rmtree(forced, ignore_errors=True)
        shutil.copytree(store, forced)
        pipeline.run_dedup(forced, config, Traces(True))
        index = store / "_corpus" / "index.jsonl"
        assert index.read_bytes() == (
            forced / "_corpus" / "index.jsonl").read_bytes(), step
        oracle_index = CorpusIndex.load(index)
        oracle_dedup_corpus(oracle_index, title_author_match=title_author,
                            content_threshold=threshold)
        expected = {e.book_id: e.representative_of
                    for e in oracle_index.entries}
        assert {r.book_id: r.duplicate_of for r in results} == expected, step
        assert sorted(expected) == sorted(books)


def test_one_added_book_is_compared_with_each_book_once(tmp_path,
                                                        monkeypatch):
    """Adding a book to a store of N estimates at most N pairs; a run that
    changes nothing estimates and fingerprints nothing and leaves the
    index untouched."""
    store = tmp_path / "store"
    rnd = random.Random(5)
    books = _random_books(rnd, store, 40)
    config = Config()
    pipeline.run_dedup(store, config, Traces(False))
    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("estimate_similarity", "fingerprint"):
        monkeypatch.setattr(dedup, name, counted(name, getattr(dedup, name)))
    index = store / "_corpus" / "index.jsonl"
    before = index.read_bytes(), index.stat().st_mtime_ns
    pipeline.run_dedup(store, config, Traces(False))
    assert calls == Counter()
    assert (index.read_bytes(), index.stat().st_mtime_ns) == before
    paragraphs = books["pg3"][0][1:]
    _store_book(store, "pg99", paragraphs, "Another Title", "Ann Prior")
    results = pipeline.run_dedup(store, config, Traces(False))
    assert calls["fingerprint"] == 1
    assert 0 < calls["estimate_similarity"] <= len(books)
    assert [(r.book_id, r.duplicate_of) for r in results
            if r.duplicate_of] == [("pg99", "pg3")]
