import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from bindery import lexicons
from bindery.analytics_book import (VectorStore, _linsear_write, _TextStats,
                                    common_words, lemma_counts, lemma_sequence,
                                    lemma_stream, most_similar,
                                    pos_distribution, readability_suite,
                                    representative_vocabulary, strip_stopwords,
                                    text_stats, train_embeddings)
from bindery.config import Config
from bindery.errors import AnalyticsError, ParseError
from bindery.ingest import read_gutenberg
from bindery.pipeline import annotate_book, ingest_to_book
from conftest import BOOKS
from generators import random_book
from helpers import build_annotated
from oracles.embeddings import train_embeddings as oracle_train_embeddings
from oracles.linsear_write import linsear_write as oracle_linsear_write
from oracles.readability_stats import collect_stats as oracle_collect_stats

# Hand-computed oracles. Counts follow the stated rules: words are
# non-punctuation tokens, syllables are vowel groups minus silent final e,
# letters are alphanumeric characters, familiar words come from the bundled
# lists with possessive-stripped lowercase alphabetic cores.
#
# "The cat sat on the mat."  W=6 S=1 Syl=6 C=17, 0 difficult, 0 unfamiliar:
#   flesch  = 206.835 - 1.015*6 - 84.6*1            = 116.145
#   dale    = 0.1579*0 + 0.0496*6                   = 0.2976
#   ari     = 4.71*(17/6) + 0.5*6 - 21.43           = -5.085
#   coleman = 0.0588*(1700/6) - 0.296*(100/6) - 15.8 = -4.073333...
#   fog     = 0.4*(6 + 0)                           = 2.4
#   smog    = 1.0430*sqrt(0) + 3.1291               = 3.1291
#   spache  = 0.121*6 + 0.082*0 + 0.659             = 1.385
#   linsear = ((6*1 + 0*3)/1 - 2)/2                 = 2.0
SNIPPET_1 = "The cat sat on the mat."
EXPECTED_1 = {
    "flesch_reading_ease": 116.145,
    "dale_chall": 0.2976,
    "automated_readability_index": -5.085,
    "coleman_liau": 0.0588 * (1700 / 6) - 0.296 * (100 / 6) - 15.8,
    "gunning_fog": 2.4,
    "smog": 3.1291,
    "spache": 1.385,
    "linsear_write": 2.0,
}

# "The quiet doctor examined the peculiar specimen. It was beautiful."
# W=10 S=2 C=55; syllables: 1+1+2+4+1+3+3+1+1+3 = 20; polysyllables 4
# (examined, peculiar, specimen, beautiful), none proper nouns; Dale
# difficult: examined, peculiar, specimen (PDW 30 > 5); Spache unfamiliar:
# quiet, doctor, examined, peculiar, specimen, beautiful (PUW 60).
SNIPPET_2 = "The quiet doctor examined the peculiar specimen. It was beautiful."
EXPECTED_2 = {
    "flesch_reading_ease": 206.835 - 1.015 * 5 - 84.6 * 2,        # 32.56
    "dale_chall": 0.1579 * 30 + 0.0496 * 5 + 3.6365,              # 8.6215
    "automated_readability_index": 4.71 * 5.5 + 0.5 * 5 - 21.43,  # 6.975
    "coleman_liau": 0.0588 * 550 - 0.296 * 20 - 15.8,             # 10.62
    "gunning_fog": 0.4 * (5 + 40),                                # 18.0
    "smog": 1.0430 * math.sqrt(60) + 3.1291,                      # 11.2081...
    "spache": 0.121 * 5 + 0.082 * 60 + 0.659,                     # 6.184
    "linsear_write": ((6 + 3 * 4) / 2 - 2) / 2,                   # 3.5
}

# 'Mr. Brown said, "We walked nine miles today." Nobody complained about it.'
# W=12 S=2 C=56; syllables 1+1+1+1+2+1+2+2+3+3+2+1 = 20; polysyllables 2
# (Nobody sentence-initial so it still counts for fog); Dale difficult:
# mr, walked, miles, complained (PDW 100/3); Spache unfamiliar adds nine and
# nobody (PUW 50).
SNIPPET_3 = ('Mr. Brown said, "We walked nine miles today." '
             "Nobody complained about it.")
EXPECTED_3 = {
    "flesch_reading_ease": 206.835 - 1.015 * 6 - 84.6 * (20 / 12),
    "dale_chall": 0.1579 * (400 / 12) + 0.0496 * 6 + 3.6365,
    "automated_readability_index": 4.71 * (56 / 12) + 0.5 * 6 - 21.43,
    "coleman_liau": 0.0588 * (5600 / 12) - 0.296 * (200 / 12) - 15.8,
    "gunning_fog": 0.4 * (6 + 200 / 12),
    "smog": 1.0430 * math.sqrt(30) + 3.1291,
    "spache": 0.121 * 6 + 0.082 * 50 + 0.659,
    "linsear_write": ((10 + 3 * 2) / 2 - 2) / 2,
}


@pytest.mark.parametrize("snippet,expected", [
    (SNIPPET_1, EXPECTED_1),
    (SNIPPET_2, EXPECTED_2),
    (SNIPPET_3, EXPECTED_3),
])
def test_readability_matches_hand_computation(snippet, expected):
    scores = readability_suite(text_stats(build_annotated(snippet)))
    for metric, value in expected.items():
        assert scores[metric] == pytest.approx(value, abs=0.01), metric


def test_readability_empty_book_raises():
    with pytest.raises(AnalyticsError):
        readability_suite(text_stats(build_annotated("...")))


def test_linsear_multiwindow_averaging():
    # 200 one-syllable words, a sentence break every 10 words: both windows
    # identical, grade = ((100*1)/10 - 2)/2 = 4.
    text = " ".join("word" for _ in range(200))
    words = text.split()
    chunks = [" ".join(words[i:i + 10]) + "." for i in range(0, 200, 10)]
    book = build_annotated(" ".join(chunks))
    scores = readability_suite(text_stats(book))
    assert scores["linsear_write"] == pytest.approx(4.0, abs=0.01)


# -- representative vocabulary -------------------------------------------------------


def test_whale_ratio_tops_list():
    book = Counter({"whale": 5, "ship": 95})
    corpus = Counter({"whale": 5, "ship": 195, "the": 9800})
    report = representative_vocabulary(
        book, common_words(corpus, top_common=3), list_len=3)
    words = [w for w, _ in report.most]
    assert words[0] == "whale"
    ratio = dict(report.most)["whale"]
    assert ratio == pytest.approx((5 / 100) / (5 / 10000))  # = 100


def test_absent_word_goes_to_missing_not_least():
    book = Counter({"ship": 10})
    corpus = Counter({"ship": 10, "whale": 90})
    report = representative_vocabulary(
        book, common_words(corpus, top_common=2), list_len=5)
    assert [w for w, _ in report.missing] == ["whale"]
    assert all(w != "whale" for w, _ in report.least)


def test_identical_book_and_corpus_all_ratios_one():
    counts = Counter({"a": 5, "b": 3, "c": 2})
    report = representative_vocabulary(
        counts, common_words(counts, top_common=3), list_len=3)
    assert all(r == pytest.approx(1.0) for _, r in report.most)
    assert all(r == pytest.approx(1.0) for _, r in report.least)


def test_scale_invariance():
    book = Counter({"a": 4, "b": 6})
    corpus = Counter({"a": 40, "b": 50, "c": 10})
    doubled_book = Counter({w: 2 * c for w, c in book.items()})
    doubled_corpus = Counter({w: 2 * c for w, c in corpus.items()})
    first = representative_vocabulary(
        book, common_words(corpus, top_common=3), list_len=3)
    second = representative_vocabulary(
        doubled_book, common_words(doubled_corpus, top_common=3), list_len=3)
    assert first.most == second.most
    assert first.least == second.least
    assert [w for w, _ in first.missing] == [w for w, _ in second.missing]


def test_empty_corpus_raises():
    with pytest.raises(AnalyticsError):
        representative_vocabulary(Counter({"a": 1}), common_words(Counter()))


# -- POS distribution ----------------------------------------------------------------


def test_pos_all_nouns():
    book = build_annotated("cat dog fish")
    dist = pos_distribution(text_stats(book))
    assert dist["NOUN"]["percent"] == 100.0
    assert dist["VERB"]["count"] == 0


def test_pos_percentages():
    book = build_annotated("cat dog fish quickly")
    dist = pos_distribution(text_stats(book))
    assert dist["NOUN"]["percent"] == pytest.approx(75.0)
    assert dist["ADV"]["percent"] == pytest.approx(25.0)


def test_pos_percentages_sum_to_100():
    book = build_annotated(
        'He quickly gave the beautiful book to Mary, and she said "oh" sadly.')
    dist = pos_distribution(text_stats(book))
    assert sum(v["percent"] for v in dist.values()) == pytest.approx(100.0,
                                                                     abs=1e-9)


# -- embeddings -----------------------------------------------------------------------


def toy_streams(seed=0, n_books=12, length=250):
    import random
    rnd = random.Random(seed)
    words = [f"w{i}" for i in range(80)]
    streams = {}
    for b in range(n_books):
        lo = rnd.randrange(50)
        pool = words[lo:lo + 30]
        streams[f"b{b:02d}"] = [rnd.choice(pool) for _ in range(length)]
    streams[f"b{n_books - 1:02d}"] = list(streams["b00"])  # duplicate pair
    return streams


def test_duplicate_books_have_near_identical_vectors():
    streams = toy_streams()
    store = train_embeddings(streams, dim=32, epochs=10, min_count=1, seed=3)
    twin = f"b{len(streams) - 1:02d}"
    cosine = float(store.vector("b00") @ store.vector(twin))
    assert cosine >= 0.95
    assert most_similar(twin, store, k=1)[0][0] == "b00"


def test_vectors_are_unit_norm():
    store = train_embeddings(toy_streams(), dim=16, epochs=2, min_count=1,
                             seed=1)
    norms = np.linalg.norm(store.vectors, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-6)


def test_min_count_filters_vocabulary():
    streams = {"a": ["common"] * 10 + ["rare"], "b": ["common"] * 10}
    with pytest.raises(AnalyticsError):
        train_embeddings(streams, dim=4, epochs=1, min_count=100)


def test_training_is_deterministic():
    first = train_embeddings(toy_streams(), dim=16, epochs=3, min_count=1,
                             seed=11)
    second = train_embeddings(toy_streams(), dim=16, epochs=3, min_count=1,
                              seed=11)
    assert first.ids == second.ids
    assert np.array_equal(first.vectors, second.vectors)


def test_training_invariant_to_insertion_order():
    streams = toy_streams()
    reversed_streams = dict(reversed(list(streams.items())))
    first = train_embeddings(streams, dim=16, epochs=3, min_count=1, seed=11)
    second = train_embeddings(reversed_streams, dim=16, epochs=3, min_count=1,
                              seed=11)
    assert first.ids == second.ids
    assert np.array_equal(first.vectors, second.vectors)


def test_most_similar_excludes_self_and_ranks_by_cosine():
    store = train_embeddings(toy_streams(), dim=16, epochs=3, min_count=1,
                             seed=2)
    ranked = most_similar("b00", store, k=100)
    assert all(other != "b00" for other, _ in ranked)
    sims = [s for _, s in ranked]
    assert sims == sorted(sims, reverse=True)
    assert len(ranked) == len(store.ids) - 1  # k larger than corpus


def test_most_similar_unknown_id():
    store = train_embeddings(toy_streams(), dim=8, epochs=1, min_count=1,
                             seed=6)
    with pytest.raises(KeyError):
        most_similar("no-such-book", store)


def test_dale_chall_bump_only_above_five_percent():
    familiar = ("the cat sat on the mat and the dog ran to the tree by "
                "the hill with a bird").split()  # 19 familiar words
    at_five = build_annotated(" ".join(familiar + ["zymurgy"]) + " .")
    scores = readability_suite(text_stats(at_five))
    assert scores["dale_chall"] == pytest.approx(
        0.1579 * 5 + 0.0496 * 20, abs=1e-9)  # PDW == 5: no adjustment
    above_five = build_annotated(
        " ".join(familiar[:-1] + ["zymurgy", "quixotry"]) + " .")
    scores = readability_suite(text_stats(above_five))
    assert scores["dale_chall"] == pytest.approx(
        0.1579 * 10 + 0.0496 * 20 + 3.6365, abs=1e-9)  # PDW 10 > 5


def test_cosine_of_identical_vector_is_one():
    store = train_embeddings(toy_streams(), dim=16, epochs=2, min_count=1,
                             seed=5)
    v = store.vector("b00")
    assert float(v @ v) == pytest.approx(1.0, abs=1e-6)


def test_vector_store_roundtrip(tmp_path):
    store = train_embeddings(toy_streams(), dim=16, epochs=1, min_count=1,
                             seed=9)
    path = tmp_path / "vectors.bin"
    store.save(path)
    loaded = VectorStore.load(path)
    assert loaded.ids == store.ids
    assert np.array_equal(loaded.vectors, store.vectors)


def test_vector_store_load_rejects_damaged_files(tmp_path):
    store = VectorStore(ids=["pg1", "pg22"],
                        vectors=np.arange(6, dtype=np.float32).reshape(2, 3))
    good = tmp_path / "good.bin"
    store.save(good)
    data = good.read_bytes()
    damaged = [data[:n] for n in range(len(data))]  # every truncation
    damaged.append(data + b"\0")  # a trailing byte
    damaged.append(b"XPV1" + data[4:])  # bad magic
    damaged.append(data[:8] + b"\xff\xff\xff\xff" + data[12:])  # huge count
    damaged.append(data.replace(b"pg22", b"pg\xff2"))  # id not UTF-8
    path = tmp_path / "vectors.bin"
    for blob in damaged:
        path.write_bytes(blob)
        with pytest.raises(ParseError):
            VectorStore.load(path)


def _oracle_lemma_counts(book):
    counts = Counter()
    for token in book.iter_tokens():
        if token.pos != "PUNCT" and token.lemma:
            counts[token.lemma] += 1
    return counts


def _oracle_lemma_stream(book):
    stop = lexicons.stopwords("")
    return [t.lemma for t in book.iter_tokens()
            if t.pos != "PUNCT" and t.lemma and t.lemma not in stop]


@pytest.fixture(scope="module")
def annotated_fixtures():
    config = Config()
    return [annotate_book(ingest_to_book(read_gutenberg(path), config), config)
            for path in sorted(BOOKS.glob("pg*.txt"))]


def test_lemma_sequence_views_match_token_loop_oracle(annotated_fixtures):
    for book in annotated_fixtures + [random_book(seed=seed)
                                      for seed in range(200)]:
        sequence = lemma_sequence(book)
        assert Counter(sequence) == lemma_counts(book) == _oracle_lemma_counts(book)
        assert (strip_stopwords(sequence) == lemma_stream(book)
                == _oracle_lemma_stream(book))


def test_readability_stats_match_per_token_oracle(annotated_fixtures):
    books = annotated_fixtures + [random_book(seed=seed) for seed in range(200)]
    assert sum(text_stats(book).complex_words for book in books) > 0
    for book in books:
        assert (replace(text_stats(book), pos=None, lemmas=None)
                == oracle_collect_stats(book))


def _random_stats(seed):
    """Counts of a generated book of up to 3000 words: many 100-word
    windows, sentences of 1 to 60 words, a fifth of words hard."""
    rnd = random.Random(seed)
    words = rnd.randrange(3000)
    ends = []
    end = -1
    while end < words - 1:
        end = min(end + rnd.randint(1, 60), words - 1)
        ends.append(end)
    return _TextStats(
        words=words, sentences=len(ends),
        word_syllable_counts=[rnd.choice([1, 1, 1, 2, 3, 4])
                              for _ in range(words)],
        sentence_last_word=ends)


def test_linsear_write_equals_full_scan_oracle(annotated_fixtures):
    books = annotated_fixtures + [random_book(seed=seed) for seed in range(200)]
    stats = [text_stats(book) for book in books]
    stats += [_random_stats(seed) for seed in range(200)]
    assert max(s.words for s in stats) > 1000
    for item in stats:
        assert _linsear_write(item) == oracle_linsear_write(item)


def test_lemma_stream_strips_stopwords():
    book = build_annotated("The whale swam in the deep sea.")
    stream = lemma_stream(book)
    assert "the" not in stream
    assert "whale" in stream


def test_lemma_counts_skip_punctuation():
    book = build_annotated("Go, go again!")
    counts = lemma_counts(book)
    assert counts["go"] == 2
    assert "," not in counts


def _generated_streams(seed):
    """A seeded stream set and trainer settings: one book or several, some
    of them empty, over 2 to 5,000 words, so that some batches repeat one
    row 20 or more times and some keep a large vocabulary at min_count=1."""
    rnd = random.Random(seed)
    vocab = rnd.choice([2, 3, 40, 800, 5000])
    streams = {}
    for b in range(rnd.choice([1, 1, 2, 4, 7])):
        if b:
            length = rnd.choice([0, 1, 30, 64, 65, 300])
        else:
            length = 2000 if vocab == 5000 else rnd.choice([1, 64, 300])
        streams[f"g{b}"] = [f"w{rnd.randrange(vocab)}" for _ in range(length)]
    settings = dict(dim=rnd.choice([4, 16, 100]), epochs=rnd.choice([1, 2, 5]),
                    min_count=rnd.choice([1, 1, 1, 2]),
                    negatives=rnd.choice([1, 5]), seed=seed)
    return streams, settings


def _largest_row_repeat(streams, batch=64):
    return max(max(Counter(stream[lo:lo + batch]).values())
               for stream in streams.values() if stream
               for lo in range(0, len(stream), batch))


def test_grouped_row_update_matches_scatter_add_oracle(annotated_fixtures):
    """The trainer's vectors equal, as float32, those of the trainer that
    scatter-adds each occurrence, on the fixtures' streams and on 200
    generated stream sets; where the oracle finds no vocabulary, so does
    the trainer."""
    fixtures = {book.meta.source_id: lemma_stream(book)
                for book in annotated_fixtures}
    cases = [(fixtures, dict(min_count=2, dim=32, epochs=5)),
             (fixtures, dict(min_count=1))]
    cases += [_generated_streams(seed) for seed in range(200)]
    seen = Counter()
    for streams, settings in cases:
        try:
            want = oracle_train_embeddings(streams, **settings)
        except AnalyticsError:
            with pytest.raises(AnalyticsError):
                train_embeddings(streams, **settings)
            seen["no vocabulary"] += 1
            continue
        got = train_embeddings(streams, **settings)
        assert got.ids == want.ids
        assert np.array_equal(got.vectors, want.vectors), (
            settings, float(np.abs(got.vectors - want.vectors).max()))
        seen["one book"] += len(streams) == 1
        seen["empty doc"] += not all(streams.values())
        seen["large vocabulary"] += (settings["min_count"] == 1
                                     and len(set().union(*streams.values()))
                                     >= 1000)
        seen["row repeated 20+"] += _largest_row_repeat(streams) >= 20
    assert len(seen) == 5 and min(seen.values()) > 0, seen
