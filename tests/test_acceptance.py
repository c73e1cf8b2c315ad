"""Acceptance criteria, one test per criterion.

Each test asserts at the stated tolerance; the terminal summary hook in
conftest prints one PASS/FAIL line per criterion at the end of the run.
"""

import json
import math
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from bindery import xml_model
from bindery.analytics_book import (most_similar, readability_suite,
                                    train_embeddings)
from bindery.analytics_corpus import (pos_correlations, percentile,
                                      rank_share_curve,
                                      reference_distributions)
from bindery.characters import build_interaction_network
from bindery.dedup import (CorpusEntry, CorpusIndex, dedup_corpus,
                           fingerprint, shingle_set)
from bindery.store import load_schema, validate_schema
from bindery.xml_model import ANALYZED_POS, CharacterRecord

from conftest import BOOKS, ORACLES
from generators import random_book
from helpers import build_annotated
from oracles.serialize import serialize as oracle_serialize
from test_analytics_book import (EXPECTED_1, EXPECTED_2, EXPECTED_3,
                                 SNIPPET_1, SNIPPET_2, SNIPPET_3)
from test_analytics_corpus import pearson_naive, percentile_naive


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """One end-to-end CLI run over the five fixture books, shared below."""
    root = tmp_path_factory.mktemp("acceptance")
    raw = root / "raw"
    raw.mkdir()
    for path in sorted(BOOKS.glob("pg*.txt")):
        shutil.copy(path, raw / path.name)
    config = root / "bindery.conf"
    config.write_text("embed_min_count = 2\n", encoding="utf-8")
    store_dir = root / "store"

    def run_all():
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "bindery", "--config", str(config),
             "all", "--in", str(raw), "--out", str(store_dir)],
            capture_output=True, text=True)
        return proc, time.monotonic() - start

    first, first_elapsed = run_all()
    watched = sorted(p for p in store_dir.rglob("*")
                     if p.is_file() and p.name != "progress.jsonl")
    stamps = {p: p.stat().st_mtime_ns for p in watched}
    second, _ = run_all()
    return {
        "dir": store_dir,
        "raw": raw,
        "first": first,
        "elapsed": first_elapsed,
        "stamps": stamps,
        "second": second,
        "book_count": len(list(raw.glob("*.txt"))),
    }


def test_criterion_01_end_to_end_smoke(store):
    """all over 5 Gutenberg fixtures: <60s/book, valid outputs, no-op re-run."""
    assert store["first"].returncode == 0, store["first"].stderr
    assert store["book_count"] == 5
    assert store["elapsed"] < 60 * store["book_count"]

    book_schema = load_schema("book.schema.json")
    for xml_path in sorted(store["dir"].glob("pg*/book.xml")):
        book = xml_model.load(xml_path)  # validating parse
        assert book.has_phase("analytics")
        payload = json.loads(
            (xml_path.parent / "book.json").read_text(encoding="utf-8"))
        assert validate_schema(payload, book_schema) == []
        assert (xml_path.parent / "index.html").exists()
    corpus_payload = json.loads(
        (store["dir"] / "_corpus" / "corpus.json").read_text(encoding="utf-8"))
    assert validate_schema(corpus_payload,
                           load_schema("corpus.schema.json")) == []

    assert store["second"].returncode == 0, store["second"].stderr
    for path, stamp in store["stamps"].items():
        assert path.stat().st_mtime_ns == stamp, f"{path} rewritten on re-run"


def test_criterion_02_segmentation_matches_line_scan_oracle(store):
    """Chapter counts equal the standalone line-scan oracle, exactly."""
    script = ORACLES / "count_chapters.py"
    checked = 0
    for raw_path in sorted(store["raw"].glob("pg*.txt")):
        proc = subprocess.run([sys.executable, str(script), str(raw_path)],
                              capture_output=True, text=True, check=True)
        oracle_count = int(proc.stdout.split("\t")[0])
        book = xml_model.load(store["dir"] / raw_path.stem / "book.xml")
        detected = sum(1 for section in book.body
                       if section.header and section.header.kind == "chapter")
        assert detected == oracle_count, raw_path.name
        assert oracle_count > 0, raw_path.name
        checked += 1
    assert checked == 5


def test_criterion_03_oliver_twist_protagonist(store):
    """Most frequent character of pg730 is canonically named Oliver."""
    book = xml_model.load(store["dir"] / "pg730" / "book.xml")
    assert book.characters, "no characters identified"
    top = max(book.characters, key=lambda r: r.count)
    assert "Oliver" in top.canonical_name


def test_criterion_04_network_matches_bruteforce_oracle():
    """50 random mention layouts: edges and weights equal brute force."""
    rnd = random.Random(4242)
    window, min_co = 30, 5
    for _ in range(50):
        records = []
        for char_id in range(rnd.randint(2, 8)):
            positions = sorted(rnd.sample(range(2000), rnd.randint(3, 60)))
            records.append(CharacterRecord(
                id=char_id, canonical_name=f"C{char_id}", gender="unknown",
                alias_counts={f"C{char_id}": len(positions)},
                mention_token_indices=positions))
        graph = build_interaction_network(records, window=window, min_co=min_co)
        expected = {}
        for i, a in enumerate(records):
            for b in records[i + 1:]:
                count = sum(1 for x in a.mention_token_indices
                            for y in b.mention_token_indices
                            if abs(x - y) <= window)
                if count > min_co:
                    expected[(a.id, b.id)] = count
        got = {(e["a"], e["b"]): e["weight"] for e in graph["edges"]}
        assert got == expected


def test_criterion_05_readability_hand_oracles():
    """All 8 metrics on 3 fixed snippets within +/-0.01 of hand values."""
    for snippet, expected in ((SNIPPET_1, EXPECTED_1), (SNIPPET_2, EXPECTED_2),
                              (SNIPPET_3, EXPECTED_3)):
        scores = readability_suite(build_annotated(snippet))
        assert set(scores) == set(expected)
        for metric, value in expected.items():
            assert scores[metric] == pytest.approx(value, abs=0.01), metric
    assert EXPECTED_1["flesch_reading_ease"] == 116.145


def test_criterion_06_reference_distributions():
    """Benford matches log10(1+1/d) and sums to 1; Zipf rank-1 = 1/H9.

    The spec prints the Zipf rank-1 decimal as 0.353487, but its own
    closed form 1/H9 with H9 = 7129/2520 equals 0.3534858 (6-decimal
    rounding 0.353486); the closed form is asserted here at the stated
    tolerance. See the decisions ledger.
    """
    benford, zipf = reference_distributions(ranks=9)
    for d in range(1, 10):
        assert benford[d - 1] == pytest.approx(math.log10(1 + 1 / d),
                                               abs=1e-6)
    assert sum(benford) == pytest.approx(1.0, abs=1e-9)
    assert zipf[0] == pytest.approx(2520 / 7129, abs=1e-6)
    assert sum(zipf) == pytest.approx(1.0, abs=1e-9)


def test_criterion_07_rank_share_property():
    """>=20 books with >=9 characters: curve non-increasing, sums to 1."""
    rnd = random.Random(77)
    books = []
    for _ in range(24):
        counts = sorted((rnd.randint(3, 400)
                         for _ in range(rnd.randint(9, 14))), reverse=True)
        books.append(counts)
    curve = rank_share_curve(books, ranks=9)
    assert len(books) >= 20
    assert all(a >= b for a, b in zip(curve, curve[1:]))
    assert sum(curve) == pytest.approx(1.0, abs=1e-9)


def test_criterion_08_duplicate_retrieval_across_seeds():
    """30-book toy corpus with a duplicated book: twin is top-1, 3 seeds."""
    rnd = random.Random(808)
    words = [f"w{i}" for i in range(150)]
    streams = {}
    for b in range(30):
        lo = rnd.randrange(110)
        pool = words[lo:lo + 40]
        streams[f"b{b:02d}"] = [rnd.choice(pool) for _ in range(300)]
    streams["b29"] = list(streams["b07"])  # the duplicated book
    for seed in (1, 2, 3):
        vectors = train_embeddings(streams, dim=100, epochs=10, min_count=1,
                                   negatives=5, learning_rate=0.025, seed=seed)
        assert most_similar("b29", vectors, k=1)[0][0] == "b07", f"seed {seed}"
        assert most_similar("b07", vectors, k=1)[0][0] == "b29", f"seed {seed}"


def test_criterion_09_dedup_flags_duplicates_keeps_distinct():
    """Exact duplicate and 90%-overlap variant flagged; distinct books kept."""
    rnd = random.Random(909)
    sentences = [" ".join(f"s{rnd.randrange(500)}" for _ in range(15)) + " ."
                 for _ in range(100)]
    original = " ".join(sentences)
    exact = original
    variant = " ".join(s for i, s in enumerate(sentences) if i % 10 != 0)
    distinct_a = " ".join(
        " ".join(f"a{rnd.randrange(500)}" for _ in range(8)) + " ."
        for _ in range(60))
    distinct_b = " ".join(
        " ".join(f"b{rnd.randrange(500)}" for _ in range(8)) + " ."
        for _ in range(60))

    # Oracle: exact shingle-set Jaccard.
    def jaccard(x, y):
        a, b = shingle_set(x), shingle_set(y)
        return len(a & b) / len(a | b)

    assert jaccard(original, exact) == 1.0
    assert jaccard(original, variant) >= 0.8
    assert jaccard(original, distinct_a) < 0.8
    assert jaccard(distinct_a, distinct_b) < 0.8

    def entry(book_id, text):
        return CorpusEntry(book_id=book_id, text_length=len(text),
                           fingerprint=fingerprint(text))

    index = CorpusIndex(entries=[
        entry("pgORIG", original), entry("pgEXACT", exact),
        entry("pgVARIANT", variant), entry("pgDISTINCT_A", distinct_a),
        entry("pgDISTINCT_B", distinct_b)])
    dedup_corpus(index, content_threshold=0.8)
    reps = {e.book_id: e.representative_of for e in index.entries}
    # pgORIG and pgEXACT tie on length; the smaller id wins the group.
    assert reps["pgEXACT"] is None
    assert reps["pgORIG"] == "pgEXACT"
    assert reps["pgVARIANT"] == "pgEXACT"
    assert reps["pgDISTINCT_A"] is None
    assert reps["pgDISTINCT_B"] is None


def test_criterion_10_xml_roundtrip_1000_random_books():
    """parse(serialize(b)) == b on 1,000 randomized generated books, and
    the pieces the store writer takes join to the whole-document text."""
    rnd = random.Random(1000)
    for _ in range(1000):
        book = random_book(rnd)
        text = xml_model.serialize(book)
        assert "".join(xml_model.serialize_pieces(book)) == text
        assert oracle_serialize(book) == text
        again = xml_model.parse(text)
        assert again == book
        assert xml_model.serialize(again) == text


def test_criterion_11_percentile_and_pearson_vs_naive():
    """Implementations match naive references to 1e-12 on random vectors."""
    rnd = random.Random(1111)
    for _ in range(200):
        population = [rnd.uniform(-100, 100)
                      for _ in range(rnd.randint(1, 60))]
        value = rnd.uniform(-100, 100)
        assert abs(percentile(value, population)
                   - percentile_naive(value, population)) <= 1e-12
    for _ in range(30):
        n = rnd.randint(3, 25)
        rows = [{tag: rnd.uniform(0, 100) for tag in ANALYZED_POS}
                for _ in range(n)]
        matrix = pos_correlations(rows)
        for a in ANALYZED_POS:
            for b in ANALYZED_POS:
                expected = pearson_naive([r[a] for r in rows],
                                         [r[b] for r in rows])
                assert abs(matrix[a][b] - expected) <= 1e-12
