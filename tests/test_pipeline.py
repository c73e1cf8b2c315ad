import hashlib
import re
import shutil
from pathlib import Path

import pytest

from bindery import analytics_book, pipeline, xml_model
from bindery.config import Config
from bindery.errors import BinderyError, MissingPhaseError
from bindery.ingest import read_gutenberg
from bindery.pipeline import (_annotate_analyze_one, annotate_book,
                              body_text_of, build_book_payload,
                              canonicalize_body, ingest_to_book, to_raw_stage)
from bindery.store import book_xml
from bindery.xml_model import AnnotatedBook
from conftest import BOOKS
from generators import random_book
from oracles.body_text import body_text_of as oracle_body_text_of
from oracles.book_payload import build_book_payload as oracle_build_book_payload


@pytest.fixture(scope="module")
def annotated_fixtures():
    config = Config()
    books = {}
    for path in sorted(BOOKS.glob("pg*.txt")):
        book = ingest_to_book(read_gutenberg(path), config)
        raw_body = body_text_of(book)
        annotate_book(book, config)
        books[path.stem] = (book, raw_body)
    return books


def test_canonicalize_body_normalizes_whitespace():
    text = "first line  \n   second\n\n\n\nnext block\n"
    assert canonicalize_body(text) == "first line\nsecond\n\nnext block"


def test_offset_integrity_against_canonical_body(annotated_fixtures):
    # Joining token texts with the recorded offsets reproduces the body:
    # every non-whitespace character matches, gaps stay whitespace.
    for book_id, (book, raw_body) in annotated_fixtures.items():
        rebuilt = body_text_of(book)
        assert len(rebuilt) == len(raw_body), book_id
        for i, ch in enumerate(raw_body):
            if ch.isspace():
                assert rebuilt[i].isspace(), (book_id, i)
            else:
                assert rebuilt[i] == ch, (book_id, i)


def test_body_text_matches_token_walk_oracle(annotated_fixtures, config):
    books = [ingest_to_book(read_gutenberg(path), config)
             for path in sorted(BOOKS.glob("pg*.txt"))]
    books += [book for book, _ in annotated_fixtures.values()]
    for seed in range(200):
        book = random_book(seed=seed)
        books.append(book)
        tokenized = random_book(seed=seed)  # the same book, raw blocks dropped
        for section in tokenized.body:
            section.paragraphs = [p for p in section.paragraphs if not p.is_raw]
        books.append(tokenized)
    assert sum(not any(p.is_raw for p in b.iter_paragraphs()) for b in books) > 200
    for book in books:
        assert body_text_of(book) == oracle_body_text_of(book)


def test_ingest_records_the_digest_of_its_body(annotated_fixtures):
    for book_id, (book, raw_body) in annotated_fixtures.items():
        assert book.meta.body_sha256 == hashlib.sha256(
            raw_body.encode("utf-8")).hexdigest(), book_id


def test_token_indices_and_offsets_increase(annotated_fixtures):
    for book_id, (book, _) in annotated_fixtures.items():
        last_index = -1
        last_end = -1
        for token in book.iter_tokens():
            assert token.index == last_index + 1, book_id
            assert token.offset >= last_end, book_id
            last_index = token.index
            last_end = token.offset + len(token.text)


def test_phase_stamps_in_order(annotated_fixtures):
    for book, _ in annotated_fixtures.values():
        assert book.phases == ["ingest", "segment", "linguistic", "characters"]


def test_every_emitted_character_has_three_mentions(annotated_fixtures):
    for book, _ in annotated_fixtures.values():
        for record in book.characters:
            assert record.count >= 3
            assert sum(record.alias_counts.values()) == record.count


def test_to_raw_stage_then_reannotate_is_identical(annotated_fixtures, config):
    for book_id, (book, _) in annotated_fixtures.items():
        first = xml_model.serialize(book)
        again = xml_model.parse(first)
        to_raw_stage(again)
        annotate_book(again, config)
        assert xml_model.serialize(again) == first, book_id
        # annotate_book takes an annotated book back to ingest by itself.
        restarted = annotate_book(xml_model.parse(first), config)
        assert xml_model.serialize(restarted) == first, book_id


def test_analytics_requires_characters_phase(config):
    book = ingest_to_book(read_gutenberg(BOOKS / "pg730.txt"), config)
    with pytest.raises(MissingPhaseError) as err:
        build_book_payload(book, config)
    assert "characters" in str(err.value)


def test_build_book_payload_matches_separate_walk_oracle(annotated_fixtures,
                                                        config):
    books = [book for book, _ in annotated_fixtures.values()]
    for seed in range(200):
        book = random_book(seed=seed)
        book.add_phase("characters")
        books.append(book)
    for book in books:
        assert (build_book_payload(book, config)
                == oracle_build_book_payload(book, config))


def test_build_book_payload_walks_the_tokens_once(monkeypatch, config):
    book = annotate_book(
        ingest_to_book(read_gutenberg(BOOKS / "pg730.txt"), config), config)
    calls = {"iter_tokens": 0, "text_stats": 0}
    iter_tokens = AnnotatedBook.iter_tokens
    text_stats = analytics_book.text_stats

    def counted_iter_tokens(self):
        calls["iter_tokens"] += 1
        return iter_tokens(self)

    def counted_text_stats(*args, **kwargs):
        calls["text_stats"] += 1
        return text_stats(*args, **kwargs)

    monkeypatch.setattr(AnnotatedBook, "iter_tokens", counted_iter_tokens)
    monkeypatch.setattr(analytics_book, "text_stats", counted_text_stats)
    payload, lemmas = build_book_payload(book, config)
    assert calls == {"iter_tokens": 0, "text_stats": 1}
    assert payload["readability"] and payload["pos"] and lemmas


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    (tmp_path / "raw").mkdir()
    shutil.copy(BOOKS / "pg730.txt", tmp_path / "raw" / "pg730.txt")
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})
    payload, lemmas = build_book_payload(
        xml_model.load(tmp_path / "book.xml"), Config())
    score, words = capsys.readouterr().out.splitlines()[-1].split()
    assert float(score) == payload["readability"]["flesch_reading_ease"]
    assert int(words) == len(lemmas) > 0


@pytest.mark.parametrize("phases, stored, annotate_fails, calls", [
    (("annotate", "analyze"), "ingested", False, 2),
    (("annotate",), "ingested", False, 2),
    (("analyze",), "annotated", False, 1),
    (("annotate", "analyze"), "annotated", True, 2),
])
def test_worker_validates_each_tree_once(tmp_path, monkeypatch, phases,
                                         stored, annotate_fails, calls):
    """The parse checks the tree it loads and annotate the tree it
    changes; the write validates neither again."""
    config = Config()
    book = ingest_to_book(read_gutenberg(BOOKS / "pg1002.txt"), config)
    if stored == "annotated":
        annotate_book(book, config)
    path = book_xml(tmp_path, "pg1002")
    path.parent.mkdir()
    path.write_text(xml_model.serialize(book), encoding="utf-8")
    if annotate_fails:
        def failing(book, config):
            raise BinderyError("injected annotate failure")
        monkeypatch.setattr(pipeline, "characters_book", failing)
    validated = []
    real_validate = xml_model.validate

    def counting(book):
        validated.append(book)
        return real_validate(book)

    monkeypatch.setattr(xml_model, "validate", counting)
    results = _annotate_analyze_one((tmp_path, "pg1002", config, phases))
    assert [(r.phase, r.ok) for r in results] == [
        (phase, not (annotate_fails and phase == "annotate"))
        for phase in phases]
    assert len(validated) == calls
    monkeypatch.setattr(xml_model, "validate", real_validate)
    written = xml_model.load(path)
    assert written.phases[-1] == ("analytics" if "analyze" in phases
                                  else "characters")
    assert path.read_text(encoding="utf-8") == xml_model.serialize(written)
