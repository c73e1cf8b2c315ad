"""Separate-walk oracle for ``pipeline.build_book_payload``.

The per-book payload and lemma sequence as they were before one walk
over the book's words gave readability, POS counts and lemmas: the
per-token readability counts, a POS loop over every token, a token count
walked once for the payload and once for the timeline, and the lemma
comprehension the analyze worker ran on its own. Kept to check the
one-walk version against.
"""

from collections import Counter

from bindery import characters
from bindery.analytics_book import readability_suite
from bindery.errors import AnalyticsError
from bindery.xml_model import ANALYZED_POS
from oracles.readability_stats import collect_stats


def pos_distribution(book):
    counts = Counter()
    for token in book.iter_tokens():
        if token.pos in ANALYZED_POS:
            counts[token.pos] += 1
    total = sum(counts.values())
    if total == 0:
        raise AnalyticsError("no tokens tagged with analyzed POS categories")
    return {tag: {"count": counts[tag], "percent": 100.0 * counts[tag] / total}
            for tag in ANALYZED_POS}


def token_count(book):
    return sum(1 for _ in book.iter_tokens())


def build_occurrence_timeline(book, top_k=10):
    total = token_count(book)
    if total == 0:
        return {"characters": [], "chapter_breaks": []}
    rows = [{"id": r.id, "name": r.canonical_name, "gender": r.gender,
             "positions": [index / total for index in r.mention_token_indices]}
            for r in characters._ranked(book.characters)[:top_k]]
    breaks = []
    seen = 0
    for section in book.body[:-1]:
        seen += sum(len(s.tokens) for p in section.paragraphs
                    for s in p.sentences)
        breaks.append(seen / total)
    return {"characters": rows, "chapter_breaks": breaks}


def lemma_sequence(book):
    return [t.lemma for t in book.iter_tokens() if t.pos != "PUNCT" and t.lemma]


def build_book_payload(book, config):
    """``(payload, lemmas)`` of a book with the characters phase."""
    protagonist, ratio = characters.protagonist_stats(book.characters)
    try:
        readability = readability_suite(
            collect_stats(book, lexicon_dir=config.lexicon_dir))
    except AnalyticsError:
        readability = None
    try:
        pos = pos_distribution(book)
    except AnalyticsError:
        pos = None
    payload = {
        "schema": "bindery.book/1",
        "id": book.meta.source_id,
        "meta": {
            "title": book.meta.title,
            "author": book.meta.author,
            "year": book.meta.year,
            "corpus": book.meta.corpus,
            "subjects": list(book.meta.subjects),
        },
        "phases": list(book.phases) + (
            [] if book.has_phase("analytics") else ["analytics"]),
        "counts": {
            "sections": len(book.body),
            "paragraphs": sum(1 for _ in book.iter_paragraphs()),
            "sentences": sum(1 for _ in book.iter_sentences()),
            "tokens": token_count(book),
        },
        "characters": [{
            "id": r.id, "name": r.canonical_name, "gender": r.gender,
            "count": r.count, "gcc": r.gcc, "fpcc": r.fpcc, "spcc": r.spcc,
            "aliases": dict(sorted(r.alias_counts.items())),
        } for r in book.characters],
        "protagonist": ({"id": protagonist.id, "name": protagonist.canonical_name,
                         "gender": protagonist.gender}
                        if protagonist is not None else None),
        "top2_ratio": ratio,
        "readability": readability,
        "pos": pos,
        "timeline": build_occurrence_timeline(book, top_k=config.timeline_top_k),
        "network": characters.build_interaction_network(
            book.characters, window=config.interaction_window,
            min_co=config.interaction_min_co),
        "vocabulary": None,
        "similar": None,
        "placement": None,
    }
    return payload, lemma_sequence(book)
