"""Shared test helpers for building annotated books from plain text."""

from bindery.linguistic import (annotate_paragraph, attribute_quotes,
                                extract_quotes, token_table)
from bindery.characters import attach_pronoun_counts, identify_characters
from bindery.xml_model import AnnotatedBook, BookMeta, Paragraph, Section


def build_annotated(text, source_id="pgt"):
    """Tokenized book from paragraph-separated text (one section)."""
    paragraphs = []
    index = 0
    offset = 0
    for chunk in text.strip().split("\n\n"):
        p = Paragraph(raw=chunk, offset=offset)
        index = annotate_paragraph(p, index)
        offset += len(chunk) + 2
        paragraphs.append(p)
    book = AnnotatedBook(meta=BookMeta(source_id=source_id),
                         body=[Section(paragraphs=paragraphs)])
    book.phases = ["ingest", "segment", "linguistic"]
    return book


def run_characters(text, min_mentions=3):
    """Full character pass over text; returns (book, records, quotes)."""
    book = build_annotated(text)
    table = token_table(book)
    records, assignments = identify_characters(book, table,
                                               min_mentions=min_mentions)
    quotes = extract_quotes(list(book.iter_paragraphs()))
    attribute_quotes(quotes, table, assignments)
    attach_pronoun_counts(table, records, quotes, assignments)
    book.add_phase("characters")
    return book, records, quotes
