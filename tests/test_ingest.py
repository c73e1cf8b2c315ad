import http.server
import logging
import threading

import pytest

from bindery.errors import EmptyInputError, NotFoundError, PagewiseError
from bindery.ingest import (BoilerplateSpan, RawBook, SourceKind,
                            annotate_front_back_matter,
                            annotate_gutenberg_boilerplate, fetch_gutenberg,
                            normalize_text, read_gutenberg,
                            read_hathi_pagewise, strip_spans)

GUTENBERG_SAMPLE = """Title: Oliver Twist
Author: Charles Dickens

*** START OF THE PROJECT GUTENBERG EBOOK OLIVER TWIST ***

The body of the book.

More body text here.

*** END OF THE PROJECT GUTENBERG EBOOK OLIVER TWIST ***
Footer license text.
"""


def gutenberg_raw(text, source_id="pgx"):
    return RawBook(source_id=source_id, source_kind=SourceKind.GUTENBERG_TEXT,
                   pages=[text])


def test_read_gutenberg_metadata(tmp_path):
    path = tmp_path / "730.txt"
    path.write_text(GUTENBERG_SAMPLE, encoding="utf-8")
    book = read_gutenberg(path)
    assert book.metadata["title"] == "Oliver Twist"
    assert book.metadata["author"] == "Charles Dickens"
    assert book.source_id == "pg730"


def test_read_gutenberg_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("   \n\n ", encoding="utf-8")
    with pytest.raises(EmptyInputError):
        read_gutenberg(path)


def test_read_gutenberg_without_metadata(tmp_path):
    path = tmp_path / "raw.txt"
    path.write_text("Just some prose without headers.", encoding="utf-8")
    book = read_gutenberg(path)
    assert "title" not in book.metadata
    assert len(book.pages) == 1


def test_read_gutenberg_latin1_fallback(tmp_path):
    path = tmp_path / "latin.txt"
    path.write_bytes("caf\xe9 sur la plage".encode("latin-1"))
    book = read_gutenberg(path)
    assert book.metadata["encoding"] == "latin-1"
    assert "café" in book.text


def test_normalize_text_scrubs_controls():
    text, encoding = normalize_text(b"a\x00b\r\nc\rd\x0c")
    assert text == "a b\nc\nd "
    assert encoding == "utf-8"


def test_pagewise_orders_numerically(tmp_path):
    (tmp_path / "00000002.txt").write_text("b", encoding="utf-8")
    (tmp_path / "00000010.txt").write_text("c", encoding="utf-8")
    (tmp_path / "00000001.txt").write_text("a", encoding="utf-8")
    book = read_hathi_pagewise(tmp_path)
    assert book.pages == ["a", "b", "c"]


def test_pagewise_gap_warning(tmp_path, caplog):
    (tmp_path / "00000002.txt").write_text("only page", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        book = read_hathi_pagewise(tmp_path)
    assert book.pages == ["only page"]

    (tmp_path / "00000005.txt").write_text("later page", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        read_hathi_pagewise(tmp_path)
    assert any("gap" in record.message for record in caplog.records)


def test_pagewise_rejects_non_numeric_names(tmp_path):
    (tmp_path / "0001.txt").write_text("a", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("b", encoding="utf-8")
    with pytest.raises(PagewiseError):
        read_hathi_pagewise(tmp_path)


def test_pagewise_empty_dir(tmp_path):
    with pytest.raises(EmptyInputError):
        read_hathi_pagewise(tmp_path)


def test_pagewise_manifest_metadata(tmp_path):
    (tmp_path / "0001.txt").write_text("page one text", encoding="utf-8")
    (tmp_path / "manifest.txt").write_text(
        "title: North of the Weir\nauthor: Thomas Hale\nyear: 1897\n",
        encoding="utf-8")
    book = read_hathi_pagewise(tmp_path)
    assert book.metadata["title"] == "North of the Weir"
    assert book.metadata["year"] == 1897


def test_pagewise_preserves_character_count(tmp_path):
    pages = ["first page", "second", "the third page"]
    for i, content in enumerate(pages, 1):
        (tmp_path / f"{i:08d}.txt").write_text(content, encoding="utf-8")
    book = read_hathi_pagewise(tmp_path)
    expected = sum(len(p) for p in pages) + len(book.page_separator) * 2
    assert len(book.text) == expected


def test_gutenberg_markers_bracket_body():
    book = gutenberg_raw(GUTENBERG_SAMPLE)
    spans = annotate_gutenberg_boilerplate(book)
    kinds = [s.kind for s in spans]
    assert kinds == ["gutenberg_header", "gutenberg_footer"]
    body, _ = strip_spans(book.text, spans)
    assert body.strip() == "The body of the book.\n\nMore body text here."


def test_reconstruction_is_byte_exact():
    book = gutenberg_raw(GUTENBERG_SAMPLE)
    spans = annotate_gutenberg_boilerplate(book)
    pieces = []
    cursor = 0
    for span in sorted(spans, key=lambda s: s.start_offset):
        pieces.append(book.text[cursor:span.start_offset])
        pieces.append(book.text[span.start_offset:span.end_offset])
        cursor = span.end_offset
    pieces.append(book.text[cursor:])
    assert "".join(pieces) == book.text


def test_no_markers_yields_empty_spans(caplog):
    book = gutenberg_raw("Prose only, no markers at all.\n\nMore prose.")
    with caplog.at_level(logging.WARNING):
        spans = annotate_gutenberg_boilerplate(book)
    assert spans == []
    assert any("marker" in r.message for r in caplog.records)


def test_start_marker_only_gives_header_span():
    text = ("*** START OF THE PROJECT GUTENBERG EBOOK X ***\n"
            "Body text follows.\n")
    spans = annotate_gutenberg_boilerplate(gutenberg_raw(text))
    assert [s.kind for s in spans] == ["gutenberg_header"]


def test_boilerplate_idempotent_on_body():
    book = gutenberg_raw(GUTENBERG_SAMPLE)
    spans = annotate_gutenberg_boilerplate(book)
    body, _ = strip_spans(book.text, spans)
    again = annotate_gutenberg_boilerplate(gutenberg_raw(body))
    assert [s for s in again if s.kind.startswith("gutenberg")] == []


def test_legacy_small_print_marker():
    text = ('*END*THE SMALL PRINT! FOR PUBLIC DOMAIN ETEXTS*\n'
            "Body starts here.\n")
    spans = annotate_gutenberg_boilerplate(gutenberg_raw(text))
    assert spans[0].kind == "gutenberg_header"


def test_front_matter_contents_page():
    text = ("CONTENTS\n\nI. The House on the Levels\nII. A Light\n"
            "III. The Daughter\n\n"
            "It was a dark and stormy night on the marsh, and the rain fell "
            "steadily on the long grass by the water.\n")
    spans = annotate_front_back_matter(gutenberg_raw(text), window_frac=0.5)
    assert [s.kind for s in spans] == ["front_matter"]
    body, _ = strip_spans(text, spans)
    assert body.lstrip().startswith("It was a dark")


def test_body_only_book_has_no_matter_spans():
    text = ("It was the best of times, it was the worst of times, it was the "
            "age of wisdom, it was the age of foolishness, it was the epoch "
            "of belief.\n\nThere were a king with a large jaw and a queen "
            "with a plain face, on the throne of England.\n")
    assert annotate_front_back_matter(gutenberg_raw(text)) == []


def test_back_matter_after_the_end():
    body = ("A long and satisfying story fills this paragraph with plenty "
            "of words so the advertisement tail stays inside the final "
            "tenth of the text. " * 12)
    text = (body + "\n\nTHE END\n\nADVERTISEMENTS\n\n"
            "NICHOLAS NICKLEBY. Price two shillings.\n")
    spans = annotate_front_back_matter(gutenberg_raw(text))
    assert [s.kind for s in spans] == ["back_matter"]
    kept, blocks = strip_spans(text, spans)
    assert "ADVERTISEMENTS" in blocks["back_matter"][0]
    assert kept.rstrip().endswith("THE END")


def test_metadata_block_without_markers_is_the_header():
    # The header runs to the blank line that ends the block holding the
    # last metadata line.
    head = ("Title: The Marsh\n"
            "Author: Ann Lee\n"
            "Release Date: May 1, 1901\n"
            "[This file was first posted on the same day]\n"
            "\n")
    text = head + "It rained on the marsh.\n\nThe rain stopped.\n"
    spans = annotate_gutenberg_boilerplate(gutenberg_raw(text))
    assert spans == [BoilerplateSpan("gutenberg_header", 0, 105)]
    assert len(head) == 105


@pytest.mark.parametrize("head, body, end", [
    # A blank line right after the last metadata line ends the header.
    ("Title: X\nAuthor: Y\n\n", "Body one.\n\nBody two.\n", 20),
    ("Title: X\nAuthor: Y\nLanguage: Z\n\n\n", "Body one.\n", 33),
])
def test_metadata_header_ends_at_the_first_blank_line(head, body, end):
    spans = annotate_gutenberg_boilerplate(gutenberg_raw(head + body))
    assert spans == [BoilerplateSpan("gutenberg_header", 0, end)]
    assert len(head) == end


def test_advertisements_after_the_last_chapter_are_back_matter():
    body = ("A long and satisfying story fills this paragraph with plenty "
            "of words so the advertisement tail stays inside the final "
            "tenth of the text. " * 12)
    tail = "BOOKS BY THE SAME AUTHOR\n\nBleak Days. Price 3s. 6d.\n"
    text = f"CHAPTER I.\n\n{body}\n\nCHAPTER II.\n\n{body}\n\n{tail}"
    spans = annotate_front_back_matter(gutenberg_raw(text))
    assert spans == [BoilerplateSpan("back_matter", len(text) - 52,
                                     len(text))]
    assert text[len(text) - 52:] == tail


def test_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "pg730.txt"
    path.write_bytes(b"\xef\xbb\xbf" + GUTENBERG_SAMPLE.encode("utf-8"))
    book = read_gutenberg(path)
    assert book.text == GUTENBERG_SAMPLE
    assert (book.metadata["title"], book.metadata["encoding"]) == (
        "Oliver Twist", "utf-8")
    # Offsets count from the first character after the mark.
    spans = annotate_gutenberg_boilerplate(book)
    assert [(s.start_offset, s.end_offset) for s in spans] == [
        (0, 103), (149, 226)]
    assert GUTENBERG_SAMPLE[:103].endswith("OLIVER TWIST ***\n")
    assert GUTENBERG_SAMPLE[149:].startswith("*** END")


class _StubHandler(http.server.BaseHTTPRequestHandler):
    requests = []
    payload = b"Title: Stub Book\n\nBody.\n"

    def do_GET(self):
        _StubHandler.requests.append(self.path)
        if "404" in self.path:
            self.send_response(404)
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Length", str(len(self.payload)))
        self.end_headers()
        self.wfile.write(self.payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = http.server.HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.requests = []
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()


def test_fetch_saves_fixture(stub_server, tmp_path):
    path = fetch_gutenberg(730, stub_server, tmp_path)
    assert path.read_bytes() == _StubHandler.payload
    assert _StubHandler.requests == ["/730/pg730.txt"]


def test_fetch_is_idempotent(stub_server, tmp_path):
    fetch_gutenberg(730, stub_server, tmp_path)
    before = list(_StubHandler.requests)
    fetch_gutenberg(730, stub_server, tmp_path)
    assert _StubHandler.requests == before  # no second network call


def test_fetch_missing_id_raises(stub_server, tmp_path):
    with pytest.raises(NotFoundError):
        fetch_gutenberg(404404, stub_server, tmp_path)


def test_strip_spans_partitions_text():
    text = "aaaHEADERbbbFOOTERccc"
    spans = [BoilerplateSpan("gutenberg_header", 3, 9),
             BoilerplateSpan("gutenberg_footer", 12, 18)]
    body, blocks = strip_spans(text, spans)
    assert body == "aaabbbccc"
    assert blocks == {"gutenberg_header": ["HEADER"],
                      "gutenberg_footer": ["FOOTER"]}
