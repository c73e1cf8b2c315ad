import random

import pytest

from bindery.errors import InvariantError, ParseError
from bindery.xml_model import (AnnotatedBook, BookMeta, CharacterRecord,
                               Header, Paragraph, Section, Sentence, Token,
                               load, load_head, parse, serialize,
                               validate)
from generators import random_book


def minimal_book():
    return AnnotatedBook(
        meta=BookMeta(title="Minimal", source_id="pg1", corpus="gutenberg"),
        body=[Section(header=Header(kind="chapter", number=1, text="CHAPTER I."),
                      paragraphs=[Paragraph(sentences=[Sentence(tokens=[
                          Token(text="Hi", index=0, offset=0),
                          Token(text=".", index=1, offset=3, pos="PUNCT"),
                      ])])])],
        phases=["ingest", "segment"],
    )


GOLDEN_MINIMAL = """<?xml version="1.0" encoding="UTF-8"?>
<book>
  <meta>
    <title>Minimal</title>
    <source_id>pg1</source_id>
    <corpus>gutenberg</corpus>
    <phases>ingest segment</phases>
  </meta>
  <body>
    <section>
      <header kind="chapter" n="1">CHAPTER I.</header>
      <p>
        <s>
          <t i="0" o="0">Hi</t>
          <t i="1" o="3" pos="PUNCT">.</t>
        </s>
      </p>
    </section>
  </body>
</book>
"""


def test_minimal_book_matches_golden_file():
    assert serialize(minimal_book()) == GOLDEN_MINIMAL


def test_parse_serialize_roundtrip_minimal():
    book = minimal_book()
    assert parse(serialize(book)) == book


def test_serialize_parse_byte_identity():
    text = serialize(minimal_book())
    assert serialize(parse(text)) == text


def test_dangling_character_is_allowed():
    # A character no token references still serializes; only the reverse
    # direction (token -> missing character) is forbidden.
    book = minimal_book()
    book.characters = [CharacterRecord(
        id=0, canonical_name="Ghost", gender="unknown",
        alias_counts={"Ghost": 3}, mention_token_indices=[10, 20, 30])]
    assert parse(serialize(book)) == book


def test_token_referencing_missing_character_is_rejected():
    book = minimal_book()
    book.body[0].paragraphs[0].sentences[0].tokens[0].character_id = 7
    with pytest.raises(InvariantError):
        serialize(book)


def test_tokens_out_of_order_rejected():
    book = minimal_book()
    book.body[0].paragraphs[0].sentences[0].tokens[1].index = 0
    with pytest.raises(InvariantError):
        validate(book)


def test_parse_rejects_out_of_order_tokens():
    text = serialize(minimal_book()).replace('i="1"', 'i="0"')
    with pytest.raises(ParseError):
        parse(text)


def test_truncated_file_reports_position():
    text = serialize(minimal_book())
    with pytest.raises(ParseError) as err:
        parse(text[: len(text) // 2])
    assert "line" in str(err.value)


def test_unknown_element_reports_line():
    text = serialize(minimal_book()).replace("<body>", "<body>\n<bogus/>")
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "bogus" in str(err.value)
    assert err.value.line is not None


def test_character_with_too_few_mentions_rejected():
    book = minimal_book()
    book.characters = [CharacterRecord(
        id=0, canonical_name="X", gender="male",
        alias_counts={"X": 2}, mention_token_indices=[1, 2])]
    with pytest.raises(InvariantError):
        serialize(book)


def test_raw_paragraph_roundtrips_exact_text():
    raw = "CONTENTS\n\nI. The House\nII. The Light  \n  indented"
    book = AnnotatedBook(
        meta=BookMeta(source_id="pg2"),
        body=[Section(paragraphs=[Paragraph(raw=raw, offset=17)])])
    assert parse(serialize(book)) == book


def test_escaping_of_special_characters():
    book = minimal_book()
    book.meta.title = 'A & B <novel> "quoted" — naïve'
    book.body[0].paragraphs[0].sentences[0].tokens[0].text = "<&>"
    book.body[0].paragraphs[0].sentences[0].tokens[0].lemma = 'l"e\nm'
    assert parse(serialize(book)) == book


def test_random_books_roundtrip():
    rnd = random.Random(20240)
    for _ in range(100):
        book = random_book(rnd)
        text = serialize(book)
        again = parse(text)
        assert again == book
        assert serialize(again) == text


@pytest.mark.parametrize("old, new", [
    ('n="1"', 'n="one"'),
    ('o="0">Hi', 'o="0" char="x">Hi'),
    ('o="0">Hi', 'o="0" q="1.5">Hi'),
])
def test_non_integer_attribute_is_a_parse_error(old, new):
    text = serialize(minimal_book()).replace(old, new)
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line is not None


def _head_of(book):
    return book.meta, book.phases


def test_load_head_matches_load_on_random_books(tmp_path):
    rnd = random.Random(4242)
    path = tmp_path / "book.xml"
    for _ in range(200):
        book = random_book(rnd)
        path.write_text(serialize(book), encoding="utf-8")
        assert load_head(path) == _head_of(load(path)) == _head_of(book)


DIGEST = "0123456789abcdef" * 4


def test_body_digest_sits_between_encoding_and_phases():
    book = minimal_book()
    book.meta.encoding = "utf-8"
    book.meta.body_sha256 = DIGEST
    text = serialize(book)
    assert ("    <encoding>utf-8</encoding>\n"
            f"    <body_sha256>{DIGEST}</body_sha256>\n"
            "    <phases>ingest segment</phases>\n") in text
    assert parse(text) == book
    assert serialize(parse(text)) == text


LEGAL_CONTROL = "\t\n\r"


@pytest.mark.parametrize("code", range(0x20))
def test_control_characters_in_text_are_rejected_but_tab_and_newlines(code):
    ch = chr(code)
    book = minimal_book()
    book.body[0].header.text = f"CHAPTER{ch}I.{ch}"
    if ch in LEGAL_CONTROL:
        validate(book)
    else:
        with pytest.raises(InvariantError) as info:
            validate(book)
        assert str(info.value) == (
            f"header text contains control character {code:#x}")


def test_control_character_error_names_the_first_one():
    book = minimal_book()
    book.front = ["ok\tfine\x1fthen\x00"]
    with pytest.raises(InvariantError,
                       match=r"^matter block contains control character 0x1f$"):
        validate(book)
    book.front = ["plain\x7f and \x85 are not C0 controls"]
    validate(book)


@pytest.mark.parametrize("digest", [DIGEST.upper(), DIGEST[1:],
                                    "g" + DIGEST[1:], ""])
def test_bad_body_digest_is_not_serialized(digest):
    book = minimal_book()
    book.meta.body_sha256 = digest
    with pytest.raises(InvariantError):
        serialize(book)


@pytest.mark.parametrize("old, new", [
    ("<year>", "<year>x"),
    ("<phases>ingest", "<phases>ingested"),
    ("<corpus>", "<corpus>\x01"),
    ("<corpus>gutenberg</corpus>", "<corpus>gutenberg</corpus><bogus/>"),
    ("<corpus>gutenberg</corpus>", "<corpus>gutenberg</corpus>stray text"),
    ("</meta>", "</mata>"),
    ("<body_sha256>0", "<body_sha256>A"),
    ("<body_sha256>0", "<body_sha256>"),
    ("<body_sha256>0", "<body_sha256>g"),
    (f"<body_sha256>{DIGEST}", "<body_sha256>"),
])
def test_malformed_meta_is_a_parse_error_with_line(tmp_path, old, new):
    book = minimal_book()
    book.meta.year = 1838
    book.meta.body_sha256 = DIGEST
    text = serialize(book)
    assert old in text
    path = tmp_path / "book.xml"
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    for reader in (load_head, load):
        with pytest.raises(ParseError) as err:
            reader(path)
        assert err.value.line is not None


def test_duplicate_meta_rejected():
    # A later <meta> would change what the first one says, which a head
    # read stopping at the first </meta> could not see.
    text = serialize(minimal_book()).replace("</meta>", "</meta>\n<meta/>")
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "duplicate <meta>" in str(err.value)


def test_load_head_does_not_read_the_body(tmp_path):
    text = serialize(minimal_book()).replace('i="1"', 'i="zero"')
    path = tmp_path / "book.xml"
    path.write_text(text, encoding="utf-8")
    assert load_head(path) == _head_of(minimal_book())
    with pytest.raises(ParseError):
        load(path)


def test_load_head_reads_on_when_meta_is_late_or_missing(tmp_path):
    text = serialize(minimal_book())
    start, end = text.index("  <meta>"), text.index("</meta>\n") + 8
    meta = text[start:end]
    late = text[:start] + text[end:].replace("</book>", meta + "</book>")
    missing = text[:start] + text[end:]
    path = tmp_path / "book.xml"
    for variant in (late, missing):
        path.write_text(variant, encoding="utf-8")
        assert load_head(path) == _head_of(load(path))
    assert load_head(path) == (BookMeta(), [])
    path.write_text(missing.replace('i="1"', 'i="0"'), encoding="utf-8")
    with pytest.raises(ParseError):
        load_head(path)


# -- compact token model --------------------------------------------------------


def _one_object_per_value(values):
    values = [v for v in values if v is not None]
    return len({id(v) for v in values}) == len(set(values))


def test_tokens_and_sentences_are_slotted():
    token = Token(text="Hi", index=0, offset=0)
    sentence = Sentence(tokens=[token])
    for value in (token, sentence):
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.colour = "red"


def test_parse_shares_equal_token_strings():
    # Token strings built at run time, so equal ones start as distinct objects.
    words = ["".join(("whal", "e")) for _ in range(4)] + ["".join(("sa", "w"))]
    book = minimal_book()
    book.body[0].paragraphs[0].sentences[0].tokens = [
        Token(text=word, index=i, offset=6 * i, pos="NOUN",
              lemma=word.upper().lower(), ner="OTHER" if i % 2 else None)
        for i, word in enumerate(words)]
    tokens = list(parse(serialize(book)).iter_tokens())
    assert [t.text for t in tokens] == words
    for field in ("text", "lemma", "pos", "ner"):
        values = [getattr(t, field) for t in tokens]
        assert _one_object_per_value(values), field
    assert tokens[0].text is tokens[3].text
    assert tokens[0].lemma is tokens[2].lemma
