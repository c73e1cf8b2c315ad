import itertools
import random
import re

import pytest

from bindery.config import Config
from bindery.errors import InvariantError, ParseError
from bindery.ingest import read_gutenberg
from bindery.pipeline import annotate_book, ingest_to_book
from bindery.xml_model import (DIGEST_FIELDS, AnnotatedBook, BookMeta,
                               CharacterRecord, Header, Paragraph, Section,
                               Sentence, Token, load, load_head, parse,
                               serialize, validate)
from conftest import BOOKS
from generators import random_book
from oracles import parse as oracle


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
    # The traces follow the body digest, ingest's first.
    book.meta.ingest_trace = DIGEST[::-1]
    book.meta.annotate_trace = DIGEST[8:] + DIGEST[:8]
    text = serialize(book)
    assert (f"    <body_sha256>{DIGEST}</body_sha256>\n"
            f"    <ingest_trace>{book.meta.ingest_trace}</ingest_trace>\n"
            f"    <annotate_trace>{book.meta.annotate_trace}</annotate_trace>\n"
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
    for name in DIGEST_FIELDS:  # the body digest and the two traces
        book = minimal_book()
        setattr(book.meta, name, digest)
        with pytest.raises(InvariantError, match=f"^{name} is not 64"):
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
    *((f"<{name}>{DIGEST}", f"<{name}>{bad}") for name in DIGEST_FIELDS[1:]
      for bad in ("A", "g", "", DIGEST + "0")),
    (f"<ingest_trace>{DIGEST}", f"<ingest_trace>{DIGEST[1:]}"),
])
def test_malformed_meta_is_a_parse_error_with_line(tmp_path, old, new):
    book = minimal_book()
    book.meta.year = 1838
    for name in DIGEST_FIELDS:
        setattr(book.meta, name, DIGEST)
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


def _rich_book():
    """The first random book with two characters, a header, a raw paragraph
    and a token, so that every check below has something to break."""
    for seed in itertools.count():
        book = random_book(seed=seed)
        if (len(book.characters) > 1 and any(s.header for s in book.body)
                and any(p.is_raw for p in book.iter_paragraphs())
                and next(book.iter_tokens(), None)):
            return validate(book)


def _header(book):
    return next(s.header for s in book.body if s.header)


def _raw_paragraph(book):
    return next(p for p in book.iter_paragraphs() if p.is_raw)


def _token(book):
    return next(book.iter_tokens())


def _raise_count(record):
    record.alias_counts[record.canonical_name] += 1


# name -> (how to break a valid book, the error's message).
BROKEN_BOOKS = {
    "duplicate character id": (
        lambda b: setattr(b.characters[1], "id", b.characters[0].id),
        r"^duplicate character id \d+$"),
    "bad gender": (lambda b: setattr(b.characters[0], "gender", "it"),
                   "bad gender 'it'$"),
    "canonical name not an alias": (
        lambda b: setattr(b.characters[0], "canonical_name", "Nobody"),
        r"canonical name 'Nobody' not among aliases$"),
    "alias counts off": (lambda b: _raise_count(b.characters[0]),
                         "alias counts do not sum to mention count$"),
    "unsorted mentions": (
        lambda b: b.characters[0].mention_token_indices.reverse(),
        "mention indices not sorted$"),
    "negative coreference count": (
        lambda b: setattr(b.characters[0], "fpcc", -1),
        "negative coreference count$"),
    "bad header kind": (lambda b: setattr(_header(b), "kind", "canto"),
                        "^bad header kind: 'canto'$"),
    "header number 0": (lambda b: setattr(_header(b), "number", 0),
                        "^header number 0 < 1$"),
    "raw paragraph with sentences": (
        lambda b: _raw_paragraph(b).sentences.append(Sentence()),
        "^paragraph has both raw text and sentences$"),
    "raw paragraph without offset": (
        lambda b: setattr(_raw_paragraph(b), "offset", None),
        "^raw paragraph missing offset$"),
    "empty token": (lambda b: setattr(_token(b), "text", ""),
                    r"^empty token at index \d+$"),
    "negative token offset": (lambda b: setattr(_token(b), "offset", -1),
                              r"^token \d+: negative offset$"),
    "bad ner": (lambda b: setattr(_token(b), "ner", "PLACE"),
                r"^token \d+: bad ner 'PLACE'$"),
}


@pytest.mark.parametrize("name", list(BROKEN_BOOKS))
def test_validate_rejects_each_broken_invariant(name):
    breaks, message = BROKEN_BOOKS[name]
    book = _rich_book()
    breaks(book)
    with pytest.raises(InvariantError, match=message):
        validate(book)


# name -> (pattern, its replacement, the error's message): one edit of a
# valid book's text that the parser rejects. A text without <book> has no
# element at all, which expat rejects before the builder can.
BROKEN_TEXTS = {
    "no <book> root": (r"(?s)<book>.*", "", "no element found"),
    "wrong root": (r"(?s)<book>(.*)</book>", r"<novel>\1</novel>",
                   "expected <book> root, found <novel>"),
    "<s> in a raw <p>": (r'(<p o="\d+">)[^<]*', r"\1<s/>",
                         "raw paragraph cannot contain sentences"),
    "text in <body>": ("  </body>", "  stray</body>",
                       "unexpected text inside <body>"),
    "character without <name>": (r"(<character [^>]*>\n)(      <name .*\n)+",
                                 r"\1", "character has no <name> aliases"),
    "count off": (r'(<character id="\d+" gender="\w+" count=")\d+', r"\g<1>99",
                  r"declared count 99 != \d+ mention indices"),
    "duplicate alias": (r"(      <name .*\n)", r"\1\1", "duplicate alias '"),
    "bad mention list": ("<mentions>", "<mentions>x",
                         "bad mention index list: 'x"),
    "missing attribute": (r' gender="\w+"', "", "missing attribute 'gender'"),
    # Whole messages, line included.
    "element not allowed in <s>": (r"(<s>\n)", r"\1<b/>",
                                   r"^unknown element <b> inside <s> \(line 44\)$"),
    "text before a <t>": (r"<s>\n", r"<s>x\n",
                          r"^unexpected text inside <s> \(line 44\)$"),
    "bad year": (r"  <meta>\n", r"  <meta>\n    <year>x</year>\n",
                 r"^bad year: 'x' \(line 4\)$"),
    "non-integer index": (r'i="0"', r'i="zero"',
                          r"^attribute i='zero' is not an integer \(line 44\)$"),
    "token without offset": (r'(<t i="\d+") o="\d+"', r"\1",
                             r"^missing attribute 'o' \(line 44\)$"),
    "second <meta>": (r"</meta>\n", r"</meta>\n  <meta/>\n",
                      r"^duplicate <meta> \(line 13\)$"),
}


@pytest.mark.parametrize("name", list(BROKEN_TEXTS))
def test_parse_rejects_each_broken_text(name):
    pattern, replacement, message = BROKEN_TEXTS[name]
    text, edits = re.subn(pattern, replacement, serialize(_rich_book()),
                          count=1)
    assert edits == 1
    with pytest.raises(ParseError, match=message):
        parse(text)



def test_add_phase_rejects_an_unknown_phase():
    book = minimal_book()
    with pytest.raises(ValueError, match="unknown phase: bogus"):
        book.add_phase("bogus")
    assert book.phases == ["ingest", "segment"]


# -- the per-name oracle ----------------------------------------------------------

_SUBSTITUTES = b'<>&"=x0'


def _mutate(rnd, data):
    """One seeded edit of a file's bytes: a deleted or duplicated run of
    bytes, one byte replaced by a markup character, or a dropped or
    swapped line."""
    kind = rnd.randrange(5)
    at = rnd.randrange(len(data))
    end = at + rnd.randint(1, 8)
    if kind == 0:
        return data[:at] + data[end:]
    if kind == 1:
        return data[:end] + data[at:]
    if kind == 2:
        return data[:at] + bytes([rnd.choice(_SUBSTITUTES)]) + data[at + 1:]
    lines = data.splitlines(keepends=True)
    i, j = rnd.randrange(len(lines)), rnd.randrange(len(lines))
    if kind == 3:
        del lines[i]
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return b"".join(lines)


def _outcome(read, source):
    """What a reader gives: its result, or its error's type and text."""
    try:
        return read(source)
    except Exception as exc:
        return type(exc), str(exc)


def test_parse_and_load_head_match_the_per_name_oracle(tmp_path):
    config = Config()
    books = [annotate_book(ingest_to_book(read_gutenberg(path), config), config)
             for path in sorted(BOOKS.glob("pg*.txt"))]
    rnd = random.Random(1000)  # criterion 10's books
    books += [random_book(rnd) for _ in range(1000)]
    for book in books:
        text = serialize(book)
        assert parse(text) == oracle.parse(text) == book

    rnd = random.Random(3232)
    path = tmp_path / "book.xml"
    accepted, messages = 0, set()
    for _ in range(2000):
        data = _mutate(rnd, serialize(random_book(rnd)).encode("utf-8"))
        expected = _outcome(oracle.parse, data)
        assert _outcome(parse, data) == expected
        path.write_bytes(data)
        assert _outcome(load_head, path) == _outcome(oracle.load_head, path)
        if isinstance(expected, tuple):
            messages.add(re.sub(r"\d+|'.*'|<\w+>", "N", expected[1]))
        else:
            accepted += 1
    # The edits reach the builder's checks, not just expat's, and leave
    # some books whole.
    assert len(messages) >= 20 and accepted >= 100, (accepted, messages)
