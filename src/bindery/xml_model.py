"""The standard annotation document.

An :class:`AnnotatedBook` is a tree of metadata, front/back matter blocks,
sections, paragraphs, sentences, and tokens, with canonically identified
characters attached. The same schema serves every pipeline stage: optional
attributes appear as phases complete, and a phase stamp list in ``<meta>``
records which stages have run.

Serialization is canonical: fixed element and attribute order, 2-space
indent, UTF-8. ``parse(serialize(book)) == book`` for every valid book,
and ``serialize(parse(text)) == text`` byte-for-byte for canonically
serialized files.
"""

import re
import sys
from dataclasses import dataclass, field
from xml.parsers import expat

from .errors import BinderyError, InvariantError, ParseError

POS_TAGS = (
    "NOUN", "ADJ", "VERB", "ADV", "PRON", "INTJ",
    "ADP", "CONJ", "DET", "NUM", "PUNCT", "OTHER",
)
ANALYZED_POS = ("NOUN", "ADJ", "VERB", "ADV", "PRON", "INTJ", "ADP", "CONJ")
NER_TAGS = ("PERSON", "OTHER")
GENDERS = ("male", "female", "unknown")
HEADER_KINDS = ("chapter", "book", "part", "volume", "section", "other")
PHASES = ("ingest", "segment", "linguistic", "characters", "analytics")


# A novel has about ten tokens per distinct word and tens of thousands of
# tokens: tokens and sentences are slotted, and the strings of a token are
# interned where tokens are built (here and in ``linguistic``), so each
# distinct text, lemma and tag is stored once.
@dataclass(slots=True)
class Token:
    text: str
    index: int
    offset: int
    pos: str | None = None
    lemma: str | None = None
    ner: str | None = None
    character_id: int | None = None
    quote_id: int | None = None


@dataclass(slots=True)
class Sentence:
    tokens: list[Token] = field(default_factory=list)


@dataclass
class Paragraph:
    """Raw text block before tokenization, list of sentences after."""

    sentences: list[Sentence] = field(default_factory=list)
    raw: str | None = None
    offset: int | None = None

    @property
    def is_raw(self):
        return self.raw is not None


@dataclass
class Header:
    kind: str
    number: int | None
    text: str


@dataclass
class Section:
    header: Header | None = None
    paragraphs: list[Paragraph] = field(default_factory=list)


@dataclass
class CharacterRecord:
    id: int
    canonical_name: str
    gender: str
    alias_counts: dict[str, int] = field(default_factory=dict)
    mention_token_indices: list[int] = field(default_factory=list)
    gcc: int = 0
    fpcc: int = 0
    spcc: int = 0

    @property
    def count(self):
        return len(self.mention_token_indices)

    @property
    def aliases(self):
        return set(self.alias_counts)


@dataclass
class BookMeta:
    title: str | None = None
    author: str | None = None
    year: int | None = None
    source_id: str = ""
    corpus: str | None = None
    subjects: list[str] = field(default_factory=list)
    encoding: str | None = None
    # Hex SHA-256 of the canonical body as ingested; later phases keep it.
    body_sha256: str | None = None
    # Traces of what ingest and annotate built the book from (pipeline.Traces).
    ingest_trace: str | None = None
    annotate_trace: str | None = None


@dataclass
class AnnotatedBook:
    meta: BookMeta = field(default_factory=BookMeta)
    front: list[str] = field(default_factory=list)
    back: list[str] = field(default_factory=list)
    body: list[Section] = field(default_factory=list)
    characters: list[CharacterRecord] = field(default_factory=list)
    phases: list[str] = field(default_factory=list)

    # -- traversal ---------------------------------------------------------

    def iter_paragraphs(self):
        for section in self.body:
            yield from section.paragraphs

    def iter_sentences(self):
        for paragraph in self.iter_paragraphs():
            yield from paragraph.sentences

    def iter_tokens(self):
        for sentence in self.iter_sentences():
            yield from sentence.tokens

    def has_phase(self, phase):
        return phase in self.phases

    def add_phase(self, phase):
        if phase not in PHASES:
            raise ValueError(f"unknown phase: {phase}")
        if phase not in self.phases:
            self.phases.append(phase)


# -- validation -------------------------------------------------------------

# The C0 control characters but tab, newline and carriage return.
_ILLEGAL_CTRL = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f]")
_SHA256_HEX = re.compile(r"[0-9a-f]{64}")
# The ``<meta>`` fields that hold a hex SHA-256, in document order.
DIGEST_FIELDS = ("body_sha256", "ingest_trace", "annotate_trace")
# The ``<meta>`` fields the parser stores as their text, unconverted.
_META_TEXT = ("title", "author", "source_id", "corpus", "encoding",
              *DIGEST_FIELDS)


def _check_text(value, what):
    match = _ILLEGAL_CTRL.search(value)
    if match:
        raise InvariantError(
            f"{what} contains control character {ord(match.group()):#x}")


def _validate_meta(meta, phases):
    for name, value in (("title", meta.title), ("author", meta.author),
                        ("source_id", meta.source_id), ("corpus", meta.corpus)):
        if value:
            _check_text(value, f"meta {name}")
    for name in DIGEST_FIELDS:
        value = getattr(meta, name)
        if value is not None and not _SHA256_HEX.fullmatch(value):
            raise InvariantError(
                f"{name} is not 64 lowercase hex digits: {value!r}")
    for phase in phases:
        if phase not in PHASES:
            raise InvariantError(f"unknown phase stamp: {phase}")


def validate(book):
    """Raise :class:`InvariantError` if the document violates an invariant."""
    _validate_meta(book.meta, book.phases)
    for block in list(book.front) + list(book.back):
        _check_text(block, "matter block")

    char_ids = set()
    for record in book.characters:
        if record.id in char_ids:
            raise InvariantError(f"duplicate character id {record.id}")
        char_ids.add(record.id)
        if record.gender not in GENDERS:
            raise InvariantError(f"character {record.id}: bad gender {record.gender!r}")
        if record.canonical_name not in record.alias_counts:
            raise InvariantError(
                f"character {record.id}: canonical name {record.canonical_name!r} "
                "not among aliases")
        if record.count <= 2:
            raise InvariantError(
                f"character {record.id}: only {record.count} mentions (minimum 3)")
        if sum(record.alias_counts.values()) != record.count:
            raise InvariantError(
                f"character {record.id}: alias counts do not sum to mention count")
        if record.mention_token_indices != sorted(record.mention_token_indices):
            raise InvariantError(f"character {record.id}: mention indices not sorted")
        if min(record.gcc, record.fpcc, record.spcc) < 0:
            raise InvariantError(f"character {record.id}: negative coreference count")

    last_index = -1
    for section in book.body:
        if section.header is not None:
            if section.header.kind not in HEADER_KINDS:
                raise InvariantError(f"bad header kind: {section.header.kind!r}")
            if section.header.number is not None and section.header.number < 1:
                raise InvariantError(f"header number {section.header.number} < 1")
            _check_text(section.header.text, "header text")
        for paragraph in section.paragraphs:
            if paragraph.is_raw:
                if paragraph.sentences:
                    raise InvariantError("paragraph has both raw text and sentences")
                if paragraph.offset is None:
                    raise InvariantError("raw paragraph missing offset")
                _check_text(paragraph.raw, "paragraph text")
                continue
            for sentence in paragraph.sentences:
                for token in sentence.tokens:
                    if not token.text:
                        raise InvariantError(f"empty token at index {token.index}")
                    _check_text(token.text, f"token {token.index}")
                    if token.index <= last_index:
                        raise InvariantError(
                            f"token index {token.index} not increasing "
                            f"(previous {last_index})")
                    last_index = token.index
                    if token.offset < 0:
                        raise InvariantError(f"token {token.index}: negative offset")
                    if token.pos is not None and token.pos not in POS_TAGS:
                        raise InvariantError(
                            f"token {token.index}: bad pos {token.pos!r}")
                    if token.ner is not None and token.ner not in NER_TAGS:
                        raise InvariantError(
                            f"token {token.index}: bad ner {token.ner!r}")
                    if token.character_id is not None and token.character_id not in char_ids:
                        raise InvariantError(
                            f"token {token.index}: references missing character "
                            f"{token.character_id}")
    return book


# -- serialization ------------------------------------------------------------


def _esc_text(value):
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace("\r", "&#13;"))


def _esc_attr(value):
    return (_esc_text(value).replace('"', "&quot;")
            .replace("\n", "&#10;").replace("\t", "&#9;"))


def serialize(book):
    """Render the canonical XML text for a valid book."""
    return "".join(serialize_pieces(book))


def serialize_pieces(book):
    """:func:`pieces` of a book validated when the first piece is asked for."""
    validate(book)
    yield from pieces(book)


def pieces(book):
    """The canonical XML text of a book, a piece at a time, unchecked.

    The first piece runs from the declaration through ``<body>``. Then
    each section comes as its opening tags, one piece per paragraph and
    its closing tag, and the book's closing tags come last, so a writer
    of the pieces holds one paragraph's text at a time. Only a book that
    has passed :func:`validate` since it last changed gives valid XML.
    """
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n<book>\n']
    _write_meta(out, book)
    _write_matter(out, "front", book.front)
    _write_matter(out, "back", book.back)
    if book.characters:
        out.append("  <characters>\n")
        for record in book.characters:
            _write_character(out, record)
        out.append("  </characters>\n")
    out.append("  <body>\n")
    yield "".join(out)
    for section in book.body:
        yield from _section_pieces(section)
    yield "  </body>\n</book>\n"


def _write_meta(out, book):
    out.append("  <meta>\n")
    meta = book.meta
    if meta.title is not None:
        out.append(f"    <title>{_esc_text(meta.title)}</title>\n")
    if meta.author is not None:
        out.append(f"    <author>{_esc_text(meta.author)}</author>\n")
    if meta.year is not None:
        out.append(f"    <year>{meta.year}</year>\n")
    if meta.source_id:
        out.append(f"    <source_id>{_esc_text(meta.source_id)}</source_id>\n")
    if meta.corpus is not None:
        out.append(f"    <corpus>{_esc_text(meta.corpus)}</corpus>\n")
    for subject in meta.subjects:
        out.append(f"    <subject>{_esc_text(subject)}</subject>\n")
    if meta.encoding is not None:
        out.append(f"    <encoding>{_esc_text(meta.encoding)}</encoding>\n")
    for name in DIGEST_FIELDS:
        if getattr(meta, name) is not None:
            out.append(f"    <{name}>{getattr(meta, name)}</{name}>\n")
    if book.phases:
        out.append(f"    <phases>{' '.join(book.phases)}</phases>\n")
    out.append("  </meta>\n")


def _write_matter(out, tag, blocks):
    if not blocks:
        return
    out.append(f"  <{tag}>\n")
    for block in blocks:
        out.append(f"    <block>{_esc_text(block)}</block>\n")
    out.append(f"  </{tag}>\n")


def _write_character(out, record):
    out.append(
        f'    <character id="{record.id}" gender="{record.gender}" '
        f'count="{record.count}" gcc="{record.gcc}" fpcc="{record.fpcc}" '
        f'spcc="{record.spcc}">\n')
    remaining = sorted(
        (alias for alias in record.alias_counts if alias != record.canonical_name),
        key=lambda alias: (-record.alias_counts[alias], alias))
    for alias in [record.canonical_name] + remaining:
        out.append(
            f'      <name count="{record.alias_counts[alias]}">'
            f"{_esc_text(alias)}</name>\n")
    indices = " ".join(str(i) for i in record.mention_token_indices)
    out.append(f"      <mentions>{indices}</mentions>\n")
    out.append("    </character>\n")


def _section_pieces(section):
    head = "    <section>\n"
    if section.header is not None:
        number = "" if section.header.number is None else f' n="{section.header.number}"'
        head += (f'      <header kind="{section.header.kind}"{number}>'
                 f"{_esc_text(section.header.text)}</header>\n")
    yield head
    for paragraph in section.paragraphs:
        yield _paragraph_text(paragraph)
    yield "    </section>\n"


def _paragraph_text(paragraph):
    if paragraph.is_raw:
        return f'      <p o="{paragraph.offset}">{_esc_text(paragraph.raw)}</p>\n'
    out = ["      <p>\n"]
    for sentence in paragraph.sentences:
        out.append("        <s>\n")
        for token in sentence.tokens:
            out.append(_token_line(token))
        out.append("        </s>\n")
    out.append("      </p>\n")
    return "".join(out)


def _token_line(token):
    attrs = [f'i="{token.index}"', f'o="{token.offset}"']
    if token.pos is not None:
        attrs.append(f'pos="{token.pos}"')
    if token.lemma is not None:
        attrs.append(f'lemma="{_esc_attr(token.lemma)}"')
    if token.ner is not None:
        attrs.append(f'ner="{token.ner}"')
    if token.character_id is not None:
        attrs.append(f'char="{token.character_id}"')
    if token.quote_id is not None:
        attrs.append(f'q="{token.quote_id}"')
    return f"          <t {' '.join(attrs)}>{_esc_text(token.text)}</t>\n"


# -- parsing ------------------------------------------------------------------


class _MetaRead(Exception):
    """Raised by a head-only builder once ``</meta>`` has been checked."""


class _BookBuilder:
    """Expat handler assembling an AnnotatedBook and tracking line numbers.

    It checks each element against its parent's entry in :data:`_ELEMENTS`
    and runs the element's own. With ``head_only`` it stops at the end of
    ``<meta>`` by raising :class:`_MetaRead`; everything before that point
    gets the same checks as a full parse.
    """

    def __init__(self, head_only=False):
        self.head_only = head_only
        self.stack = []
        self.text_parts = []
        self.book = None
        self.parser = expat.ParserCreate("UTF-8")
        self.parser.buffer_text = True
        self.parser.StartElementHandler = self._start
        self.parser.EndElementHandler = self._end
        self.parser.CharacterDataHandler = self.text_parts.append

    def feed(self, data, final):
        try:
            self.parser.Parse(data, final)
        except expat.ExpatError as exc:
            raise ParseError(f"malformed XML: {expat.errors.messages[exc.code]}",
                             line=exc.lineno) from exc

    def result(self):
        # The parser's handlers hold this builder: dropping the parser ends
        # the cycle, so expat's buffers are freed now, not at the next full
        # garbage collection.
        self.parser = None
        return self.book

    def _fail(self, message):
        raise ParseError(message, line=self.parser.CurrentLineNumber)

    def _start(self, name, attrs):
        if self.stack:
            parent_name, parent, _ = self.stack[-1]
            if name not in _ELEMENTS[parent_name][0]:
                self._fail(f"unknown element <{name}> inside <{parent_name}>")
            if "".join(self.text_parts).strip():
                self._fail(f"unexpected text inside <{parent_name}>")
            self.text_parts.clear()
        elif name != "book":
            self._fail(f"expected <book> root, found <{name}>")
        else:
            parent = None
        start = _ELEMENTS[name][1]
        node = None if start is None else start(parent, attrs, self)
        self.stack.append((name, node, attrs))

    def _end(self, name):
        _, node, attrs = self.stack.pop()
        text = "".join(self.text_parts)
        self.text_parts.clear()
        children, _, end = _ELEMENTS[name]
        # An element that may hold children holds no text, but a raw <p>.
        if children and text.strip() and not (name == "p" and "o" in attrs):
            self._fail(f"unexpected text inside <{name}>")
        if end is not None:
            end(self.stack[-1][1] if self.stack else None, text, node, attrs, self)

    def _req(self, attrs, key):
        if key not in attrs:
            self._fail(f"missing attribute {key!r}")
        return attrs[key]

    def _int(self, attrs, key):
        raw = self._req(attrs, key)
        try:
            return int(raw)
        except ValueError:
            self._fail(f"attribute {key}={raw!r} is not an integer")


def _open_book(parent, attrs, b):
    # ``meta`` stays None until ``<meta>`` opens, so a second one shows.
    b.book = AnnotatedBook(meta=None)
    return b.book


def _close_book(parent, text, book, attrs, b):
    book.meta = book.meta or BookMeta()
    try:
        validate(book)
    except InvariantError as exc:
        raise ParseError(str(exc)) from exc


def _open_meta(book, attrs, b):
    if book.meta is not None:
        b._fail("duplicate <meta>")
    book.meta = BookMeta()
    return book.meta


def _close_meta(book, text, meta, attrs, b):
    try:
        _validate_meta(meta, book.phases)
    except InvariantError as exc:
        b._fail(str(exc))
    if b.head_only:
        raise _MetaRead


def _close_year(meta, text, node, attrs, b):
    try:
        meta.year = int(text)
    except ValueError:
        b._fail(f"bad year: {text!r}")


def _open_character(characters, attrs, b):
    record = CharacterRecord(
        b._int(attrs, "id"), "", b._req(attrs, "gender"), gcc=b._int(attrs, "gcc"),
        fpcc=b._int(attrs, "fpcc"), spcc=b._int(attrs, "spcc"))
    b._int(attrs, "count")  # compared with the mentions at the end tag
    return record


def _close_character(characters, text, record, attrs, b):
    if not record.alias_counts:
        b._fail("character has no <name> aliases")
    declared = int(attrs["count"])
    if declared != record.count:
        b._fail(f"character {record.id}: declared count {declared} "
                f"!= {record.count} mention indices")
    characters.append(record)


def _close_name(record, text, node, attrs, b):
    count = b._int(attrs, "count")
    if not record.alias_counts:
        record.canonical_name = text
    if text in record.alias_counts:
        b._fail(f"duplicate alias {text!r}")
    record.alias_counts[text] = count


def _close_mentions(record, text, node, attrs, b):
    try:
        record.mention_token_indices = [int(x) for x in text.split()]
    except ValueError:
        b._fail(f"bad mention index list: {text!r}")


def _close_header(section, text, node, attrs, b):
    number = b._int(attrs, "n") if "n" in attrs else None
    section.header = Header(kind=b._req(attrs, "kind"), number=number, text=text)


def _close_paragraph(section, text, paragraph, attrs, b):
    if "o" in attrs:
        paragraph.raw = text
    section.paragraphs.append(paragraph)


def _open_sentence(paragraph, attrs, b):
    if paragraph.offset is not None:
        b._fail("raw paragraph cannot contain sentences")
    return Sentence()


def _close_token(sentence, text, node, attrs, b):
    try:
        index, offset = int(attrs["i"]), int(attrs["o"])
        char = int(attrs["char"]) if "char" in attrs else None
        quote = int(attrs["q"]) if "q" in attrs else None
    except (KeyError, ValueError):  # name the first bad attribute
        index, offset = b._int(attrs, "i"), b._int(attrs, "o")
        char = b._int(attrs, "char") if "char" in attrs else None
        quote = b._int(attrs, "q") if "q" in attrs else None
    pos, lemma, ner = attrs.get("pos"), attrs.get("lemma"), attrs.get("ner")
    sentence.tokens.append(Token(
        sys.intern(text), index, offset, pos and sys.intern(pos),
        lemma and sys.intern(lemma), ner and sys.intern(ner), char, quote))


# name -> (the children it may hold, start, end). An element with no
# children holds text. Each open element is a ``(name, node, attrs)`` entry
# of the builder's stack: ``start(parent, attrs, builder)`` returns its node,
# the object its children are filed into, and ``end(parent, text, node,
# attrs, builder)`` files it into ``parent``, its parent's node.
_ELEMENTS = {
    "book": ({"meta", "front", "back", "characters", "body"}, _open_book, _close_book),
    "meta": ({*_META_TEXT, "year", "subject", "phases"}, _open_meta, _close_meta),
    **{name: ((), None, lambda meta, text, *_, name=name: setattr(meta, name, text))
       for name in _META_TEXT},
    "year": ((), None, _close_year),
    "subject": ((), None, lambda meta, text, *_: meta.subjects.append(text)),
    "phases": ((), None, lambda meta, text, node, attrs, b:
               setattr(b.book, "phases", text.split())),
    "front": ({"block"}, lambda book, *_: book.front, None),
    "back": ({"block"}, lambda book, *_: book.back, None),
    "block": ((), None, lambda blocks, text, *_: blocks.append(text)),
    "characters": ({"character"}, lambda book, *_: book.characters, None),
    "character": ({"name", "mentions"}, _open_character, _close_character),
    "name": ((), None, _close_name),
    "mentions": ((), None, _close_mentions),
    "body": ({"section"}, lambda book, *_: book.body, None),
    "section": ({"header", "p"}, lambda *_: Section(),
                lambda body, text, section, *_: body.append(section)),
    "header": ((), None, _close_header),
    "p": ({"s"}, lambda section, attrs, b: Paragraph(
        offset=b._int(attrs, "o") if "o" in attrs else None), _close_paragraph),
    "s": ({"t"}, _open_sentence, lambda paragraph, text, sentence, *_:
          paragraph.sentences.append(sentence)),
    "t": ((), None, _close_token),
}


def parse(text):
    """Parse canonical annotation XML back into an AnnotatedBook."""
    builder = _BookBuilder()
    builder.feed(text.encode("utf-8") if isinstance(text, str) else text, True)
    return builder.result()


def load(path):
    """The book stored at ``path``; BinderyError naming it if it cannot be
    read, ParseError if it is not canonical annotation XML."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _unreadable(path, exc) from exc
    return parse(data)


def _unreadable(path, exc):
    return BinderyError(f"cannot read {path}: {exc.strerror or exc}")


_HEAD_CHUNK = 1 << 16


def load_head(path):
    """The ``(BookMeta, phases)`` of a stored book, parsed up to ``</meta>``.

    Canonical files put ``<meta>`` first, so this reads one chunk where
    :func:`load` reads the whole file. The part read gets the same checks
    as a full parse; the body after ``</meta>`` is not checked. A file
    whose ``<meta>`` comes late, or is missing, is read until the answer
    is known. No :class:`AnnotatedBook` is returned, so a book with an
    unread body cannot be serialized over the real one.
    """
    builder = _BookBuilder(head_only=True)
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(_HEAD_CHUNK):
                builder.feed(chunk, False)
            builder.feed(b"", True)
    except _MetaRead:
        pass
    except OSError as exc:
        raise _unreadable(path, exc) from exc
    book = builder.result()
    return book.meta, book.phases

