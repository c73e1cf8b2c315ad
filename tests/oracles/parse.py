"""Per-name oracle for ``xml_model.parse`` and ``xml_model.load_head``.

The expat builder as it was before one table of elements drove it: a
grammar table, a set of text elements, and ``elif`` chains over element
names in its start, end and text-closing handlers, with a flag for a raw
paragraph and one for a seen ``<meta>``. Kept to check the table-driven
builder against, book for book and error for error.
"""

import sys
from xml.parsers import expat

from bindery.errors import InvariantError, ParseError
from bindery.xml_model import (DIGEST_FIELDS, AnnotatedBook, CharacterRecord,
                               Header, Paragraph, Section, Sentence, Token,
                               _validate_meta, validate)

_META_TEXT = frozenset(
    ("title", "author", "source_id", "corpus", "encoding", *DIGEST_FIELDS))

_STRUCTURAL_CHILDREN = {
    "book": {"meta", "front", "back", "characters", "body"},
    "meta": {"title", "author", "year", "source_id", "corpus",
             "subject", "encoding", *DIGEST_FIELDS, "phases"},
    "front": {"block"},
    "back": {"block"},
    "characters": {"character"},
    "character": {"name", "mentions"},
    "body": {"section"},
    "section": {"header", "p"},
    "p": {"s"},
    "s": {"t"},
}

_TEXT_ELEMENTS = {
    "title", "author", "year", "source_id", "corpus", "subject", "encoding",
    *DIGEST_FIELDS, "phases", "block", "name", "mentions", "header", "t",
}


def _interned(value):
    return None if value is None else sys.intern(value)


class _MetaRead(Exception):
    """Raised by a head-only builder once ``</meta>`` has been checked."""


class _BookBuilder:
    """Expat handler assembling an AnnotatedBook and tracking line numbers.

    With ``head_only`` the builder stops at the end of ``<meta>`` by
    raising :class:`_MetaRead`; everything before that point gets the
    same checks as a full parse.
    """

    def __init__(self, head_only=False):
        self.head_only = head_only
        self.parser = expat.ParserCreate("UTF-8")
        self.parser.buffer_text = True
        self.parser.StartElementHandler = self._start
        self.parser.EndElementHandler = self._end
        self.parser.CharacterDataHandler = self._chars
        self.stack = []
        self.text_parts = []
        self.book = None
        self._character = None
        self._section = None
        self._paragraph = None
        self._sentence = None
        self._p_is_raw = False
        self._seen_meta = False
        self._attrs = {}

    def feed(self, data, final):
        try:
            self.parser.Parse(data, final)
        except expat.ExpatError as exc:
            raise ParseError(f"malformed XML: {expat.errors.messages[exc.code]}",
                             line=exc.lineno) from exc

    def parse(self, data):
        if isinstance(data, str):
            data = data.encode("utf-8")
        self.feed(data, True)
        return self.result()

    def result(self):
        # The parser's handlers hold this builder: dropping the parser ends
        # the cycle, so expat's buffers are freed now, not at the next full
        # garbage collection.
        self.parser = None
        return self.book

    def _fail(self, message):
        raise ParseError(message, line=self.parser.CurrentLineNumber)

    def _start(self, name, attrs):
        parent = self.stack[-1] if self.stack else None
        if parent is None:
            if name != "book":
                self._fail(f"expected <book> root, found <{name}>")
        else:
            allowed = _STRUCTURAL_CHILDREN.get(parent, set())
            if name not in allowed:
                self._fail(f"unknown element <{name}> inside <{parent}>")
        if parent and self.text_parts:
            pending = "".join(self.text_parts)
            if pending.strip():
                self._fail(f"unexpected text inside <{parent}>")
        self.stack.append(name)
        self.text_parts = []
        self._attrs = attrs
        if name == "book":
            self.book = AnnotatedBook()
        elif name == "meta":
            if self._seen_meta:
                self._fail("duplicate <meta>")
            self._seen_meta = True
        elif name == "character":
            self._character = CharacterRecord(
                id=self._int(attrs, "id"),
                canonical_name="",
                gender=self._req(attrs, "gender"),
                gcc=self._int(attrs, "gcc"),
                fpcc=self._int(attrs, "fpcc"),
                spcc=self._int(attrs, "spcc"),
            )
            self._declared_count = self._int(attrs, "count")
        elif name == "section":
            self._section = Section()
        elif name == "p":
            self._p_is_raw = "o" in attrs
            self._paragraph = Paragraph()
            if self._p_is_raw:
                self._paragraph.offset = self._int(attrs, "o")
        elif name == "s":
            if self._p_is_raw:
                self._fail("raw paragraph cannot contain sentences")
            self._sentence = Sentence()

    def _chars(self, data):
        self.text_parts.append(data)

    def _end(self, name):
        self.stack.pop()
        text = "".join(self.text_parts)
        self.text_parts = []
        if name in _TEXT_ELEMENTS or (name == "p" and self._p_is_raw):
            self._close_text_element(name, text)
        elif text.strip():
            self._fail(f"unexpected text inside <{name}>")
        if name == "character":
            record = self._character
            if not record.alias_counts:
                self._fail("character has no <name> aliases")
            if self._declared_count != record.count:
                self._fail(
                    f"character {record.id}: declared count {self._declared_count} "
                    f"!= {record.count} mention indices")
            self.book.characters.append(record)
            self._character = None
        elif name == "section":
            self.book.body.append(self._section)
            self._section = None
        elif name == "p":
            self._section.paragraphs.append(self._paragraph)
            self._paragraph = None
            self._p_is_raw = False
        elif name == "s":
            self._paragraph.sentences.append(self._sentence)
            self._sentence = None
        elif name == "meta":
            try:
                _validate_meta(self.book.meta, self.book.phases)
            except InvariantError as exc:
                self._fail(str(exc))
            if self.head_only:
                raise _MetaRead
        elif name == "book":
            try:
                validate(self.book)
            except InvariantError as exc:
                raise ParseError(str(exc)) from exc

    def _close_text_element(self, name, text):
        attrs = self._attrs
        meta = self.book.meta
        if name == "t":
            token = Token(
                text=sys.intern(text),
                index=self._int(attrs, "i"),
                offset=self._int(attrs, "o"),
                pos=_interned(attrs.get("pos")),
                lemma=_interned(attrs.get("lemma")),
                ner=_interned(attrs.get("ner")),
                character_id=self._int(attrs, "char") if "char" in attrs else None,
                quote_id=self._int(attrs, "q") if "q" in attrs else None,
            )
            self._sentence.tokens.append(token)
        elif name in _META_TEXT:
            setattr(meta, name, text)
        elif name == "year":
            try:
                meta.year = int(text)
            except ValueError:
                self._fail(f"bad year: {text!r}")
        elif name == "subject":
            meta.subjects.append(text)
        elif name == "phases":
            self.book.phases = text.split()
        elif name == "block":
            target = self.book.front if self.stack[-1] == "front" else self.book.back
            target.append(text)
        elif name == "name":
            count = self._int(attrs, "count")
            if not self._character.alias_counts:
                self._character.canonical_name = text
            if text in self._character.alias_counts:
                self._fail(f"duplicate alias {text!r}")
            self._character.alias_counts[text] = count
        elif name == "mentions":
            try:
                self._character.mention_token_indices = [int(x) for x in text.split()]
            except ValueError:
                self._fail(f"bad mention index list: {text!r}")
        elif name == "header":
            kind = self._req(attrs, "kind")
            number = self._int(attrs, "n") if "n" in attrs else None
            self._section.header = Header(kind=kind, number=number, text=text)
        elif name == "p":
            self._paragraph.raw = text

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


def parse(text):
    """Parse canonical annotation XML back into an AnnotatedBook."""
    return _BookBuilder().parse(text)


def load(path):
    with open(path, "rb") as fh:
        return parse(fh.read())


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
    with open(path, "rb") as fh:
        try:
            while chunk := fh.read(_HEAD_CHUNK):
                builder.feed(chunk, False)
            builder.feed(b"", True)
        except _MetaRead:
            pass
    book = builder.result()
    return book.meta, book.phases
