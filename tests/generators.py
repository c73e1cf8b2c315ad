"""Seeded random generators for property tests."""

import random

from bindery.xml_model import (DIGEST_FIELDS, AnnotatedBook, BookMeta,
                               CharacterRecord, Header, Paragraph, PHASES,
                               POS_TAGS, Section, Sentence, Token)

_WORDS = ["the", "marsh", "Oliver", "lantern", "A&B", "<tag>", 'say "no"',
          "héllo", "don't", "well-known", "...", "weir", "Fagin", "2,300",
          "St.", "“quoted”", "naïve", "x", "north", "grass"]
_NAME_PARTS = ["Oliver", "Margaret", "Daniel", "Rook", "Venn", "Hale",
               "Esther", "Fagin", "Quested", "Hannah"]
_TEXT_SNIPPETS = ["CONTENTS", "Printed in London.", "I. The House",
                  "A NOVEL\nIN SIX CHAPTERS", "Price two shillings & six.",
                  "THE END", "  leading spaces", "trailing  "]


def random_token(rnd, index, offset):
    token = Token(text=rnd.choice(_WORDS), index=index, offset=offset)
    if rnd.random() < 0.7:
        token.pos = rnd.choice(POS_TAGS)
    if rnd.random() < 0.4:
        token.lemma = rnd.choice(_WORDS).lower()
    if rnd.random() < 0.1:
        token.ner = rnd.choice(["PERSON", "OTHER"])
    if rnd.random() < 0.15:
        token.quote_id = rnd.randrange(5)
    return token


def random_character(rnd, char_id):
    n_aliases = rnd.randint(1, 3)
    aliases = rnd.sample(_NAME_PARTS, n_aliases)
    mentions = rnd.randint(3, 8)
    counts = [1] * n_aliases
    for _ in range(mentions - n_aliases):
        counts[rnd.randrange(n_aliases)] += 1
    positions = sorted(rnd.sample(range(2000), mentions))
    return CharacterRecord(
        id=char_id,
        canonical_name=aliases[0],
        gender=rnd.choice(["male", "female", "unknown"]),
        alias_counts=dict(zip(aliases, counts)),
        mention_token_indices=positions,
        gcc=rnd.randrange(20),
        fpcc=rnd.randrange(10),
        spcc=rnd.randrange(10),
    )


def random_book(rnd=None, seed=None):
    """A random structurally valid annotated book."""
    rnd = rnd or random.Random(seed)
    characters = [random_character(rnd, i) for i in range(rnd.randint(0, 4))]
    char_ids = [c.id for c in characters]

    body = []
    index = 0
    offset = 0
    for _ in range(rnd.randint(1, 4)):
        header = None
        if rnd.random() < 0.8:
            header = Header(
                kind=rnd.choice(["chapter", "book", "part", "volume",
                                 "section", "other"]),
                number=rnd.choice([None, rnd.randint(1, 99)]),
                text=rnd.choice(["CHAPTER I.", "BOOK THE FIRST", "XLII",
                                 "Chapter 7: The Weir & the Mill"]))
        paragraphs = []
        for _ in range(rnd.randint(0, 3)):
            if rnd.random() < 0.3:
                raw = rnd.choice(_TEXT_SNIPPETS)
                paragraphs.append(Paragraph(raw=raw, offset=offset))
                offset += len(raw) + 2
                continue
            sentences = []
            for _ in range(rnd.randint(1, 3)):
                tokens = []
                for _ in range(rnd.randint(1, 6)):
                    token = random_token(rnd, index, offset)
                    if char_ids and rnd.random() < 0.2:
                        token.character_id = rnd.choice(char_ids)
                    tokens.append(token)
                    index += 1
                    offset += len(token.text) + 1
                sentences.append(Sentence(tokens=tokens))
            paragraphs.append(Paragraph(sentences=sentences))
        body.append(Section(header=header, paragraphs=paragraphs))

    phases = list(PHASES[:rnd.randint(0, len(PHASES))])
    book = AnnotatedBook(
        meta=BookMeta(
            title=rnd.choice([None, "The Glass Orchard", "A & B <novel>",
                              "Nørth of the Weir", 'He said "go"']),
            author=rnd.choice([None, "Ann Prior", "Émile & Co."]),
            year=rnd.choice([None, rnd.randint(1700, 2020)]),
            source_id=f"pg{rnd.randrange(10000)}",
            corpus=rnd.choice([None, "gutenberg", "hathi"]),
            subjects=rnd.sample(["fiction", "sea stories", "dales"],
                                rnd.randint(0, 2)),
            encoding=rnd.choice([None, "utf-8", "latin-1"]),
        ),
        front=[rnd.choice(_TEXT_SNIPPETS) for _ in range(rnd.randint(0, 2))],
        back=[rnd.choice(_TEXT_SNIPPETS) for _ in range(rnd.randint(0, 2))],
        body=body,
        characters=characters,
        phases=phases,
    )
    for name in DIGEST_FIELDS:
        if rnd.random() < 0.7:
            setattr(book.meta, name, f"{rnd.getrandbits(256):064x}")
    return book


def long_book(seed, sections=8, paragraphs=40):
    """A valid annotated book of ``sections`` chapters of ``paragraphs``
    tokenized paragraphs each, long enough to measure a writer by."""
    rnd = random.Random(seed)
    body = []
    index = 0
    offset = 0
    for number in range(1, sections + 1):
        section = Section(header=Header(kind="chapter", number=number,
                                        text=f"CHAPTER {number}."))
        for _ in range(paragraphs):
            paragraph = Paragraph()
            for _ in range(rnd.randint(1, 5)):
                sentence = Sentence()
                for _ in range(rnd.randint(3, 20)):
                    token = random_token(rnd, index, offset)
                    sentence.tokens.append(token)
                    index += 1
                    offset += len(token.text) + 1
                paragraph.sentences.append(sentence)
            section.paragraphs.append(paragraph)
        body.append(section)
    return AnnotatedBook(meta=BookMeta(title="A Long Book", source_id="pg1"),
                         body=body, phases=list(PHASES[:4]))


_FIRST_NAMES = ["Oliver", "Margaret", "Daniel", "Esther", "Hannah", "Arthur",
                "Alex", "Basil"]
_LAST_NAMES = ["Rook", "Venn", "Hale", "Quested", "Brownlow"]
_HONORIFICS = ["Mr.", "Mrs.", "Miss", "Dr.", "Captain", "Lady"]
_SPEECH_VERBS = ["said", "asked", "replied", "cried", "whispered", "answered"]
_UTTERANCES = ["I know you", "You must go", "He is gone", "She told me",
               "My word", "Come here, you", "I will not", "Why", "Your hat",
               "He said she lied", "We waited for you and her", "Yes"]
_NARRATION = ["He looked away.", "She laughed.", "It rained.",
              "Nobody answered him.", "Then she left with him.",
              "The lamp went out.", "His hands shook.", "They waited."]


def _name(rnd):
    first, last = rnd.choice(_FIRST_NAMES), rnd.choice(_LAST_NAMES)
    return rnd.choice([first, first, last, f"{first} {last}",
                       f"{rnd.choice(_HONORIFICS)} {last}",
                       f"{rnd.choice(_HONORIFICS)} {first} {last}"])


def _line(rnd):
    speech = f"{rnd.choice(_UTTERANCES)}{rnd.choice([',', '!', '?'])}"
    verb = rnd.choice(_SPEECH_VERBS)
    return rnd.choice([
        f'"{speech}" {verb} {_name(rnd)}.',
        f'"{speech}" {_name(rnd)} {verb}.',
        f'"{speech}" {_name(rnd)} {verb} to {_name(rnd)}.',
        f'"{speech}" {_name(rnd)} then {verb}.',
        f'"{speech}" {verb} young {_name(rnd)}.',
        f'{_name(rnd)} turned to {_name(rnd)}. "{speech}"',
        f'{_name(rnd)} {verb}, "{speech}" and {rnd.choice(_NARRATION)}',
        f'"{speech}" {rnd.choice(_NARRATION)} "{rnd.choice(_UTTERANCES)}."',
        f"{_name(rnd)} met {_name(rnd)}. {rnd.choice(_NARRATION)}",
        rnd.choice(_NARRATION),
    ])


def dialogue_text(rnd=None, seed=None):
    """Paragraph-separated prose dense with dialogue: honorifics, speech
    verbs before and after names, pronouns inside and outside quotes, and
    quotes left open at a paragraph end and continued in the next."""
    rnd = rnd or random.Random(seed)
    paragraphs = []
    for _ in range(rnd.randint(5, 30)):
        text = " ".join(_line(rnd) for _ in range(rnd.randint(1, 4)))
        if rnd.random() < 0.15:
            text += f' "{rnd.choice(_UTTERANCES)}, {rnd.choice(_UTTERANCES)}.'
        paragraphs.append(text)
    return "\n\n".join(paragraphs)


_BODY_WORDS = ["the", "marsh", "lay", "still", "under", "rain", "and", "Hannah",
               "walked", "home", "past", "old", "mill", "by", "water", "grey"]
# Words with Latin-1 letters beyond ASCII, none of them a C1 control.
_LATIN1_WORDS = ["café", "naïve", "Müller", "façade", "señor", "£5", "déjà",
                 "Zoë", "½"]
_LICENSE_LINES = ["Updated editions will replace the previous one.",
                  "This eBook is for the use of anyone anywhere.",
                  "Creating the works from print editions is a long task."]


def gutenberg_source(rnd=None, seed=None, latin1=False):
    """The bytes of a Gutenberg-style text and its license spans.

    The text may open with a ``Title:``/``Author:``/``Release Date:``
    block followed by one to three blank lines, and may carry START and
    END markers; its body paragraphs hold no colon and no asterisk, so
    they look like neither metadata nor a marker. Line ends may be CRLF
    and the bytes may open with a byte-order mark. The spans are
    ``(kind, start, end)`` over the text as ``ingest.normalize_text``
    gives it back. With ``latin1`` the body holds Latin-1 letters beyond
    ASCII, at least one, and there is no byte-order mark, so the text has
    a Latin-1 encoding too; the bytes are still UTF-8.
    """
    rnd = rnd or random.Random(seed)
    words = _BODY_WORDS + _LATIN1_WORDS if latin1 else _BODY_WORDS
    title = rnd.choice(["The Marsh", "North of the Weir", "A Glass Orchard"])
    text = ""
    if rnd.random() < 0.6:
        fields = [f"Title: {title}", "Author: Ann Prior",
                  f"Release Date: May {rnd.randint(1, 28)}, 19{rnd.randint(10, 99)}"]
        kept = [line for line in fields if rnd.random() < 0.7] or fields[:1]
        text = "\n".join(kept) + "\n" + "\n" * rnd.randint(1, 3)
    header_end = len(text)  # the block and its blank lines, if any
    if rnd.random() < 0.6:
        this = rnd.choice(["THE", "THIS"])
        text += f"*** START OF {this} PROJECT GUTENBERG EBOOK {title.upper()} ***\n"
        header_end = len(text)
        text += "\n"
    paragraphs = [" ".join(rnd.choice(words) for _ in range(rnd.randint(3, 30)))
                  .capitalize() + "." for _ in range(rnd.randint(1, 6))]
    if latin1:
        paragraphs.append(f"By {rnd.choice(_LATIN1_WORDS)}.")
    text += "\n\n".join(paragraphs) + "\n\n"
    spans = [("gutenberg_header", 0, header_end)] if header_end else []
    if rnd.random() < 0.6:
        footer_start = len(text)
        text += (f"*** END OF THE PROJECT GUTENBERG EBOOK {title.upper()} ***\n"
                 + "\n".join(rnd.sample(_LICENSE_LINES, rnd.randint(1, 3))) + "\n")
        spans.append(("gutenberg_footer", footer_start, len(text)))
    data = text.replace("\n", "\r\n") if rnd.random() < 0.5 else text
    bom = "\ufeff" if not latin1 and rnd.random() < 0.5 else ""
    return (bom + data).encode("utf-8"), spans


def pagewise_source(directory, rnd=None, seed=None):
    """Write a page-wise book into ``directory``; returns its pages in
    page order, the metadata ``ingest.read_hathi_pagewise`` must find and
    the page numbers missing between the first page and the last.

    Page numbers start anywhere from 0 to 20 and may skip one. Each name is zero-padded to its own width, so name order and number
    order differ. Pages are LF or CRLF body prose, given back as LF. A
    ``manifest.txt`` may give a title, an author, a year and another key,
    with any case of key and blanks around values, and lines without a
    colon, which are not metadata.
    """
    rnd = rnd or random.Random(seed)
    numbers = list(range(rnd.randint(0, 20), 40))[:rnd.randint(2, 8)]
    missing = []
    if len(numbers) > 2 and rnd.random() < 0.5:
        missing = [numbers.pop(rnd.randrange(1, len(numbers) - 1))]
    pages = []
    for number in numbers:
        text = "\n\n".join(" ".join(rnd.choice(_BODY_WORDS + _LATIN1_WORDS)
                                    for _ in range(rnd.randint(1, 12)))
                           for _ in range(rnd.randint(1, 3))) + "\n"
        pages.append(text)
        data = text.replace("\n", "\r\n") if rnd.random() < 0.3 else text
        name = str(number).zfill(rnd.randint(len(str(number)), 8))
        (directory / f"{name}.txt").write_text(data, encoding="utf-8",
                                               newline="")
    metadata = {"encoding": "utf-8"}
    if rnd.random() < 0.7:
        fields = {"title": rnd.choice(["The Marsh", "Déjà Vu", "A Weir"]),
                  "author": rnd.choice(["Ann Prior", "Zoë Hale"]),
                  "year": rnd.randint(1800, 1920),
                  "publisher": "Müller & Sons"}
        lines = ["A manifest line without a colon"]
        for key, value in fields.items():
            if rnd.random() < 0.7:
                metadata[key] = value
                spelled = rnd.choice([key, key.upper(), key.capitalize()])
                lines.append(f"{spelled}:{rnd.choice(['', ' ', '  '])}{value}  ")
        rnd.shuffle(lines)
        (directory / "manifest.txt").write_text("\n".join(lines) + "\n",
                                                encoding="utf-8")
    return pages, metadata, missing
