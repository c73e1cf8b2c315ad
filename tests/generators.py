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
