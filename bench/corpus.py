"""Seeded synthetic corpora built from the bundled fixture books.

One generator writes every workload. Text is resampled at the level of
sentence units taken from the fixture chapters, so two distinct generated
books share only a few 5-word shingles and never approach the dedup
threshold. Character first names are remapped per cast block from the
bundled first-name list, so each block of a long book brings its own
cast. Planted duplicates alternate between two kinds: a near-duplicate
(the original minus its last sentence unit, under another title) and a
title/author copy (same title and author, different and shorter text).
Either way the original is the longest member of its group, so dedup must
keep it.

The generator records the ground truth the checks compare against: the
expected section count of every book and the planted duplicate pairs.
"""

import json
import random
import re
import shutil
import textwrap
from dataclasses import asdict, dataclass, field
from pathlib import Path

FIXTURE_DIR = Path("tests/fixtures/books")
FIRST_NAMES = Path("src/bindery/data/first_names.tsv")

CHAPTER_WORDS = 200  # mean words per generated chapter
CAST_WORDS = 5000  # words between cast (first-name mapping) changes
PAGE_PARAGRAPHS = 6  # paragraphs per page file of a page-wise book
FIRST_ID = 20000  # generated ids start here, clear of the fixture ids

_HEADER = re.compile(r"^CHAPTER \S+$")
_START = re.compile(r"^\*\*\* START OF")
_END = re.compile(r"^\*\*\* END OF|^THE END$")
# A sentence ends at . ! or ? (optionally inside a closing quote) before a
# space and a capital or an opening quote, except after an honorific.
_SENTENCE_END = re.compile(
    r"(?<!\bMr\.)(?<!\bMrs\.)(?<!\bDr\.)(?<!\bSt\.)(?<!\bMs\.)"
    r"(?<=[.!?])([\"”]?)\s+(?=[A-Z\"“])")
_WORD = re.compile(r"[A-Za-z]+")

_ADJECTIVES = ["Silent", "Crimson", "Northern", "Hidden", "Hollow", "Bitter",
               "Golden", "Winter", "Lonely", "Salt", "Iron", "Distant",
               "Quiet", "Burning", "Broken", "Pale", "Wild", "Last"]
_NOUNS = ["Lantern", "Orchard", "Harbour", "Weir", "Mill", "Ferry", "Garden",
          "Tower", "Road", "Shore", "Chapel", "Meadow", "Bridge", "Wager",
          "Letter", "House", "Voyage", "Inheritance"]
_PLACES = ["Ashby", "Brent", "Carrow", "Dunmore", "Elsing", "Fenwick",
           "Garth", "Holme", "Ickley", "Kettering", "Lowick", "Marden"]
_SURNAMES = ["Ashdown", "Barlow", "Carver", "Dunstan", "Ellery", "Fairley",
             "Gresham", "Hollis", "Ingram", "Jessop", "Kemble", "Lorimer",
             "Marlowe", "Norcott", "Oakley", "Pendle", "Quarles", "Rivers"]
_MONTHS = ["January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December"]
_ROMAN = [(1000, "M"), (900, "CM"), (500, "D"), (400, "CD"), (100, "C"),
          (90, "XC"), (50, "L"), (40, "XL"), (10, "X"), (9, "IX"), (5, "V"),
          (4, "IV"), (1, "I")]


@dataclass
class Truth:
    """What a correct store built from the generated inputs must hold."""
    sections: dict = field(default_factory=dict)  # book id -> chapters
    duplicates: dict = field(default_factory=dict)  # dup id -> original id
    words: int = 0  # words over all sources, duplicates included

    @property
    def kept(self):
        return sorted(set(self.sections) - set(self.duplicates))

    def save(self, path):
        Path(path).write_text(json.dumps(asdict(self), indent=1, sort_keys=True))


def roman(n):
    out = []
    for value, numeral in _ROMAN:
        while n >= value:
            out.append(numeral)
            n -= value
    return "".join(out)


def split_units(paragraph):
    """Split a paragraph into sentence units with balanced double quotes."""
    pieces = _SENTENCE_END.split(paragraph)
    # split() interleaves the captured closing quote; glue it back on.
    sentences = [pieces[0]]
    for quote, text in zip(pieces[1::2], pieces[2::2]):
        sentences[-1] += quote
        sentences.append(text)
    units = []
    pending = ""
    for sentence in sentences:
        pending = f"{pending} {sentence}" if pending else sentence
        if (pending.count('"') + pending.count("“") + pending.count("”")) % 2 == 0:
            units.append(pending)
            pending = ""
    if pending:
        units.append(pending)
    return units


def fixture_books(root="."):
    return sorted((Path(root) / FIXTURE_DIR).glob("*.txt"))


def fixture_chapters(path):
    """Body chapters of a fixture book: a list of paragraph strings each."""
    chapters = []
    in_body = False
    paragraph = []

    def flush():
        if paragraph and chapters:
            chapters[-1].append(" ".join(paragraph))
        paragraph.clear()

    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if _START.match(line):
            in_body = True
            continue
        if not in_body:
            continue
        if _END.match(line):
            break
        if _HEADER.match(line):
            flush()
            chapters.append([])
        elif line:
            paragraph.append(line)
        else:
            flush()
    flush()
    return chapters


class SourcePool:
    """Sentence units and first names drawn from the checkout's fixtures."""

    def __init__(self, root="."):
        self.units = []
        self.paragraph_sizes = []
        for path in fixture_books(root):
            for chapter in fixture_chapters(path):
                for paragraph in chapter:
                    units = split_units(paragraph)
                    self.units.extend(units)
                    self.paragraph_sizes.append(len(units))
        self.genders = {}
        for line in (Path(root) / FIRST_NAMES).read_text(encoding="utf-8").splitlines():
            if line.startswith("#") or "\t" not in line:
                continue
            name, gender = line.split("\t")
            self.genders[name.strip().capitalize()] = gender.strip()
        self.by_gender = {}
        for name, gender in sorted(self.genders.items()):
            self.by_gender.setdefault(gender, []).append(name)
        used = {w for unit in self.units for w in _WORD.findall(unit)}
        self.cast = sorted(n for n in used if n in self.genders)
        self._cast_re = re.compile(r"\b(" + "|".join(self.cast) + r")\b")

    def cast_mapping(self, rnd):
        return {name: rnd.choice(self.by_gender[self.genders[name]])
                for name in self.cast}

    def recast(self, text, mapping):
        return self._cast_re.sub(lambda m: mapping[m.group(1)], text)


@dataclass
class Book:
    book_id: str
    title: str
    author: str
    year: int
    chapters: list  # list of chapters, each a list of paragraph strings
    numerals: str = "arabic"

    @property
    def words(self):
        return sum(len(p.split()) for c in self.chapters for p in c)

    def header(self, n):
        return f"CHAPTER {roman(n) if self.numerals == 'roman' else n}."


def compose_book(pool, rnd, book_id, words, titles):
    """A new book of about ``words`` words, titled apart from ``titles``."""
    n_chapters = max(1, round(words / CHAPTER_WORDS))
    chapters = []
    mapping = pool.cast_mapping(rnd)
    written = 0
    for k in range(n_chapters):
        chapter = []
        target = words * (k + 1) / n_chapters
        while written < target or not chapter:
            units = [rnd.choice(pool.units)
                     for _ in range(rnd.choice(pool.paragraph_sizes))]
            paragraph = pool.recast(" ".join(units), mapping)
            chapter.append(paragraph)
            before = written
            written += len(paragraph.split())
            if before // CAST_WORDS != written // CAST_WORDS:
                mapping = pool.cast_mapping(rnd)
        chapters.append(chapter)
    while True:
        title = (f"The {rnd.choice(_ADJECTIVES)} {rnd.choice(_NOUNS)} "
                 f"of {rnd.choice(_PLACES)}")
        if title not in titles:
            titles.add(title)
            break
    author = f"{rnd.choice(pool.by_gender['female'] + pool.by_gender['male'])} " \
             f"{rnd.choice(_SURNAMES)}"
    return Book(book_id=book_id, title=title, author=author,
                year=rnd.randrange(1800, 1930), chapters=chapters,
                numerals=rnd.choice(["arabic", "roman"]))


def near_duplicate(book, book_id):
    """The same text minus its final sentence unit, under another title."""
    chapters = [list(c) for c in book.chapters]
    last = split_units(chapters[-1][-1])
    if len(last) > 1:
        chapters[-1][-1] = " ".join(last[:-1])
    elif len(chapters[-1]) > 1:
        chapters[-1].pop()
    return Book(book_id=book_id, title=f"{book.title}, a reprint",
                author=book.author, year=book.year + 1, chapters=chapters,
                numerals=book.numerals)


def wrap(paragraph):
    """Hard-wrap a paragraph at 72 columns, as Gutenberg texts are."""
    return textwrap.fill(paragraph, 72, break_long_words=False,
                         break_on_hyphens=False)


def write_gutenberg(book, in_dir):
    upper = book.title.upper()
    month = _MONTHS[book.year % 12]
    parts = [f"Title: {book.title}\nAuthor: {book.author}\n"
             f"Release Date: {month} {book.year}\nLanguage: English",
             f"*** START OF THE PROJECT GUTENBERG EBOOK {upper} ***",
             f"{upper}\n\nBY {book.author.upper()}\n"]
    for n, chapter in enumerate(book.chapters, 1):
        parts.append(book.header(n))
        parts.extend(wrap(p) for p in chapter)
    parts.append("THE END")
    parts.append(f"*** END OF THE PROJECT GUTENBERG EBOOK {upper} ***")
    number = book.book_id[2:]
    (Path(in_dir) / f"pg{number}.txt").write_text("\n\n".join(parts) + "\n",
                                                 encoding="utf-8")


def write_pagewise(book, in_dir):
    directory = Path(in_dir) / book.book_id[2:]
    directory.mkdir()
    (directory / "manifest.txt").write_text(
        f"title: {book.title}\nauthor: {book.author}\nyear: {book.year}\n",
        encoding="utf-8")
    blocks = []
    for n, chapter in enumerate(book.chapters, 1):
        blocks.append(book.header(n))
        blocks.extend(wrap(p) for p in chapter)
    pages = [blocks[i:i + PAGE_PARAGRAPHS]
             for i in range(0, len(blocks), PAGE_PARAGRAPHS)]
    for number, page in enumerate(pages, 1):
        (directory / f"{number:04d}.txt").write_text(
            "\n\n".join(page) + "\n", encoding="utf-8")


def generate(in_dir, seed, *, books, words_per_book, dup_share=0.0,
             pagewise_share=0.0, with_fixtures=False, root="."):
    """Write a seeded corpus into the new directory ``in_dir``; return its Truth.

    ``books`` distinct books of about ``words_per_book`` words each, of
    which ``pagewise_share`` are page-wise directories, plus
    ``round(books * dup_share)`` planted duplicates (at least one when the
    share is positive). ``with_fixtures`` adds the bundled fixture books.
    """
    rnd = random.Random(seed)
    pool = SourcePool(root)
    in_dir = Path(in_dir)
    in_dir.mkdir(parents=True)
    truth = Truth()

    ids = [f"{FIRST_ID + i}" for i in range(books)]
    n_pagewise = round(books * pagewise_share)
    pagewise = set(rnd.sample(range(books), n_pagewise))
    originals = []
    titles = set()
    for i, number in enumerate(ids):
        kind = "ht" if i in pagewise else "pg"
        book = compose_book(pool, rnd, f"{kind}{number}", words_per_book,
                            titles)
        (write_pagewise if i in pagewise else write_gutenberg)(book, in_dir)
        truth.sections[book.book_id] = len(book.chapters)
        truth.words += book.words
        originals.append(book)

    n_dups = max(1, round(books * dup_share)) if dup_share > 0 else 0
    textual = [b for b in originals if b.book_id.startswith("pg")]
    for k, original in enumerate(rnd.sample(textual, n_dups)):
        dup_id = f"pg{FIRST_ID + books + k}"
        if k % 2 == 0:
            dup = near_duplicate(original, dup_id)
        else:
            dup = compose_book(pool, rnd, dup_id, words_per_book // 2, set())
            dup.title, dup.author = original.title, original.author
        write_gutenberg(dup, in_dir)
        truth.sections[dup_id] = len(dup.chapters)
        truth.words += dup.words
        truth.duplicates[dup_id] = original.book_id

    if with_fixtures:
        for path in fixture_books(root):
            shutil.copy(path, in_dir / path.name)
            truth.sections[path.stem] = len(fixture_chapters(path))
            truth.words += len(path.read_text(encoding="utf-8").split())
    return truth
