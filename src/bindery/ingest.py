"""Read raw book files, annotate non-body boilerplate, fetch over HTTP.

Two source formats are supported: single plain-text files in the Project
Gutenberg layout, and directories of zero-padded page files as delivered by
page-wise scans. Boilerplate (license header/footer, front matter, back
matter) is annotated as character spans over the normalized text so the
original is always reconstructable from the spans plus the body remainder.
"""

import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EmptyInputError, FetchError, NotFoundError, PagewiseError
from .store import SourceKind, gutenberg_id, hathi_id, write_if_changed

log = logging.getLogger(__name__)


@dataclass
class RawBook:
    source_id: str
    source_kind: SourceKind
    pages: list[str]
    metadata: dict = field(default_factory=dict)
    page_separator: str = "\n"

    @property
    def text(self):
        return self.page_separator.join(self.pages)


@dataclass
class BoilerplateSpan:
    kind: str  # gutenberg_header | gutenberg_footer | front_matter | back_matter
    start_offset: int
    end_offset: int


def normalize_text(data):
    """Decode bytes (UTF-8, Latin-1 fallback) and scrub to XML-safe text.

    Returns (text, encoding_used). Line endings become LF; control
    characters other than tab/newline are replaced with spaces.
    """
    if isinstance(data, bytes):
        try:
            text, encoding = data.decode("utf-8"), "utf-8"
        except UnicodeDecodeError:
            text, encoding = data.decode("latin-1"), "latin-1"
    else:
        text, encoding = data, "utf-8"
    if text.startswith("﻿"):
        text = text[1:]
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    text = re.sub(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]", " ", text)
    return text, encoding


# -- readers ------------------------------------------------------------------

_META_LINE = re.compile(
    r"^(Title|Author|Release Date|Posting Date|Language|Editor|Illustrator"
    r"|Translator|Original Publication|Credits|Produced by)\s*:\s*(.*)$",
    re.IGNORECASE)


def read_gutenberg(path):
    """Read a single Gutenberg-style text file into a RawBook."""
    path = Path(path)
    data = path.read_bytes()
    text, encoding = normalize_text(data)
    if not text.strip():
        raise EmptyInputError(f"empty input file: {path}")
    metadata = {"encoding": encoding}
    for line in text.splitlines()[:120]:
        match = _META_LINE.match(line.strip())
        if not match:
            continue
        key, value = match.group(1).lower(), match.group(2).strip()
        if key == "title" and "title" not in metadata:
            metadata["title"] = value
        elif key == "author" and "author" not in metadata:
            metadata["author"] = value
        elif key in ("release date", "posting date") and "year" not in metadata:
            year = re.search(r"\b(1[0-9]{3}|20[0-9]{2})\b", value)
            if year:
                metadata["year"] = int(year.group(1))
    return RawBook(
        source_id=gutenberg_id(path),
        source_kind=SourceKind.GUTENBERG_TEXT,
        pages=[text],
        metadata=metadata,
    )


MANIFEST_NAME = "manifest.txt"


def read_hathi_pagewise(directory, page_separator="\n"):
    """Read a directory of zero-padded page files into a RawBook.

    Pages are ordered numerically by filename. An optional ``manifest.txt``
    sibling provides ``key: value`` metadata lines (title, author, year).
    """
    directory = Path(directory)
    page_files = []
    for entry in sorted(directory.iterdir()):
        if entry.name == MANIFEST_NAME or entry.suffix != ".txt":
            continue
        if not entry.stem.isdigit():
            raise PagewiseError(f"non-numeric page filename: {entry.name}")
        page_files.append((int(entry.stem), entry))
    if not page_files:
        raise EmptyInputError(f"no page files in {directory}")
    page_files.sort()
    numbers = [n for n, _ in page_files]
    expected = list(range(numbers[0], numbers[0] + len(numbers)))
    if numbers != expected:
        missing = sorted(set(expected) - set(numbers))
        log.warning("%s: page number gaps at %s", directory, missing)

    pages = []
    encoding = None
    for _, entry in page_files:
        text, enc = normalize_text(entry.read_bytes())
        pages.append(text)
        encoding = encoding or enc
    if not "".join(pages).strip():
        raise EmptyInputError(f"pages in {directory} hold no text")

    metadata = {"encoding": encoding}
    manifest = directory / MANIFEST_NAME
    if manifest.exists():
        for line in normalize_text(manifest.read_bytes())[0].splitlines():
            if ":" not in line:
                continue
            key, _, value = line.partition(":")
            key, value = key.strip().lower(), value.strip()
            if key == "year":
                try:
                    metadata["year"] = int(value)
                except ValueError:
                    log.warning("%s: bad year %r in manifest", directory, value)
            elif key:
                metadata[key] = value
    return RawBook(
        source_id=hathi_id(directory),
        source_kind=SourceKind.HATHI_PAGEWISE,
        pages=pages,
        metadata=metadata,
        page_separator=page_separator,
    )


# -- Gutenberg license boilerplate ---------------------------------------------

_START_MARKERS = [
    re.compile(r"^\*{3}\s*START OF (?:THE|THIS) PROJECT GUTENBERG EBOOK\b.*$",
               re.IGNORECASE),
    re.compile(r"^\*{3}\s*START OF (?:THE|THIS) PROJECT GUTENBERG\b.*$", re.IGNORECASE),
    re.compile(r"^\*END\*?THE SMALL PRINT!.*$", re.IGNORECASE),
    re.compile(r"^\*+\s*END THE SMALL PRINT.*$", re.IGNORECASE),
]

_END_MARKERS = [
    re.compile(r"^\*{3}\s*END OF (?:THE|THIS) PROJECT GUTENBERG EBOOK\b.*$",
               re.IGNORECASE),
    re.compile(r"^\*{3}\s*END OF (?:THE|THIS) PROJECT GUTENBERG\b.*$", re.IGNORECASE),
    re.compile(r"^End of (?:the )?Project Gutenberg(?:'s)?\b.*$", re.IGNORECASE),
    re.compile(r"^THE FULL PROJECT GUTENBERG LICENSE\b.*$"),
]


def _iter_lines_with_offsets(text):
    offset = 0
    for line in text.splitlines(keepends=True):
        yield offset, line
        offset += len(line)


def annotate_gutenberg_boilerplate(book):
    """Locate license header/footer spans in a Gutenberg text.

    The header span ends just after the start-marker line; the footer span
    begins at the end-marker line. With no markers present, a heuristic
    scan brackets the leading metadata block instead; if that also fails,
    the span list is empty and a warning is logged.
    """
    text = book.text
    spans = []
    header_end = None
    footer_start = None
    for offset, line in _iter_lines_with_offsets(text):
        stripped = line.rstrip("\n")
        if header_end is None and any(p.match(stripped) for p in _START_MARKERS):
            header_end = offset + len(line)
            continue
        if any(p.match(stripped) for p in _END_MARKERS):
            footer_start = offset
            break

    if header_end is None:
        header_end = _heuristic_header_end(text)
        if header_end is None and footer_start is None:
            log.warning("%s: no Gutenberg markers found", book.source_id)
            return []
    if header_end is not None and header_end > 0:
        spans.append(BoilerplateSpan("gutenberg_header", 0, header_end))
    if footer_start is not None and footer_start < len(text):
        if header_end is None or footer_start >= header_end:
            spans.append(BoilerplateSpan("gutenberg_footer", footer_start, len(text)))
    return spans


def _heuristic_header_end(text):
    """End of the first blank-line-delimited block after the last metadata line."""
    last_meta_end = None
    for offset, line in _iter_lines_with_offsets(text):
        if offset > 6000:
            break
        if _META_LINE.match(line.strip()):
            last_meta_end = offset + len(line)
    if last_meta_end is None:
        return None
    remainder = text[last_meta_end:]
    match = re.search(r"\n\s*\n", remainder)
    if match is None:
        return None
    return last_meta_end + match.end()


# -- front / back matter --------------------------------------------------------

_COPYRIGHT_RE = re.compile(
    r"copyright|all rights reserved|published by|publishers?$|printed in"
    r"|first published|illustrated by", re.IGNORECASE)
_TOC_HEADING_RE = re.compile(r"^(table of )?(contents|illustrations)\b", re.IGNORECASE)
_TOC_ENTRY_RE = re.compile(
    r"^(chapter\s+)?([ivxlcdm]+|\d+)\b[\s.:—-]",
    re.IGNORECASE)
_AD_RE = re.compile(
    r"advertisement|catalogue|books? by the same author|now ready|price \d"
    r"|in preparation|uniform edition", re.IGNORECASE)
_THE_END_RE = re.compile(r"^\s*(the\s+end\.?|finis\.?)\s*$", re.IGNORECASE)


def _block_spans(text):
    """Blank-line-delimited blocks as (start, end) offsets."""
    spans = []
    for match in re.finditer(r"(?:[^\n]*\S[^\n]*\n?)+", text):
        spans.append((match.start(), match.end()))
    return spans


def _page_spans(book):
    spans = []
    offset = 0
    sep = len(book.page_separator)
    for i, page in enumerate(book.pages):
        spans.append((offset, offset + len(page)))
        offset += len(page) + (sep if i + 1 < len(book.pages) else 0)
    return spans


def _is_section_header_line(line):
    from .segmentation import detect_headers
    return bool(detect_headers(["", line, ""]))


def _looks_front(unit_text, short_len, short_ratio):
    lines = [l.strip() for l in unit_text.splitlines() if l.strip()]
    if not lines:
        return False
    # A section header ends the front matter, whatever it looks like.
    if len(lines) <= 2 and any(_is_section_header_line(l) for l in lines):
        return False
    if any(_COPYRIGHT_RE.search(l) for l in lines):
        return True
    if _TOC_HEADING_RE.match(lines[0]):
        return True
    toc_like = sum(1 for l in lines if _TOC_ENTRY_RE.match(l))
    if len(lines) >= 2 and toc_like >= 0.5 * len(lines):
        return True
    # Title pages: one or two short display lines.
    if len(lines) <= 2 and all(len(l) < 2 * short_len for l in lines):
        return True
    short = sum(1 for l in lines if len(l) < short_len)
    if len(lines) >= 3 and short / len(lines) > short_ratio:
        return True
    return False


def _looks_ad(unit_text):
    lines = [l.strip() for l in unit_text.splitlines() if l.strip()]
    return bool(lines) and any(_AD_RE.search(l) for l in lines)


def annotate_front_back_matter(book, window_frac=0.05, short_line_len=25,
                               short_line_ratio=0.30):
    """Heuristically mark leading front-matter and trailing back-matter units.

    Units are pages for page-wise books and blank-line-delimited blocks
    otherwise. Leading units are marked while they look like front matter
    (contents/copyright pages, dense short lines) and start within the
    first ``window_frac`` of the text; symmetric rules catch trailing
    advertisements and anything after a terminal THE END line.
    """
    text = book.text
    if not text.strip():
        return []
    if book.source_kind == SourceKind.HATHI_PAGEWISE and len(book.pages) > 1:
        units = _page_spans(book)
    else:
        units = _block_spans(text)
    spans = []

    front_limit = window_frac * len(text)
    front_end = None
    for start, end in units:
        if start > front_limit:
            break
        if _looks_front(text[start:end], short_line_len, short_line_ratio):
            front_end = end
        else:
            break
    if front_end is not None:
        spans.append(BoilerplateSpan("front_matter", 0, front_end))

    back_start = None
    tail_limit = (1.0 - 2 * window_frac) * len(text)
    for start, end in units:
        if end <= (front_end or 0) or start < tail_limit:
            continue
        unit = text[start:end]
        for line_offset, line in _iter_lines_with_offsets(unit):
            if _THE_END_RE.match(line.rstrip("\n")):
                candidate = start + line_offset + len(line)
                if candidate < len(text) and text[candidate:].strip():
                    back_start = candidate
                break
        if back_start is not None:
            break
        if _looks_ad(unit):
            back_start = start
            break
    if back_start is not None and back_start > (front_end or 0):
        spans.append(BoilerplateSpan("back_matter", back_start, len(text)))
    return spans


def strip_spans(text, spans):
    """Remove the given spans; returns (body_text, kept_blocks_by_kind)."""
    blocks = {}
    keep = []
    cursor = 0
    for span in sorted(spans, key=lambda s: s.start_offset):
        if span.start_offset < cursor:
            continue
        keep.append(text[cursor:span.start_offset])
        blocks.setdefault(span.kind, []).append(
            text[span.start_offset:span.end_offset])
        cursor = span.end_offset
    keep.append(text[cursor:])
    return "".join(keep), blocks


# -- fetching -------------------------------------------------------------------


def fetch_gutenberg(book_id, mirror_base, dest, timeout=30):
    """Download the plain-text file for a Gutenberg id into ``dest``.

    Idempotent: an existing non-empty destination file is left untouched
    and no network request is made. A cut-off download leaves no file.
    """
    target = Path(dest) / f"pg{book_id}.txt"
    if target.exists() and target.stat().st_size > 0:
        log.info("pg%s already present, skipping fetch", book_id)
        return target
    # Imported here: urllib.request pulls in ssl and http.client, which no
    # other command needs.
    import http.client
    import urllib.error
    import urllib.request

    url = f"{mirror_base.rstrip('/')}/{book_id}/pg{book_id}.txt"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            data = response.read()
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            raise NotFoundError(f"book id {book_id} not found at {url}") from exc
        raise FetchError(f"HTTP {exc.code} fetching {url}") from exc
    except urllib.error.URLError as exc:
        raise FetchError(f"cannot fetch {url}: {exc.reason}") from exc
    except http.client.HTTPException as exc:  # such as a cut-off body
        raise FetchError(f"cannot fetch {url}: {exc!r}") from exc
    write_if_changed(target, data)
    return target
