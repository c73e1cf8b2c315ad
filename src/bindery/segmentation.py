"""Section header detection and numbering consistency.

A line is a header candidate when it is short, surrounded by blank lines
(or text boundaries), and matches one of the patterns: a section keyword
("Chapter", "Book", ...) with a number and optional trailing title; a bare
roman or arabic numeral; or a spelled-out cardinal/ordinal. The keyword
list ships as a data file so it can be extended without code changes.

Candidates are then filtered per keyword kind to the longest run of
consecutive numbers starting at 1; a single missing number is tolerated
with a warning, larger gaps split runs.
"""

import logging
import re

from . import lexicons
from .config import Config
from .xml_model import Header, Paragraph, Section

log = logging.getLogger(__name__)

# -- number words -------------------------------------------------------------

_UNITS = {"one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
          "six": 6, "seven": 7, "eight": 8, "nine": 9}
_TEENS = {"ten": 10, "eleven": 11, "twelve": 12, "thirteen": 13, "fourteen": 14,
          "fifteen": 15, "sixteen": 16, "seventeen": 17, "eighteen": 18,
          "nineteen": 19}
_TENS = {"twenty": 20, "thirty": 30, "forty": 40, "fifty": 50,
         "sixty": 60, "seventy": 70, "eighty": 80, "ninety": 90}

_CARDINALS = {**_UNITS, **_TEENS, **_TENS, "hundred": 100, "one hundred": 100}

_ORDINAL_SPECIAL = {"one": "first", "two": "second", "three": "third",
                    "five": "fifth", "eight": "eighth", "nine": "ninth",
                    "twelve": "twelfth"}


def _ordinal_form(word):
    if word in _ORDINAL_SPECIAL:
        return _ORDINAL_SPECIAL[word]
    if word.endswith("y"):
        return word[:-1] + "ieth"
    return word + "th"


_ORDINALS = {_ordinal_form(w): v for w, v in _CARDINALS.items() if w != "one hundred"}
_ORDINALS["hundredth"] = 100

_ROMAN_VALUES = {"I": 1, "V": 5, "X": 10, "L": 50, "C": 100, "D": 500, "M": 1000}
_ROMAN_DIGITS = (
    (1000, "M"), (900, "CM"), (500, "D"), (400, "CD"), (100, "C"), (90, "XC"),
    (50, "L"), (40, "XL"), (10, "X"), (9, "IX"), (5, "V"), (4, "IV"), (1, "I"),
)


def _roman_encode(value):
    out = []
    for weight, digit in _ROMAN_DIGITS:
        while value >= weight:
            out.append(digit)
            value -= weight
    return "".join(out)


def parse_roman(text):
    """Strict subtractive-form roman numeral, or None."""
    s = text.upper()
    if not s or any(ch not in _ROMAN_VALUES for ch in s):
        return None
    total = 0
    for ch, nxt in zip(s, s[1:] + " "):
        value = _ROMAN_VALUES[ch]
        if nxt != " " and _ROMAN_VALUES[nxt] > value:
            total -= value
        else:
            total += value
    if total < 1 or total > 3999 or _roman_encode(total) != s:
        return None
    return total


def _parse_spelled(text):
    s = text.lower().strip()
    if s.startswith("the "):
        s = s[4:]
    s = s.replace("—", "-").replace("–", "-")
    if s in _CARDINALS:
        return _CARDINALS[s]
    if s in _ORDINALS:
        return _ORDINALS[s]
    parts = re.split(r"[-\s]+", s)
    if len(parts) == 2 and parts[0] in _TENS:
        if parts[1] in _UNITS:
            return _TENS[parts[0]] + _UNITS[parts[1]]
        unit_ordinals = {_ordinal_form(w): v for w, v in _UNITS.items()}
        if parts[1] in unit_ordinals:
            return _TENS[parts[0]] + unit_ordinals[parts[1]]
    return None


def parse_header_number(text):
    """Number named by a header fragment: arabic, strict roman, or spelled."""
    s = text.strip().strip(".:;,").strip()
    if not s:
        return None
    if re.fullmatch(r"\d{1,4}", s):
        value = int(s)
        return value if 1 <= value <= 3999 else None
    value = parse_roman(s)
    if value is not None:
        return value
    return _parse_spelled(s)


# -- candidate detection --------------------------------------------------------

_SEPARATORS = ".:—–-"


def _keyword_pattern(keywords):
    alternation = "|".join(re.escape(k) for k in sorted(keywords, key=len, reverse=True))
    return re.compile(rf"^({alternation})\b[\s{_SEPARATORS}]*(.*)$", re.IGNORECASE)


def _number_from_rest(rest):
    rest = rest.strip()
    if not rest:
        return None
    attempts = [rest]
    split = re.split(rf"[{_SEPARATORS}]", rest, maxsplit=1)
    if split[0].strip() != rest:
        attempts.append(split[0].strip())
    words = rest.split()
    if words:
        attempts.append(words[0])
    if len(words) >= 2:
        attempts.append(" ".join(words[:2]))
    for attempt in attempts:
        value = parse_header_number(attempt)
        if value is not None:
            return value
    return None


_BARE_NUMERAL = re.compile(r"^([IVXLCDMivxlcdm]+|\d{1,4})\s*[.:]?$")
_BARE_SPELLED = re.compile(r"^(?:the\s+)?([A-Za-z]+(?:[-\s][A-Za-z]+)?)\s*\.?$",
                           re.IGNORECASE)


def detect_headers(body_lines, max_len=Config.header_max_len, lexicon_dir=""):
    """Scan lines for section header candidates.

    Returns ``[(line_index, Header), ...]`` in document order. A candidate
    must be at most ``max_len`` characters once stripped and be surrounded
    by blank lines or the start/end of text.
    """
    keywords = lexicons.section_keywords(lexicon_dir)
    keyword_re = _keyword_pattern(keywords)
    found = []
    for i, line in enumerate(body_lines):
        stripped = line.strip()
        if not stripped or len(stripped) > max_len:
            continue
        prev_blank = i == 0 or not body_lines[i - 1].strip()
        next_blank = i + 1 >= len(body_lines) or not body_lines[i + 1].strip()
        if not (prev_blank and next_blank):
            continue
        header = _match_header(stripped, keywords, keyword_re)
        if header is not None:
            found.append((i, header))
    return found


def _match_header(stripped, keywords, keyword_re):
    match = keyword_re.match(stripped)
    if match:
        kind = keywords[match.group(1).lower()]
        return Header(kind=kind, number=_number_from_rest(match.group(2)),
                      text=stripped)
    match = _BARE_NUMERAL.match(stripped)
    if match:
        number = parse_header_number(match.group(1))
        if number is not None:
            return Header(kind="other", number=number, text=stripped)
        return None
    match = _BARE_SPELLED.match(stripped)
    if match:
        number = _parse_spelled(match.group(1))
        if number is not None:
            return Header(kind="other", number=number, text=stripped)
    return None


# -- numbering consistency --------------------------------------------------------


def enforce_numbering_consistency(
        candidates, gap_tolerance=Config.numbering_gap_tolerance):
    """Keep, per keyword kind, the longest run of numbers counting up from 1.

    ``candidates`` is the document-ordered output of :func:`detect_headers`.
    A gap of one missing number is tolerated (warned); larger jumps split
    runs. Competing runs of equal length resolve to the earlier document
    position. Unnumbered candidates lying between accepted headers are
    retained with kind ``other``.
    """
    candidates = list(candidates)
    by_kind = {}
    for position, (line_index, header) in enumerate(candidates):
        if header.number is not None:
            by_kind.setdefault(header.kind, []).append(position)

    accepted_positions = set()
    for kind in sorted(by_kind):
        chain = _longest_run([candidates[p][1].number for p in by_kind[kind]],
                             gap_tolerance)
        positions = [by_kind[kind][i] for i in chain]
        numbers = [candidates[p][1].number for p in positions]
        for prev, cur in zip(numbers, numbers[1:]):
            if cur != prev + 1:
                log.warning("%s numbering gap: %d follows %d",
                            kind, cur, prev)
        accepted_positions.update(positions)

    if accepted_positions:
        lo, hi = min(accepted_positions), max(accepted_positions)
        for position in range(lo, hi):
            header = candidates[position][1]
            if header.number is None:
                candidates[position] = (
                    candidates[position][0],
                    Header(kind="other", number=None, text=header.text))
                accepted_positions.add(position)

    return [candidates[p] for p in sorted(accepted_positions)]


def _longest_run(numbers, gap_tolerance):
    """Indices of the longest subsequence starting at 1 with steps of 1..gap+1."""
    n = len(numbers)
    length = [0] * n
    parent = [-1] * n
    for i in range(n):
        if numbers[i] == 1:
            length[i] = 1
        for j in range(i):
            if length[j] == 0:
                continue
            step = numbers[i] - numbers[j]
            if 1 <= step <= 1 + gap_tolerance and length[j] + 1 > length[i]:
                length[i] = length[j] + 1
                parent[i] = j
    best_end = -1
    for i in range(n):
        if length[i] > (length[best_end] if best_end >= 0 else 0):
            best_end = i
    if best_end < 0:
        return []
    chain = []
    cursor = best_end
    while cursor >= 0:
        chain.append(cursor)
        cursor = parent[cursor]
    return chain[::-1]


# -- section assembly --------------------------------------------------------------


def segment(body_text, max_len=Config.header_max_len,
            gap_tolerance=Config.numbering_gap_tolerance, lexicon_dir=""):
    """Split cleaned body text into sections of raw paragraphs.

    Every body line lands in exactly one section; the text before the first
    accepted header becomes an untitled leading section when non-empty.
    """
    lines = body_text.split("\n")
    offsets = []
    cursor = 0
    for line in lines:
        offsets.append(cursor)
        cursor += len(line) + 1

    candidates = detect_headers(lines, max_len=max_len, lexicon_dir=lexicon_dir)
    accepted = enforce_numbering_consistency(candidates, gap_tolerance=gap_tolerance)

    sections = []
    boundaries = [i for i, _ in accepted] + [len(lines)]
    headers = {i: h for i, h in accepted}

    def add_section(header, start_line, end_line):
        paragraphs = _paragraphs_between(body_text, lines, offsets,
                                         start_line, end_line)
        if header is None and not paragraphs:
            return
        sections.append(Section(header=header, paragraphs=paragraphs))

    first = boundaries[0]
    add_section(None, 0, first)
    for idx, start in enumerate(boundaries[:-1]):
        add_section(headers[start], start + 1, boundaries[idx + 1])
    if not sections:
        sections.append(Section(header=None, paragraphs=[]))
    return sections


def _paragraphs_between(body_text, lines, offsets, start_line, end_line):
    paragraphs = []
    block = []
    for i in range(start_line, end_line):
        if lines[i].strip():
            block.append(i)
        elif block:
            paragraphs.append(_block_paragraph(body_text, lines, offsets, block))
            block = []
    if block:
        paragraphs.append(_block_paragraph(body_text, lines, offsets, block))
    return paragraphs


def _block_paragraph(body_text, lines, offsets, block):
    start = offsets[block[0]]
    end = offsets[block[-1]] + len(lines[block[-1]])
    return Paragraph(raw=body_text[start:end], offset=start)
