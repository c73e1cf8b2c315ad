"""Rule-based linguistic baselines.

Tokenization, sentence splitting, part-of-speech tagging, lemmatization,
syllable counting, and quote extraction/attribution are all deterministic
rules over the cleaned body text. Externally produced annotations can
replace the baseline POS/lemma/NER values through a token-aligned
CoNLL-style import.
"""

import logging
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass

from . import lexicons
from .errors import AlignmentError, InvariantError
from .xml_model import Sentence, Token

log = logging.getLogger(__name__)

# -- tokenization ------------------------------------------------------------

_WORD = r"[^\W\d_]+(?:['’-][^\W\d_]+)*(?:['’]s?)?"
_NUMBER = r"\d+(?:[.,]\d+)*"
_MULTI = r"\.{2,}|…|--+|—|–"


def _tokenizer_pattern(lexicon_dir=""):
    abbrevs = sorted(lexicons.abbreviations(lexicon_dir), key=len, reverse=True)
    abbrev_alt = "|".join(re.escape(a) for a in abbrevs)
    return re.compile(
        rf"(?:(?<![^\W\d_])(?:{abbrev_alt})(?![^\W\d_]))"
        rf"|{_NUMBER}|{_WORD}|{_MULTI}|\S",
        re.UNICODE)


_PATTERN_CACHE = {}


def tokenize(text, base_offset=0, start_index=0, lexicon_dir=""):
    """Split text into tokens with character offsets.

    Whitespace separates tokens; punctuation is detached except inside
    known abbreviations, decimal numbers, and hyphenated words. Offsets are
    relative to the start of ``text`` plus ``base_offset``, so joining
    token texts with the source gaps reproduces the input exactly.
    """
    if lexicon_dir not in _PATTERN_CACHE:
        _PATTERN_CACHE[lexicon_dir] = _tokenizer_pattern(lexicon_dir)
    pattern = _PATTERN_CACHE[lexicon_dir]
    tokens = []
    index = start_index
    for match in pattern.finditer(text):
        tokens.append(Token(text=sys.intern(match.group(0)), index=index,
                            offset=base_offset + match.start()))
        index += 1
    return tokens


_TERMINATORS = {".", "!", "?"}
_CLOSING_QUOTES = {'"', "”", "'", "’"}


def split_sentences(tokens):
    """Group a paragraph's tokens into sentences.

    A sentence ends at a standalone ``.``, ``!`` or ``?`` token
    (abbreviations stay fused to their word, so they never terminate) or at
    the paragraph end. Closing quote marks directly after a terminator
    attach to the sentence they close.
    """
    sentences = []
    current = []
    closing = False
    for token in tokens:
        if closing:
            if token.text in _CLOSING_QUOTES:
                current.append(token)
                continue
            sentences.append(Sentence(tokens=current))
            current = []
            closing = False
        current.append(token)
        if token.text in _TERMINATORS:
            closing = True
    if current:
        sentences.append(Sentence(tokens=current))
    return sentences


# -- part-of-speech ------------------------------------------------------------

PRONOUNS = frozenset("""
i me my mine myself we us our ours ourselves you your yours yourself yourselves
he him his himself she her hers herself it its itself they them their theirs
themselves who whom whose thee thou thy thine ye somebody someone something
anybody anyone anything everybody everyone everything nobody nothing
""".split())

PREPOSITIONS = frozenset("""
aboard about above across after against along amid among around at before
behind below beneath beside besides between beyond by concerning despite down
during except for from in inside into like near of off on onto out outside
over past per regarding round since through throughout till to toward towards
under underneath until unto up upon via with within without
""".split())

CONJUNCTIONS = frozenset("""
and but or nor so yet although because if lest once provided than that though
unless when whenever where whereas wherever while
""".split())

DETERMINERS = frozenset("""
a an the this that these those each every either neither some any no all both
half several enough such another much many more most few little less least
what which
""".split())

INTERJECTIONS = frozenset("""
oh ah alas aha ha hey hello hullo hurrah hush lo oho pooh pshaw tut ugh well
whew why yes nay aye o
""".split())

AUXILIARIES = frozenset("""
be am is are was were been being have has had having do does did doing shall
should will would may might must can could ought need dare
""".split())

_ADJ_SUFFIXES = ("ous", "ful", "ive")
_PUNCT_RE = re.compile(r"^[^\w]+$", re.UNICODE)
_NUM_RE = re.compile(r"^\d")

# Checked in the order the closed classes are declared; a word in several
# classes takes the first tag.
_CLOSED_CLASSES = (
    (PRONOUNS, "PRON"),
    (PREPOSITIONS, "ADP"),
    (CONJUNCTIONS, "CONJ"),
    (DETERMINERS, "DET"),
    (INTERJECTIONS, "INTJ"),
    (AUXILIARIES, "VERB"),
)


def pos_tag(tokens):
    """Assign a coarse POS tag to every token of one sentence, in place."""
    prev_lower = None
    for token in tokens:
        text = token.text
        lower = text.lower()
        if _PUNCT_RE.match(text):
            token.pos = "PUNCT"
            continue
        if _NUM_RE.match(text):
            tag = "NUM"
        else:
            tag = None
            for lexicon, class_tag in _CLOSED_CLASSES:
                if lower in lexicon:
                    tag = class_tag
                    break
            if tag is None:
                tag = _open_class_tag(lower, prev_lower)
        token.pos = tag
        prev_lower = lower
    return [t.pos for t in tokens]


def _open_class_tag(lower, prev_lower):
    core = lower[:-2] if lower.endswith(("'s", "’s")) else lower
    if core.endswith("ly") and len(core) > 3:
        return "ADV"
    if core.endswith(_ADJ_SUFFIXES) and len(core) > 4:
        return "ADJ"
    if (core.endswith(("ed", "ing")) and len(core) > 4
            and prev_lower in AUXILIARIES):
        return "VERB"
    return "NOUN"


# -- lemmatization ---------------------------------------------------------------

_VOWELS = set("aeiou")


def lemmatize(text, pos, lexicon_dir=""):
    """Lemma for a tagged token: exception table, then suffix stripping."""
    lower = text.lower()
    exceptions = lexicons.lemma_exceptions(lexicon_dir)
    if lower in exceptions:
        return exceptions[lower]
    if pos not in ("VERB", "NOUN"):
        return lower
    if lower.endswith("ies") and len(lower) > 4:
        return lower[:-3] + "y"
    if lower.endswith(("sses", "xes", "zes", "ches", "shes")):
        return lower[:-2]
    if pos == "VERB":
        if lower.endswith("ing") and len(lower) > 4:
            return _undouble(lower[:-3])
        if lower.endswith("ed") and len(lower) > 3:
            return _undouble(lower[:-2])
    if lower.endswith("s") and not lower.endswith(("ss", "us", "is")) and len(lower) > 3:
        return lower[:-1]
    return lower


def _undouble(stem):
    if (len(stem) >= 3 and stem[-1] == stem[-2]
            and stem[-1] not in _VOWELS and stem[-1] not in "sl"):
        return stem[:-1]
    return stem


def strip_possessive(text):
    """``text`` without a trailing possessive ``'s`` or bare apostrophe."""
    if text.endswith(("'s", "’s")):
        return text[:-2]
    if text.endswith(("'", "’")):
        return text[:-1]
    return text


# -- syllables ----------------------------------------------------------------

_VOWEL_GROUP = re.compile(r"[aeiouy]+")


def count_syllables(word):
    """Vowel-group count with silent terminal 'e' removed, minimum 1.

    The terminal 'e' stays syllabic after consonant+l ("people", "table").
    Non-alphabetic characters are stripped first; a word with no alphabetic
    core counts 0.
    """
    core = "".join(ch for ch in word.lower() if ch.isalpha())
    if not core:
        return 0
    groups = len(_VOWEL_GROUP.findall(core))
    if core.endswith("e") and groups > 1:
        syllabic_le = (core.endswith("le") and len(core) >= 3
                       and core[-3] not in "aeiouy")
        if not syllabic_le and core[-2] not in "aeiouy":
            groups -= 1
    return max(groups, 1)


# -- quotes -------------------------------------------------------------------

_OPENING = {'"', "“"}
_CLOSING_DOUBLE = {'"', "”"}


@dataclass
class QuoteSpan:
    id: int
    start: int  # global index of first content token
    end: int    # global index of last content token (inclusive)
    paragraph_index: int
    continued: bool = False
    speaker_id: int | None = None


def extract_quotes(paragraphs):
    """Pair double quote marks within each paragraph into quote spans.

    An unbalanced opening quote closes at the paragraph end (warned); a
    paragraph that begins with an opening quote while one is pending is
    treated as a continuation of the same quotation. Single quotes nested
    inside double quotes are ignored.
    """
    quotes = []
    pending = False
    next_id = 0
    for p_index, paragraph in enumerate(paragraphs):
        tokens = [t for s in paragraph.sentences for t in s.tokens]
        open_pos = None
        continued = False
        for i, token in enumerate(tokens):
            if open_pos is None:
                if token.text in _OPENING:
                    open_pos = i
                    continued = pending and i == 0
                    pending = False
            elif token.text in _CLOSING_DOUBLE:
                next_id = _emit(quotes, tokens, open_pos, i, p_index,
                                next_id, continued)
                open_pos = None
                continued = False
        if open_pos is not None:
            log.warning("paragraph %d: unbalanced quote, closing at paragraph end",
                        p_index)
            next_id = _emit(quotes, tokens, open_pos, len(tokens), p_index,
                            next_id, continued)
            pending = True
        else:
            pending = False
    return quotes


def _emit(quotes, tokens, open_pos, close_pos, p_index, next_id, continued):
    content = tokens[open_pos + 1:close_pos]
    if not content:
        return next_id
    quote = QuoteSpan(id=next_id, start=content[0].index, end=content[-1].index,
                      paragraph_index=p_index, continued=continued)
    for token in content:
        token.quote_id = quote.id
    quotes.append(quote)
    return next_id + 1


def token_table(book):
    """The book's tokens in reading order and each one's sentence number.

    Returns ``(tokens, sentence_of)`` with ``tokens[i].index == i``: the
    character stage looks tokens up by index in this one table.
    InvariantError when the indices are not 0, 1, 2, ... without gaps.
    """
    tokens = []
    sentence_of = []
    for s, sentence in enumerate(book.iter_sentences()):
        for token in sentence.tokens:
            if token.index != len(tokens):
                raise InvariantError(f"token {len(tokens)} has index "
                                     f"{token.index}: indices must run 0, 1, "
                                     f"2, ... without gaps")
            tokens.append(token)
            sentence_of.append(s)
    return tokens, sentence_of


def attribute_quotes(quotes, table, mentions, lexicon_dir=""):
    """Map each quote to its speaker character, where determinable.

    The speaker is the character mention nearest to the quote within the
    same sentence's narration or an adjacent sentence, preferring mentions
    standing next to a speech verb. ``table`` is the book's
    ``token_table``; ``mentions`` is a list of ``(start_token_index,
    end_token_index, character_id)`` triples with inclusive token bounds.
    """
    verbs = lexicons.speech_verbs(lexicon_dir)
    tokens, sentence_of = table
    mentions = sorted(mentions)
    starts = [m_start for m_start, _, _ in mentions]
    far_from_verb = [not _adjacent_speech_verb(tokens, m_start, m_end, verbs)
                     for m_start, m_end, _ in mentions]

    def key(m, distance):
        return far_from_verb[m], distance, starts[m]

    attribution = {}
    for quote in quotes:
        speaker = nearest_mention(quote, sentence_of, mentions, starts, 1, key)
        if speaker is not None:
            quote.speaker_id = speaker
            attribution[quote.id] = speaker
    return attribution


def nearest_mention(quote, sentence_of, mentions, starts, spread, key):
    """The character of the mention ranked first for ``quote``, or None.

    ``mentions`` are sorted ``(start, end, character_id)`` triples and
    ``starts`` their starts. The candidates start within ``spread``
    sentences of the quote's own and do not overlap the quote. They are
    ranked by ``key(m, distance)``, lowest first, where ``m`` is the
    mention's position in ``mentions`` and ``distance`` its token gap to
    the quote; a key of None passes the mention over.
    """
    lo = bisect_left(starts, bisect_left(
        sentence_of, sentence_of[quote.start] - spread))
    hi = bisect_left(starts, bisect_left(
        sentence_of, sentence_of[quote.end] + spread + 1))
    best = None
    for m in range(lo, hi):
        m_start, m_end, character_id = mentions[m]
        if m_start > quote.end:
            rank = key(m, m_start - quote.end)
        elif m_end < quote.start:
            rank = key(m, quote.start - m_end)
        else:
            continue  # overlaps the quote
        if rank is not None and (best is None or rank < best[0]):
            best = (rank, character_id)
    return best[1] if best else None


def _adjacent_speech_verb(tokens, m_start, m_end, verbs):
    """True when a speech verb stands within two tokens of the mention span."""
    return any(token.text.lower() in verbs
               for token in (tokens[max(0, m_start - 2):m_start]
                             + tokens[m_end + 1:m_end + 3]))


# -- external annotation import -----------------------------------------------

_UPOS_MAP = {
    "NOUN": "NOUN", "PROPN": "NOUN", "ADJ": "ADJ", "VERB": "VERB", "AUX": "VERB",
    "ADV": "ADV", "PRON": "PRON", "INTJ": "INTJ", "ADP": "ADP", "CCONJ": "CONJ",
    "SCONJ": "CONJ", "CONJ": "CONJ", "DET": "DET", "NUM": "NUM",
    "PUNCT": "PUNCT", "PART": "OTHER", "SYM": "OTHER", "X": "OTHER",
}


def import_external_annotations(book, conll_path):
    """Overwrite baseline POS/lemma/NER from a token-aligned CoNLL-style file.

    Format: one token per line with tab-separated FORM, LEMMA, UPOS, NER;
    blank lines mark sentence breaks and are ignored for alignment. The
    token FORM sequence must match the book's token texts exactly.
    """
    rows = []
    with open(conll_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 4:
                raise AlignmentError(
                    f"{conll_path}:{lineno}: expected 4 tab-separated fields")
            rows.append(parts[:4])

    tokens = list(book.iter_tokens())
    limit = min(len(rows), len(tokens))
    divergence = next(
        (i for i in range(limit) if rows[i][0] != tokens[i].text), limit)
    if len(rows) != len(tokens):
        raise AlignmentError(
            f"token count mismatch: book has {len(tokens)}, file has {len(rows)} "
            f"(first divergence at token {divergence})")
    if divergence < limit:
        raise AlignmentError(
            f"token text mismatch at index {divergence}: book has "
            f"{tokens[divergence].text!r}, file has {rows[divergence][0]!r}")
    for token, (form, lemma, upos, ner) in zip(tokens, rows):
        token.lemma = lemma.lower()
        token.pos = _UPOS_MAP.get(upos.upper(), "OTHER")
        ner = ner.strip()
        if ner.upper() in ("PERSON", "PER", "B-PER", "I-PER", "B-PERSON", "I-PERSON"):
            token.ner = "PERSON"
        elif ner in ("", "O", "-", "_"):
            token.ner = None
        else:
            token.ner = "OTHER"
    return book


# -- paragraph annotation -------------------------------------------------------


def annotate_paragraph(paragraph, start_index, lexicon_dir=""):
    """Tokenize, sentence-split, tag, and lemmatize one raw paragraph.

    Token texts and lemmas are interned, so a book stores each distinct
    one once; the tags are literals and so already shared. Returns the
    next free global token index.
    """
    tokens = tokenize(paragraph.raw, base_offset=paragraph.offset,
                      start_index=start_index, lexicon_dir=lexicon_dir)
    sentences = split_sentences(tokens)
    for sentence in sentences:
        pos_tag(sentence.tokens)
        for token in sentence.tokens:
            if token.pos != "PUNCT":
                token.lemma = sys.intern(lemmatize(
                    token.text, token.pos, lexicon_dir=lexicon_dir))
    paragraph.sentences = sentences
    paragraph.raw = None
    paragraph.offset = None
    return start_index + len(tokens)
