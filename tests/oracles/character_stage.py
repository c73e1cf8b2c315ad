"""Full-scan oracle for the character stage of annotate.

Quote attribution, pronoun votes and pronoun counts as they were before
the stage shared one token table: each function builds its own
token-to-row and token-to-sentence dicts, every quote scans every
mention, and each second-person pronoun finds its quote by a linear
search and scans every mention again. Mention detection is the two-walk
version: one walk over every sentence collects the names seen
mid-sentence, a second builds the runs, and a capitalized token is
stripped of its possessive up to three times. Kept to check the table
version and the one-walk detection against.
"""

from bisect import bisect_left
from collections import Counter, defaultdict

from bindery import lexicons
from bindery.characters import (_NAME_STOPWORDS, FEMALE_PRONOUNS,
                                FIRST_PERSON_PRONOUNS, MALE_PRONOUNS,
                                SECOND_PERSON_PRONOUNS, MentionCandidate,
                                _name_like, _resolve_name_parts,
                                cluster_mentions)
from bindery.linguistic import extract_quotes, strip_possessive


def run(book, min_mentions=3, pronoun_window=2, lexicon_dir=""):
    """The character stage over a tokenized book, as ``characters_book``
    runs it; returns ``(records, assignments, quotes, attribution)``."""
    records, assignments = identify_characters(
        book, min_mentions=min_mentions, pronoun_window=pronoun_window,
        lexicon_dir=lexicon_dir)
    quotes = extract_quotes(list(book.iter_paragraphs()))
    attribution = attribute_quotes(quotes, list(book.iter_sentences()),
                                   assignments, lexicon_dir=lexicon_dir)
    attach_pronoun_counts(book, records, quotes, mention_spans=assignments,
                          window=pronoun_window)
    return records, assignments, quotes, attribution


def _token_table(book):
    tokens = []
    sentence_index = []
    s = 0
    for sentence in book.iter_sentences():
        for token in sentence.tokens:
            tokens.append(token)
            sentence_index.append(s)
        s += 1
    return tokens, sentence_index


def detect_person_mentions(book, lexicon_dir=""):
    honorific_table = lexicons.honorifics(lexicon_dir)
    candidates = []
    if any(t.ner == "PERSON" for t in book.iter_tokens()):
        for sentence in book.iter_sentences():
            run = []
            for token in sentence.tokens:
                if token.ner == "PERSON":
                    run.append(token)
                else:
                    _close_run(candidates, run, honorific_table)
                    run = []
            _close_run(candidates, run, honorific_table)
        return candidates

    seen_non_initial = set()
    for sentence in book.iter_sentences():
        for position, token in enumerate(sentence.tokens):
            if position > 0 and _name_like(token.text):
                lower = strip_possessive(token.text).lower()
                if lower not in _NAME_STOPWORDS and lower not in honorific_table:
                    seen_non_initial.add(strip_possessive(token.text))

    for sentence in book.iter_sentences():
        run = []
        for position, token in enumerate(sentence.tokens):
            ok = _name_like(token.text)
            if ok:
                lower = strip_possessive(token.text).lower()
                clean = lower.rstrip(".")
                if lower in _NAME_STOPWORDS or clean in honorific_table:
                    ok = False
                elif position == 0:
                    ok = strip_possessive(token.text) in seen_non_initial
            if ok:
                run.append(token)
            else:
                _close_run(candidates, run, honorific_table)
                run = []
        _close_run(candidates, run, honorific_table)
    return candidates


def _close_run(candidates, run, honorific_table):
    if not run:
        return
    candidates.append(MentionCandidate(
        start=run[0].index, end=run[-1].index,
        surface=" ".join(t.text for t in run)))


def augment_honorifics(candidates, tokens, lexicon_dir=""):
    honorific_table = lexicons.honorifics(lexicon_dir)
    by_index = {t.index: t for t in tokens}
    for candidate in candidates:
        head = by_index.get(candidate.start - 1)
        if head is not None:
            key = head.text.lower().rstrip(".")
            if key in honorific_table:
                candidate.start = head.index
                candidate.surface = f"{head.text} {candidate.surface}"
                candidate.honorific = key
                continue
        first = candidate.surface.split(" ", 1)[0]
        key = first.lower().rstrip(".")
        if candidate.honorific is None and key in honorific_table:
            candidate.honorific = key
    return candidates


def _attach_pronoun_votes(candidates, tokens, sentence_index, window=2):
    order = sorted(range(len(candidates)), key=lambda i: candidates[i].end)
    ends = [candidates[i].end for i in order]
    index_to_sentence = {t.index: s for t, s in zip(tokens, sentence_index)}
    votes = defaultdict(Counter)
    for token, s in zip(tokens, sentence_index):
        lower = token.text.lower()
        if lower in MALE_PRONOUNS:
            gender = "male"
        elif lower in FEMALE_PRONOUNS:
            gender = "female"
        else:
            continue
        slot = bisect_left(ends, token.index) - 1
        if slot >= 0:
            candidate = candidates[order[slot]]
            c_sentence = index_to_sentence.get(candidate.end, 0)
            if s - c_sentence <= window:
                votes[order[slot]][gender] += 1
    for i, counter in votes.items():
        male, female = counter["male"], counter["female"]
        if male > female:
            candidates[i].gender_pronoun = "male"
        elif female > male:
            candidates[i].gender_pronoun = "female"


def identify_characters(book, min_mentions=3, pronoun_window=2, lexicon_dir=""):
    tokens, sentence_index = _token_table(book)
    candidates = detect_person_mentions(book, lexicon_dir=lexicon_dir)
    augment_honorifics(candidates, tokens, lexicon_dir=lexicon_dir)
    _resolve_name_parts(candidates, lexicon_dir=lexicon_dir)
    _attach_pronoun_votes(candidates, tokens, sentence_index,
                          window=pronoun_window)
    records, assignments = cluster_mentions(candidates, min_mentions=min_mentions)
    by_index = {t.index: t for t in tokens}
    for start, end, char_id in assignments:
        for index in range(start, end + 1):
            token = by_index.get(index)
            if token is not None:
                token.character_id = char_id
    book.characters = records
    return records, assignments


def attribute_quotes(quotes, sentences, mentions, lexicon_dir=""):
    verbs = lexicons.speech_verbs(lexicon_dir)
    token_rows = []
    for s_index, sentence in enumerate(sentences):
        for token in sentence.tokens:
            token_rows.append((token, s_index))
    index_of = {token.index: row for row, (token, _) in enumerate(token_rows)}

    attribution = {}
    for quote in quotes:
        start_row = index_of.get(quote.start)
        end_row = index_of.get(quote.end)
        if start_row is None or end_row is None:
            continue
        s_lo = token_rows[start_row][1]
        s_hi = token_rows[end_row][1]
        window = range(max(0, s_lo - 1), min(len(sentences), s_hi + 2))
        best = None
        for m_start, m_end, character_id in mentions:
            row = index_of.get(m_start)
            if row is None:
                continue
            if token_rows[row][1] not in window:
                continue
            if m_start > quote.end:
                distance = m_start - quote.end
            elif m_end < quote.start:
                distance = quote.start - m_end
            else:
                continue
            near_verb = _adjacent_speech_verb(token_rows, index_of, m_start,
                                              m_end, verbs)
            key = (0 if near_verb else 1, distance, m_start)
            if best is None or key < best[0]:
                best = (key, character_id)
        if best is not None:
            quote.speaker_id = best[1]
            attribution[quote.id] = best[1]
    return attribution


def _adjacent_speech_verb(token_rows, index_of, m_start, m_end, verbs):
    row_start = index_of.get(m_start)
    row_end = index_of.get(m_end)
    if row_start is None or row_end is None:
        return False
    for row in range(max(0, row_start - 2), row_start):
        if token_rows[row][0].text.lower() in verbs:
            return True
    for row in range(row_end + 1, min(len(token_rows), row_end + 3)):
        if token_rows[row][0].text.lower() in verbs:
            return True
    return False


def attach_pronoun_counts(book, records, quotes, mention_spans, window=2):
    tokens, sentence_index = _token_table(book)
    by_id = {record.id: record for record in records}
    index_to_sentence = {t.index: s for t, s in zip(tokens, sentence_index)}

    spans_sorted = sorted(mention_spans, key=lambda span: span[1])
    span_ends = [span[1] for span in spans_sorted]
    speaker_of = {q.id: q.speaker_id for q in quotes}

    for token, s in zip(tokens, sentence_index):
        lower = token.text.lower()
        if lower in MALE_PRONOUNS or lower in FEMALE_PRONOUNS:
            gender = "male" if lower in MALE_PRONOUNS else "female"
            slot = bisect_left(span_ends, token.index) - 1
            while slot >= 0:
                start, end, char_id = spans_sorted[slot]
                c_sentence = index_to_sentence.get(end, 0)
                if s - c_sentence > window:
                    break
                record = by_id.get(char_id)
                if record is not None and record.gender in (gender, "unknown"):
                    record.gcc += 1
                    break
                slot -= 1
        elif lower in FIRST_PERSON_PRONOUNS and token.quote_id is not None:
            speaker = speaker_of.get(token.quote_id)
            if speaker is not None and speaker in by_id:
                by_id[speaker].fpcc += 1
        elif lower in SECOND_PERSON_PRONOUNS and token.quote_id is not None:
            addressee = _addressee(token.quote_id, quotes, mention_spans,
                                   index_to_sentence, speaker_of)
            if addressee is not None and addressee in by_id:
                by_id[addressee].spcc += 1
    return records


def _addressee(quote_id, quotes, mention_spans, index_to_sentence, speaker_of):
    quote = next((q for q in quotes if q.id == quote_id), None)
    if quote is None:
        return None
    s_lo = index_to_sentence.get(quote.start)
    s_hi = index_to_sentence.get(quote.end)
    if s_lo is None or s_hi is None:
        return None
    speaker = speaker_of.get(quote_id)
    best = None
    for start, end, char_id in mention_spans:
        if char_id == speaker:
            continue
        if quote.start <= start <= quote.end:
            continue
        s = index_to_sentence.get(start)
        if s is None or not (s_lo <= s <= s_hi):
            continue
        distance = (start - quote.end) if start > quote.end else (quote.start - end)
        key = (distance, start)
        if best is None or key < best[0]:
            best = (key, char_id)
    return best[1] if best else None
