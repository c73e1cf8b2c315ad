"""Canonical character identification and character-level analytics.

Person mentions are runs of NER-tagged tokens when an external import
provided them, otherwise runs of the capitalization baseline. Mentions
gain prefixed honorifics, receive three gender votes (honorific table,
attributed pronoun majority, first-name lexicon), and single-name mentions
are folded into the nearest compatible full name. Unique first/last/gender
combinations with more than two total mentions become characters.
"""

import logging
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import combinations

from . import lexicons
from .linguistic import (AUXILIARIES, CONJUNCTIONS, DETERMINERS, INTERJECTIONS,
                         PREPOSITIONS, PRONOUNS, nearest_mention,
                         strip_possessive)
from .xml_model import CharacterRecord

log = logging.getLogger(__name__)

MALE_PRONOUNS = frozenset(("he", "him", "his"))
FEMALE_PRONOUNS = frozenset(("she", "her", "hers"))
PRONOUN_GENDER = {**dict.fromkeys(MALE_PRONOUNS, "male"),
                  **dict.fromkeys(FEMALE_PRONOUNS, "female")}
FIRST_PERSON_PRONOUNS = frozenset(("i", "me", "my", "mine", "myself"))
SECOND_PERSON_PRONOUNS = frozenset(("you", "your", "yours", "yourself",
                                    "yourselves"))

_NAME_STOPWORDS = (PRONOUNS | PREPOSITIONS | CONJUNCTIONS | DETERMINERS
                   | INTERJECTIONS | AUXILIARIES
                   | frozenset("""
not now then thus there here however perhaps yet soon still never ever again
once indeed meanwhile nevertheless presently suddenly tonight today tomorrow
yesterday
""".split()))


@dataclass
class MentionCandidate:
    start: int  # global token index, inclusive
    end: int    # global token index, inclusive
    surface: str
    honorific: str | None = None
    gender_honorific: str | None = None
    gender_pronoun: str | None = None
    gender_name: str | None = None
    name_parts: list = field(default_factory=list)

    @property
    def is_full_name(self):
        return len(self.name_parts) >= 2

    @property
    def first_name(self):
        return self.name_parts[0] if self.name_parts else None

    @property
    def last_name(self):
        return self.name_parts[-1] if len(self.name_parts) >= 2 else None


def _name_like(text):
    return (text[:1].isupper() and text[:1].isalpha()
            and any(ch.islower() for ch in text))


def detect_person_mentions(book, lexicon_dir=""):
    """Find person-mention candidates over the book's tokens.

    A candidate is a maximal run of tokens within a sentence. When any
    token of the book carries ``ner=PERSON``, exactly those tokens join
    runs. Otherwise the capitalization baseline decides: non-sentence-
    initial name-like tokens qualify outright, sentence-initial ones only
    when the same text appears capitalized mid-sentence elsewhere (runs
    right after an honorific are always in since the honorific occupies
    the initial position).
    """
    honorific_table = lexicons.honorifics(lexicon_dir)
    tagged = any(t.ner == "PERSON" for t in book.iter_tokens())
    # One walk builds the runs. A sentence-initial name opens its run on
    # trial, since whether it appears mid-sentence later is not yet known;
    # it is dropped from the run after the walk if it never did.
    runs = []
    on_trial = []  # (runs slot, stripped text) of sentence-initial names
    seen_non_initial = set()
    for sentence in book.iter_sentences():
        run = []
        for position, token in enumerate(sentence.tokens):
            if tagged:
                ok = token.ner == "PERSON"
            elif ok := _name_like(token.text):
                name = strip_possessive(token.text)
                lower = name.lower()
                if lower in _NAME_STOPWORDS or lower.rstrip(".") in honorific_table:
                    ok = False
                elif position == 0:
                    on_trial.append((len(runs), name))
                elif lower not in honorific_table:
                    seen_non_initial.add(name)
            if ok:
                run.append(token)
            elif run:
                runs.append(run)
                run = []
        if run:
            runs.append(run)
    for slot, name in on_trial:
        if name not in seen_non_initial:
            del runs[slot][0]
    return _candidates(run for run in runs if run)


def _candidates(runs):
    return [MentionCandidate(start=run[0].index, end=run[-1].index,
                             surface=" ".join(t.text for t in run))
            for run in runs]


def augment_honorifics(candidates, tokens, lexicon_dir=""):
    """Extend each candidate span left over an immediately preceding honorific.

    ``tokens`` holds the book's tokens by index (``linguistic.token_table``).
    """
    honorific_table = lexicons.honorifics(lexicon_dir)
    for candidate in candidates:
        head = tokens[candidate.start - 1] if candidate.start > 0 else None
        if head is not None:
            key = head.text.lower().rstrip(".")
            if key in honorific_table:
                candidate.start = head.index
                candidate.surface = f"{head.text} {candidate.surface}"
                candidate.honorific = key
                continue
        # NER spans may already include the honorific as their first token.
        first = candidate.surface.split(" ", 1)[0]
        key = first.lower().rstrip(".")
        if candidate.honorific is None and key in honorific_table:
            candidate.honorific = key
    return candidates


def _resolve_name_parts(candidates, lexicon_dir=""):
    honorific_table = lexicons.honorifics(lexicon_dir)
    names = lexicons.first_name_genders(lexicon_dir)
    for candidate in candidates:
        parts = []
        for word in candidate.surface.split(" "):
            if not parts and word.lower().rstrip(".") in honorific_table:
                continue
            parts.append(strip_possessive(word))
        candidate.name_parts = parts
        if candidate.honorific is not None:
            vote = honorific_table[candidate.honorific]
            candidate.gender_honorific = vote if vote in ("male", "female") else None
        if parts:
            candidate.gender_name = names.get(parts[0].lower())


def _preceding(ends, index, sentence_of, s, window):
    """Slots in the sorted ``ends`` of the spans that end before token
    ``index`` of sentence ``s``, nearest first, while the span ends
    within ``window`` sentences of ``s``."""
    slot = bisect_left(ends, index) - 1
    while slot >= 0 and s - sentence_of[ends[slot]] <= window:
        yield slot
        slot -= 1


def _attach_pronoun_votes(candidates, tokens, sentence_of, window=2):
    """Vote each gendered pronoun toward its nearest preceding candidate."""
    order = sorted(range(len(candidates)), key=lambda i: candidates[i].end)
    ends = [candidates[i].end for i in order]
    votes = defaultdict(Counter)
    for token, s in zip(tokens, sentence_of):
        gender = PRONOUN_GENDER.get(token.text.lower())
        if gender is not None:
            slot = next(_preceding(ends, token.index, sentence_of, s, window),
                        None)
            if slot is not None:
                votes[order[slot]][gender] += 1
    for i, counter in votes.items():
        male, female = counter["male"], counter["female"]
        if male > female:
            candidates[i].gender_pronoun = "male"
        elif female > male:
            candidates[i].gender_pronoun = "female"


def infer_gender(cluster):
    """Resolve a cluster's gender votes in preference order: honorific,
    pronoun, name. Each vote takes the majority value among the mention
    candidates of ``cluster`` that cast it; a tie falls through."""
    for vote in ("gender_honorific", "gender_pronoun", "gender_name"):
        counter = Counter(getattr(c, vote) for c in cluster
                          if getattr(c, vote) is not None)
        if counter:
            top = counter.most_common()
            if len(top) == 1 or top[0][1] > top[1][1]:
                return top[0][0]
    return "unknown"


def cluster_mentions(candidates, min_mentions=3):
    """Group mentions into characters.

    Multi-token candidates define full names (first non-honorific token and
    final token). Each single-name candidate maps to the nearest occurrence
    of a gender-compatible full name sharing its first or last name; the
    tie between equidistant occurrences breaks toward the more frequent
    name form. Unique (first, last, gender) combinations with at least
    ``min_mentions`` total mentions become characters, ranked by mention
    count.

    Returns ``(records, assignments)`` where assignments is a list of
    ``(start, end, character_id)`` mention spans.
    """
    full_forms = defaultdict(list)   # (first, last) -> [candidate, ...]
    singles = []
    for candidate in candidates:
        if candidate.is_full_name:
            full_forms[(candidate.first_name, candidate.last_name)].append(candidate)
        elif candidate.name_parts:
            singles.append(candidate)

    form_gender = {form: infer_gender(members)
                   for form, members in full_forms.items()}

    occurrences_by_name = defaultdict(list)  # name part -> [(start, form), ...]
    for form, members in full_forms.items():
        for candidate in members:
            occurrences_by_name[form[0]].append((candidate.start, form))
            if form[1] != form[0]:
                occurrences_by_name[form[1]].append((candidate.start, form))
    for rows in occurrences_by_name.values():
        rows.sort()

    clusters = defaultdict(list)  # (first, last, gender) -> [candidate, ...]
    for form, members in full_forms.items():
        key = (form[0], form[1], form_gender[form])
        clusters[key].extend(members)

    leftovers = defaultdict(list)  # (name, honorific gender) -> [candidate, ...]
    for candidate in singles:
        form = _match_single(candidate, occurrences_by_name, full_forms,
                             form_gender)
        if form is not None:
            key = (form[0], form[1], form_gender[form])
            clusters[key].append(candidate)
        else:
            leftovers[(candidate.first_name, candidate.gender_honorific)].append(
                candidate)

    for (name, _), members in sorted(leftovers.items(),
                                     key=lambda kv: (kv[0][0], kv[0][1] or "")):
        gender = infer_gender(members)
        clusters[(name, None, gender)].extend(members)

    ranked = sorted(
        ((key, members) for key, members in clusters.items()
         if len(members) >= min_mentions),
        key=lambda kv: (-len(kv[1]), min(c.start for c in kv[1])))

    records = []
    assignments = []
    for char_id, (key, members) in enumerate(ranked):
        alias_counts = Counter(c.surface for c in members)
        canonical = sorted(alias_counts,
                           key=lambda a: (-alias_counts[a], -len(a.split()), a))[0]
        records.append(CharacterRecord(
            id=char_id,
            canonical_name=canonical,
            gender=key[2],
            alias_counts=dict(alias_counts),
            mention_token_indices=sorted(c.start for c in members),
        ))
        assignments.extend((c.start, c.end, char_id) for c in members)
    assignments.sort()
    return records, assignments


def _match_single(candidate, occurrences_by_name, full_forms, form_gender):
    """Nearest full-name occurrence for a single-name mention.

    Gender votes apply one source at a time in preference order: an
    honorific-compatible match wins outright, else a pronoun-compatible
    one, else a name-lexicon-compatible one. A voteless mention maps to
    the nearest name match regardless of gender.
    """
    rows = occurrences_by_name.get(candidate.first_name, ())
    if not rows:
        return None
    votes = [v for v in (candidate.gender_honorific, candidate.gender_pronoun,
                         candidate.gender_name) if v is not None]
    for vote in votes or [None]:
        best = None
        for start, form in rows:
            fg = form_gender[form]
            if vote is not None and fg not in (vote, "unknown"):
                continue
            distance = abs(start - candidate.start)
            key = (distance, -len(full_forms[form]), start)
            if best is None or key < best[0]:
                best = (key, form)
        if best is not None:
            return best[1]
    return None


def identify_characters(book, table, min_mentions=3, pronoun_window=2,
                        lexicon_dir=""):
    """Run the full identification pipeline over an annotated book.

    ``table`` is the book's ``linguistic.token_table``. Stamps mention
    tokens with their character id and attaches the records to the book,
    sorted by mention count.
    """
    tokens, sentence_of = table
    candidates = detect_person_mentions(book, lexicon_dir=lexicon_dir)
    augment_honorifics(candidates, tokens, lexicon_dir=lexicon_dir)
    _resolve_name_parts(candidates, lexicon_dir=lexicon_dir)
    _attach_pronoun_votes(candidates, tokens, sentence_of,
                          window=pronoun_window)
    records, assignments = cluster_mentions(candidates, min_mentions=min_mentions)

    for start, end, char_id in assignments:
        for token in tokens[start:end + 1]:
            token.character_id = char_id
    book.characters = records
    return records, assignments


def attach_pronoun_counts(table, records, quotes, mention_spans, window=2):
    """Fill gendered/first-person/second-person coreference counts.

    gcc counts gendered third-person pronouns whose nearest preceding
    gender-compatible mention (within ``window`` sentences) belongs to the
    character; fpcc counts first-person pronouns inside quotes the
    character speaks; spcc counts second-person pronouns inside quotes
    addressed to the character: the nearest mention in the quote's own
    sentences that is not the speaker's and does not overlap the quote.
    ``table`` is the book's ``linguistic.token_table``, and quote ids are
    positions in ``quotes``.
    """
    tokens, sentence_of = table
    by_id = {record.id: record for record in records}
    mentions = sorted(mention_spans)
    starts = [start for start, _, _ in mentions]
    addressees = [nearest_mention(
        quote, sentence_of, mentions, starts, 0, lambda m, distance:
            None if mentions[m][2] == quote.speaker_id
            else (distance, starts[m]))
        for quote in quotes]
    spans_sorted = sorted(mentions, key=lambda span: span[1])
    span_ends = [span[1] for span in spans_sorted]

    for token, s in zip(tokens, sentence_of):
        lower = token.text.lower()
        gender = PRONOUN_GENDER.get(lower)
        if gender is not None:
            for slot in _preceding(span_ends, token.index, sentence_of, s,
                                   window):
                record = by_id.get(spans_sorted[slot][2])
                if record is not None and record.gender in (gender, "unknown"):
                    record.gcc += 1
                    break
        elif lower in FIRST_PERSON_PRONOUNS and token.quote_id is not None:
            speaker = quotes[token.quote_id].speaker_id
            if speaker in by_id:
                by_id[speaker].fpcc += 1
        elif lower in SECOND_PERSON_PRONOUNS and token.quote_id is not None:
            addressee = addressees[token.quote_id]
            if addressee in by_id:
                by_id[addressee].spcc += 1
    return records


# -- character analytics ----------------------------------------------------------


def build_occurrence_timeline(book, top_k=10):
    """Normalized mention positions for the most frequent characters.

    Positions and chapter breaks are token indices divided by the total
    token count. Breaks mark the first token of every section after the
    first.
    """
    total = book.token_count()
    if total == 0:
        return {"characters": [], "chapter_breaks": []}
    rows = [{"id": r.id, "name": r.canonical_name, "gender": r.gender,
             "positions": [index / total for index in r.mention_token_indices]}
            for r in _ranked(book.characters)[:top_k]]
    breaks = []
    seen = 0
    for section in book.body[:-1]:
        seen += sum(len(s.tokens) for p in section.paragraphs
                    for s in p.sentences)
        breaks.append(seen / total)
    return {"characters": rows, "chapter_breaks": breaks}


def build_interaction_network(records, window=30, min_co=5):
    """Co-occurrence graph over character mention positions.

    The weight of pair (A, B) counts unordered mention pairs at most
    ``window`` tokens apart; an edge exists when the count exceeds
    ``min_co``. One sweep over every mention, sorted by position, counts
    each such pair once, from its later mention, against the mentions of
    other characters that lie behind it within the window.
    """
    ordered = sorted(records, key=lambda r: r.id)
    mentions = sorted((position, r.id) for r in ordered
                      for position in r.mention_token_indices)
    weights = Counter()
    left = 0
    for right, (position, b) in enumerate(mentions):
        while left < right and mentions[left][0] < position - window:
            left += 1
        for _, a in mentions[left:right]:
            if a != b:
                weights[(a, b) if a < b else (b, a)] += 1
    edges = [{"a": a, "b": b, "weight": weight}
             for a, b in combinations([r.id for r in ordered], 2)
             if (weight := weights.get((a, b), 0)) > min_co]
    nodes = [{"id": r.id, "name": r.canonical_name, "count": r.count,
              "gender": r.gender} for r in ordered]
    return {"nodes": nodes, "edges": edges}


def _ranked(records):
    """Most mentions first; a tie goes to the earlier first mention."""
    return sorted(records, key=lambda r: (-r.count, r.mention_token_indices[0]
                                          if r.mention_token_indices else 0))


def protagonist_stats(records):
    """Most frequent character and the top-2 mention ratio.

    Ties break toward the earlier first mention. With fewer than two
    characters the ratio is None.
    """
    if not records:
        return None, None
    ranked = _ranked(records)
    protagonist = ranked[0]
    if len(ranked) < 2 or ranked[1].count == 0:
        return protagonist, None
    return protagonist, ranked[0].count / ranked[1].count
