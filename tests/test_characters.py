import copy
import random

import pytest

from bindery import linguistic
from bindery.characters import (_NAME_STOPWORDS, MentionCandidate,
                                _name_like, attach_pronoun_counts,
                                augment_honorifics,
                                build_interaction_network,
                                build_occurrence_timeline, cluster_mentions,
                                detect_person_mentions, infer_gender,
                                protagonist_stats)
from bindery.ingest import read_gutenberg
from bindery.pipeline import (annotate_book, characters_book, ingest_to_book,
                              linguistic_book, segment_book)
from bindery.xml_model import CharacterRecord
from generators import dialogue_text, random_book
from helpers import build_annotated, run_characters
from oracles import character_stage as oracle
from oracles.interaction_network import (
    build_interaction_network as oracle_network)


def surfaces(candidates):
    return [c.surface for c in candidates]


# -- detection ---------------------------------------------------------------------


def test_capitalization_run_candidate():
    book = build_annotated("He said Oliver Twist took the road to town.")
    assert "Oliver Twist" in surfaces(detect_person_mentions(book))


def test_sentence_initial_stopword_excluded():
    book = build_annotated("The road was long. The end came slowly.")
    assert detect_person_mentions(book) == []


def test_sentence_initial_name_needs_elsewhere_evidence():
    with_evidence = build_annotated(
        "Fagin stood by the fire. They feared Fagin greatly.")
    assert "Fagin" in surfaces(detect_person_mentions(with_evidence))
    without = build_annotated("Fagin stood by the fire. Nobody else came.")
    assert "Fagin" not in surfaces(detect_person_mentions(without))


def test_honorific_prefixed_run_detected():
    book = build_annotated("She spoke to Mrs. Bedwin about the boy.")
    candidates = detect_person_mentions(book)
    augment_honorifics(candidates, list(book.iter_tokens()))
    assert "Mrs. Bedwin" in surfaces(candidates)


def test_ner_tags_take_precedence():
    book = build_annotated("the quiet harbour town slept")
    tokens = list(book.iter_tokens())
    tokens[2].ner = "PERSON"
    tokens[3].ner = "PERSON"
    candidates = detect_person_mentions(book)
    assert surfaces(candidates) == ["harbour town"]


def test_one_walk_detection_matches_two_walk_oracle(fixture_books, config):
    """The one-walk detection finds the candidates of the two-walk one on
    the fixtures, 200 dialogue books and 20 NER-tagged random books; the
    books hold sentence-initial name-like words both kept and dropped."""
    books = [linguistic_book(segment_book(
        ingest_to_book(read_gutenberg(path), config), config), config)
        for path in fixture_books]
    books += [build_annotated(dialogue_text(seed=seed)) for seed in range(200)]
    books += [random_book(seed=seed) for seed in range(20)]
    initial = {"kept": 0, "dropped": 0}
    for book in books:
        want = oracle.detect_person_mentions(book)
        assert detect_person_mentions(book) == want
        starts = {c.start for c in want}
        for sentence in book.iter_sentences():
            head = sentence.tokens[0] if sentence.tokens else None
            if (head is not None and _name_like(head.text)
                    and head.text.lower() not in _NAME_STOPWORDS):
                initial["kept" if head.index in starts else "dropped"] += 1
    assert min(initial.values()) > 0, initial


# -- honorifics ---------------------------------------------------------------------


def test_augment_extends_span_left():
    book = build_annotated("They met Mr. Brownlow at the gate.")
    candidates = detect_person_mentions(book)
    assert "Brownlow" in surfaces(candidates)
    augment_honorifics(candidates, list(book.iter_tokens()))
    target = next(c for c in candidates if "Brownlow" in c.surface)
    assert target.surface == "Mr. Brownlow"
    assert target.honorific == "mr"


def test_augment_leaves_plain_candidates():
    book = build_annotated("They met young Oliver at the gate.")
    candidates = detect_person_mentions(book)
    augment_honorifics(candidates, list(book.iter_tokens()))
    assert "Oliver" in surfaces(candidates)
    target = next(c for c in candidates if c.surface == "Oliver")
    assert target.honorific is None


def test_augment_covers_multiword_name():
    book = build_annotated("He wrote to Dr. John Watson at once.")
    candidates = detect_person_mentions(book)
    augment_honorifics(candidates, list(book.iter_tokens()))
    target = next(c for c in candidates if "Watson" in c.surface)
    assert target.surface == "Dr. John Watson"
    # Span covers honorific plus both name tokens.
    assert target.end - target.start == 2


def test_augment_skips_a_name_at_the_first_token():
    book = build_annotated("Brownlow waved to Mr.")
    candidate = MentionCandidate(start=0, end=0, surface="Brownlow")
    augment_honorifics([candidate], list(book.iter_tokens()))
    assert (candidate.start, candidate.surface) == (0, "Brownlow")


# -- gender -----------------------------------------------------------------------


def test_honorific_gender_vote():
    _, records, _ = run_characters(
        "Mrs. Bedwin kept the house. Mrs. Bedwin cooked. Mrs. Bedwin slept.")
    assert records[0].gender == "female"


def test_pronoun_majority_vote():
    candidate = MentionCandidate(start=0, end=0, surface="Pip",
                                 name_parts=["Pip"])
    candidate.gender_pronoun = "male"
    assert infer_gender([candidate]) == "male"
    cluster = []
    for _ in range(10):
        c = MentionCandidate(start=0, end=0, surface="Pip", name_parts=["Pip"])
        c.gender_pronoun = "male"
        cluster.append(c)
    for _ in range(2):
        c = MentionCandidate(start=0, end=0, surface="Pip", name_parts=["Pip"])
        c.gender_pronoun = "female"
        cluster.append(c)
    assert infer_gender(cluster) == "male"


def test_ambiguous_gender_is_unknown():
    candidate = MentionCandidate(start=0, end=0, surface="Alex",
                                 name_parts=["Alex"])
    assert infer_gender([candidate]) == "unknown"


def test_honorific_beats_pronoun_vote():
    candidate = MentionCandidate(start=0, end=0, surface="Mrs. Smith",
                                 name_parts=["Smith"])
    candidate.gender_honorific = "female"
    candidate.gender_pronoun = "male"
    assert infer_gender([candidate]) == "female"


# -- clustering ---------------------------------------------------------------------


def test_single_names_fold_into_full_name():
    text = ("Oliver Twist was born here. Oliver cried. Oliver slept. "
            "Later Oliver Twist walked. Oliver ate. Oliver ran.")
    _, records, _ = run_characters(text)
    assert len(records) == 1
    record = records[0]
    assert record.count == 6
    assert record.aliases == {"Oliver", "Oliver Twist"}
    assert record.alias_counts == {"Oliver": 4, "Oliver Twist": 2}


def test_single_maps_to_nearest_full_name():
    # Jane Bennet far away, Elizabeth Bennet close: "Bennet" joins Elizabeth.
    filler = "The road ran on. " * 30
    text = ("At the ball Jane Bennet smiled. They admired Jane Bennet. "
            "All loved Jane Bennet. " + filler +
            "In the corner Elizabeth Bennet read. Then Elizabeth Bennet spoke. "
            "Meanwhile Bennet agreed with them all. So Elizabeth Bennet left.")
    _, records, _ = run_characters(text)
    by_name = {r.canonical_name: r for r in records}
    elizabeth = next(r for name, r in by_name.items() if "Elizabeth" in name)
    assert "Bennet" in elizabeth.aliases
    assert elizabeth.count == 4


def test_two_mentions_dropped():
    text = ("They met Oliver at dawn. Oliver slept well. Oliver woke early. "
            "They saw Dodger once. Dodger left town.")
    _, records, _ = run_characters(text)
    names = {r.canonical_name for r in records}
    assert any("Oliver" in n for n in names)
    assert not any("Dodger" in n for n in names)


def test_characters_ranked_by_count():
    text = ("They heard Nancy sing. Nancy danced. Nancy laughed. Nancy slept. "
            "They feared Sikes. Sikes left. Sikes returned.")
    _, records, _ = run_characters(text)
    assert [r.canonical_name for r in records] == ["Nancy", "Sikes"]
    assert records[0].id == 0
    assert records[0].count == 4


def test_alias_counts_sum_to_mention_count():
    _, records, _ = run_characters(
        "Oliver Twist ran. Oliver hid. Oliver Twist slept. Oliver ate.")
    for record in records:
        assert sum(record.alias_counts.values()) == record.count
        assert record.count >= 3
        assert record.mention_token_indices == sorted(record.mention_token_indices)


# -- pronoun counts -----------------------------------------------------------------


def test_gcc_nearest_preceding_mention():
    text = ("They watched Oliver run down the lane. He fell in the mud. "
            "Oliver rose again. Oliver laughed.")
    _, records, _ = run_characters(text)
    assert records[0].gcc >= 1


def test_fpcc_counts_first_person_in_quotes():
    text = ('"I am hungry," said Oliver. Oliver waited. Oliver sighed.')
    _, records, _ = run_characters(text)
    assert records[0].fpcc == 1


def test_pronoun_without_antecedent_unattributed():
    text = ("She walked alone through the empty town. "
            "Nobody else was there at all.")
    book, records, _ = run_characters(text)
    assert records == []


def test_attributed_pronouns_bounded_by_total():
    book, records, _ = run_characters(
        '"I saw him," said Nancy. She smiled at Oliver. Nancy left. '
        "Oliver waved to Nancy. Oliver slept. He dreamed.")
    pronouns = {"he", "him", "his", "she", "her", "hers", "i", "me", "my",
                "mine", "myself", "you", "your", "yours", "yourself",
                "yourselves"}
    total = sum(1 for t in book.iter_tokens() if t.text.lower() in pronouns)
    attributed = sum(r.gcc + r.fpcc + r.spcc for r in records)
    assert attributed <= total


def test_spcc_addressee():
    text = ('"You are brave," said Nancy to Oliver. Nancy smiled. '
            "Nancy left. Oliver stood. Oliver waved. Oliver slept.")
    _, records, _ = run_characters(text)
    oliver = next(r for r in records if "Oliver" in r.canonical_name)
    assert oliver.spcc == 1


def test_mention_overlapping_the_quote_is_neither_speaker_nor_addressee():
    """A span running into the quote (as an imported NER layer may make)
    is passed over for both roles, so it gains no spcc."""
    book = build_annotated('Ann Lee nodded. Tom Ray said "you are late" to them.')
    table = linguistic.token_table(book)
    quotes = linguistic.extract_quotes(list(book.iter_paragraphs()))
    assert [(q.start, q.end) for q in quotes] == [(8, 10)]
    spans = [(0, 1, 0), (5, 8, 1)]
    records = [_record(0, [0]), _record(1, [5])]
    assert linguistic.attribute_quotes(quotes, table, spans) == {0: 0}
    attach_pronoun_counts(table, records, quotes, spans)
    assert [(r.fpcc, r.spcc) for r in records] == [(0, 0), (0, 0)]


def test_character_stage_matches_full_scan_oracle(fixture_books, config,
                                                  monkeypatch):
    """``characters_book`` on one token table agrees with the stage that
    scanned every mention per quote: speakers (not serialized, so checked
    directly), records with their pronoun counts, and every token's
    character and quote stamps."""
    attributions = []
    real_attribute = linguistic.attribute_quotes

    def recording(quotes, *args, **kwargs):
        attributions.append((quotes, real_attribute(quotes, *args, **kwargs)))
        return attributions[-1][1]

    monkeypatch.setattr(linguistic, "attribute_quotes", recording)
    books = [linguistic_book(segment_book(
        ingest_to_book(read_gutenberg(path), config), config), config)
        for path in fixture_books]
    books += [build_annotated(dialogue_text(seed=seed)) for seed in range(200)]
    seen = {"attributed": 0, "continued": 0, "gcc": 0, "fpcc": 0, "spcc": 0}
    for book in books:
        twin = copy.deepcopy(book)
        characters_book(book, config)
        quotes, attribution = attributions.pop()
        records, _, want_quotes, want_attribution = oracle.run(twin)
        assert attribution == want_attribution
        assert ([q.speaker_id for q in quotes]
                == [q.speaker_id for q in want_quotes])
        assert book.characters == records
        assert ([(t.character_id, t.quote_id) for t in book.iter_tokens()]
                == [(t.character_id, t.quote_id) for t in twin.iter_tokens()])
        seen["attributed"] += len(attribution)
        seen["continued"] += sum(q.continued for q in quotes)
        for name in ("gcc", "fpcc", "spcc"):
            seen[name] += sum(getattr(r, name) for r in records)
    assert min(seen.values()) > 0, seen


# -- timeline ----------------------------------------------------------------------


def _record(char_id, positions, gender="unknown", name=None):
    name = name or f"C{char_id}"
    return CharacterRecord(id=char_id, canonical_name=name, gender=gender,
                           alias_counts={name: len(positions)},
                           mention_token_indices=sorted(positions))


def test_timeline_normalizes_positions():
    book = build_annotated("one two three four five six seven eight nine ten")
    book.characters = [_record(0, [0, 9])]
    timeline = build_occurrence_timeline(book)
    assert timeline["characters"][0]["positions"] == [0.0, 0.9]


def test_timeline_chapter_breaks_at_thirds():
    text = "alpha beta gamma\n\ndelta epsilon zeta\n\neta theta iota"
    book = build_annotated(text)
    # Convert the three paragraphs into three sections of equal token count.
    from bindery.xml_model import Section
    book.body = [Section(paragraphs=[p]) for p in book.iter_paragraphs()]
    book.characters = [_record(0, [0, 1, 2])]
    timeline = build_occurrence_timeline(book)
    assert timeline["chapter_breaks"] == [1 / 3, 2 / 3]


def test_timeline_top_k():
    book = build_annotated("one two three four five six")
    book.characters = [_record(0, [0, 1, 2, 3]), _record(1, [4, 5, 0])]
    timeline = build_occurrence_timeline(book, top_k=1)
    assert len(timeline["characters"]) == 1
    assert timeline["characters"][0]["id"] == 0


# -- interaction network ------------------------------------------------------------


def brute_force_pairs(a_positions, b_positions, window):
    return sum(1 for a in a_positions for b in b_positions
               if abs(a - b) <= window)


def test_network_threshold_is_strict():
    a = _record(0, [0, 40, 80])
    b = _record(1, [20, 60, 100])
    graph = build_interaction_network([a, b], window=30, min_co=5)
    assert brute_force_pairs(a.mention_token_indices,
                             b.mention_token_indices, 30) == 5
    assert graph["edges"] == []


def test_network_edge_weight():
    a = _record(0, [0, 40, 80, 120])
    b = _record(1, [20, 60, 100, 140])
    graph = build_interaction_network([a, b], window=30, min_co=5)
    assert brute_force_pairs(a.mention_token_indices,
                             b.mention_token_indices, 30) == 7
    assert graph["edges"] == [{"a": 0, "b": 1, "weight": 7}]


def test_network_distant_characters_unlinked():
    a = _record(0, [0, 1, 2])
    b = _record(1, [1000, 1001, 1002])
    graph = build_interaction_network([a, b], window=30, min_co=5)
    assert graph["edges"] == []


def test_network_matches_bruteforce_oracle():
    rnd = random.Random(42)
    for _ in range(30):
        records = []
        for char_id in range(rnd.randint(2, 5)):
            positions = sorted(rnd.sample(range(500), rnd.randint(3, 25)))
            records.append(_record(char_id, positions))
        window = rnd.choice([10, 30, 60])
        min_co = rnd.choice([0, 2, 5])
        graph = build_interaction_network(records, window=window, min_co=min_co)
        expected = {}
        for i, a in enumerate(records):
            for b in records[i + 1:]:
                count = brute_force_pairs(a.mention_token_indices,
                                          b.mention_token_indices, window)
                if count > min_co:
                    expected[(a.id, b.id)] = count
        got = {(e["a"], e["b"]): e["weight"] for e in graph["edges"]}
        assert got == expected


def test_network_nodes_carry_gender_and_count():
    a = _record(0, [0, 1, 2], gender="male")
    graph = build_interaction_network([a])
    assert graph["nodes"] == [{"id": 0, "name": "C0", "count": 3,
                               "gender": "male"}]


NETWORK_SETTINGS = ((30, 5), (0, 0), (10, -1), (100, 1))


def test_network_sweep_matches_pair_oracle_on_books(fixture_books, config):
    """The sweep gives the per-pair network on the characters of the
    fixtures and of 200 dialogue books, under several settings."""
    records = [annotate_book(ingest_to_book(read_gutenberg(path), config),
                             config).characters for path in fixture_books]
    records += [run_characters(dialogue_text(seed=seed))[1]
                for seed in range(200)]
    weights = set()
    for book_records in records:
        for window, min_co in NETWORK_SETTINGS:
            graph = build_interaction_network(book_records, window, min_co)
            assert graph == oracle_network(book_records, window, min_co)
            weights.update(e["weight"] for e in graph["edges"])
    assert sum(len(r) > 2 for r in records) > 100
    assert 0 in weights and max(weights) > 50


@pytest.mark.parametrize("layout, window, min_co, edges", [
    pytest.param({0: [5], 1: [5], 2: [40]}, 0, 0, [(0, 1, 1)],
                 id="two characters at one position"),
    pytest.param({0: [5, 5, 9], 1: [5, 9, 9]}, 0, 0, [(0, 1, 4)],
                 id="window 0, repeated positions"),
    pytest.param({0: [7, 7, 7], 1: [7, 8], 2: [3, 3, 50]}, 5, 0,
                 [(0, 1, 6), (0, 2, 6), (1, 2, 4)],
                 id="repeated positions within a record"),
    pytest.param({0: [1, 2, 3], 1: [], 2: [2, 4]}, 30, -1,
                 [(0, 1, 0), (0, 2, 6), (1, 2, 0)],
                 id="no mentions, min_co -1"),
    pytest.param({0: [1, 2, 3], 1: [], 2: [2, 4]}, 30, 0, [(0, 2, 6)],
                 id="no mentions, min_co 0"),
    pytest.param({2: [0, 10], 0: [100], 1: [5]}, 10, -1,
                 [(0, 1, 0), (0, 2, 0), (1, 2, 2)],
                 id="records out of id order"),
    pytest.param({0: [1, 2, 3]}, 30, -1, [], id="one character"),
    pytest.param({}, 30, -1, [], id="no characters"),
])
def test_network_hand_layouts(layout, window, min_co, edges):
    records = [_record(char_id, positions)
               for char_id, positions in layout.items()]
    graph = build_interaction_network(records, window=window, min_co=min_co)
    assert graph == oracle_network(records, window=window, min_co=min_co)
    assert [(e["a"], e["b"], e["weight"]) for e in graph["edges"]] == edges
    assert [n["id"] for n in graph["nodes"]] == sorted(layout)


# -- protagonist --------------------------------------------------------------------


def test_top2_ratio():
    a = _record(0, list(range(100)))
    b = _record(1, list(range(200, 210)))
    protagonist, ratio = protagonist_stats([a, b])
    assert protagonist.id == 0
    assert ratio == 10.0


def test_tie_breaks_to_earlier_first_mention():
    a = _record(0, [5, 10, 15])
    b = _record(1, [2, 20, 30])
    protagonist, ratio = protagonist_stats([a, b])
    assert protagonist.id == 1
    assert ratio == 1.0


def test_single_character_has_no_ratio():
    a = _record(0, [1, 2, 3])
    protagonist, ratio = protagonist_stats([a])
    assert protagonist.id == 0
    assert ratio is None
