import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bindery.errors import AlignmentError, InvariantError
from bindery.linguistic import (annotate_paragraph, attribute_quotes,
                                count_syllables, extract_quotes,
                                import_external_annotations, lemmatize,
                                pos_tag, split_sentences, token_table,
                                tokenize)
from bindery.xml_model import (AnnotatedBook, BookMeta, Paragraph, Section,
                               Sentence)


def texts(tokens):
    return [t.text for t in tokens]


# -- tokenize ---------------------------------------------------------------------


def test_abbreviation_kept_whole():
    assert texts(tokenize("Mr. Darcy smiled.")) == ["Mr.", "Darcy", "smiled", "."]


def test_empty_text():
    assert tokenize("") == []


def test_hyphenated_word_kept_whole():
    assert texts(tokenize("well-known fact")) == ["well-known", "fact"]


def test_decimal_number_kept_whole():
    assert texts(tokenize("about 3.14 pies")) == ["about", "3.14", "pies"]


def test_possessive_kept_whole():
    assert texts(tokenize("Darcy's hat")) == ["Darcy's", "hat"]


def test_double_dash_detached():
    assert texts(tokenize("world--and more")) == ["world", "--", "and", "more"]


def test_quotes_detached():
    assert texts(tokenize('"Go!" he said')) == ['"', "Go", "!", '"', "he", "said"]


def test_offsets_map_back_into_text():
    text = 'He said, "Mr. Darcy is well-known." Then 3.5 miles on.'
    for token in tokenize(text):
        assert text[token.offset:token.offset + len(token.text)] == token.text


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
               max_size=80))
def test_tokens_plus_gaps_reconstruct_text(text):
    tokens = tokenize(text)
    cursor = 0
    pieces = []
    for token in tokens:
        gap = text[cursor:token.offset]
        assert gap.strip() == ""  # only whitespace between tokens
        pieces.append(gap)
        pieces.append(token.text)
        cursor = token.offset + len(token.text)
    pieces.append(text[cursor:])
    assert "".join(pieces) == text


# -- split_sentences -----------------------------------------------------------------


def sentence_texts(text):
    return [texts(s.tokens) for s in split_sentences(tokenize(text))]


def test_abbreviation_does_not_split():
    got = sentence_texts("Mr. Darcy smiled. He left.")
    assert got == [["Mr.", "Darcy", "smiled", "."], ["He", "left", "."]]


def test_closing_quote_attaches_to_previous_sentence():
    got = sentence_texts('He said, "Go!" Then he left.')
    assert got == [["He", "said", ",", '"', "Go", "!", '"'],
                   ["Then", "he", "left", "."]]


def test_single_token_sentence():
    assert sentence_texts("Hi") == [["Hi"]]


# -- pos_tag ---------------------------------------------------------------------


def tag_of(word, context=None):
    tokens = tokenize(context or word)
    pos_tag(tokens)
    for token in tokens:
        if token.text == word:
            return token.pos
    raise AssertionError(word)


def test_closed_class_pronoun():
    assert tag_of("he") == "PRON"


def test_suffix_rule_adverb():
    assert tag_of("quickly") == "ADV"


def test_punct_tag():
    assert tag_of(".", "end .") == "PUNCT"


def test_verb_after_auxiliary():
    assert tag_of("running", "he was running") == "VERB"


def test_capitalized_non_initial_is_noun():
    assert tag_of("Darcy", "said Darcy") == "NOUN"


def test_every_token_gets_one_tag():
    tokens = tokenize("The quick brown fox, jumping over 2 lazy dogs!")
    tags = pos_tag(tokens)
    assert len(tags) == len(tokens)
    assert all(t.pos is not None for t in tokens)


def test_number_tag():
    assert tag_of("42", "count 42 sheep") == "NUM"


# -- lemmatize ---------------------------------------------------------------------


def test_doubling_undo():
    assert lemmatize("running", "VERB") == "run"


def test_exception_table():
    assert lemmatize("was", "VERB") == "be"
    assert lemmatize("children", "NOUN") == "child"


def test_casefolded_identity():
    assert lemmatize("London", "NOUN") == "london"


def test_plural_stripping():
    assert lemmatize("cats", "NOUN") == "cat"
    assert lemmatize("boxes", "NOUN") == "box"
    assert lemmatize("ladies", "NOUN") == "lady"


# -- count_syllables ------------------------------------------------------------------


def test_syllables_examples():
    assert count_syllables("cat") == 1
    assert count_syllables("people") == 2
    assert count_syllables("a") == 1
    assert count_syllables("cake") == 1
    assert count_syllables("table") == 2
    assert count_syllables("beautiful") == 3
    assert count_syllables("123") == 0


@given(st.text(alphabet="bcdfglmnprstaeiouy", min_size=1, max_size=12))
def test_syllables_at_least_one_for_vowel_words(word):
    if any(v in word for v in "aeiouy"):
        assert count_syllables(word) >= 1


# -- quotes ---------------------------------------------------------------------


def paragraph_of(text, start_index=0, offset=0):
    p = Paragraph(raw=text, offset=offset)
    annotate_paragraph(p, start_index)
    return p


def test_quote_pairing():
    p = paragraph_of('"Hello," she said.')
    quotes = extract_quotes([p])
    assert len(quotes) == 1
    tokens = [t for s in p.sentences for t in s.tokens]
    quoted = [t.text for t in tokens if t.quote_id == quotes[0].id]
    assert quoted == ["Hello", ","]


def test_unbalanced_quote_closes_at_paragraph_end(caplog):
    with caplog.at_level(logging.WARNING):
        p = paragraph_of('"An unfinished speech runs on')
        quotes = extract_quotes([p])
    assert len(quotes) == 1
    assert any("unbalanced" in r.message for r in caplog.records)


def test_nested_single_quotes_ignored():
    p = paragraph_of("\"He called it 'fine' and left.\"")
    quotes = extract_quotes([p])
    assert len(quotes) == 1


def test_continuation_paragraph_convention():
    p1 = paragraph_of('"Speech that spills over', start_index=0)
    n1 = sum(len(s.tokens) for s in p1.sentences)
    p2 = paragraph_of('"and ends here," she said.', start_index=n1)
    quotes = extract_quotes([p1, p2])
    assert len(quotes) == 2
    assert quotes[1].continued


def test_quotes_never_cross_paragraphs():
    p1 = paragraph_of('"Open quote without close', start_index=0)
    n1 = sum(len(s.tokens) for s in p1.sentences)
    p2 = paragraph_of("Plain narration follows.", start_index=n1)
    quotes = extract_quotes([p1, p2])
    last_p1 = [t.index for s in p1.sentences for t in s.tokens][-1]
    assert all(q.end <= last_p1 for q in quotes)


# -- attribution -----------------------------------------------------------------


def build_book(text):
    paragraphs = []
    index = 0
    offset = 0
    for chunk in text.split("\n\n"):
        p = Paragraph(raw=chunk, offset=offset)
        index = annotate_paragraph(p, index)
        offset += len(chunk) + 2
        paragraphs.append(p)
    return AnnotatedBook(meta=BookMeta(source_id="pgt"),
                         body=[Section(paragraphs=paragraphs)])


def _mentions_for(book, *names):
    mentions = []
    for i, token in enumerate(book.iter_tokens()):
        for char_id, name in enumerate(names):
            if token.text == name:
                mentions.append((token.index, token.index, char_id))
    return mentions


def test_speech_verb_adjacency_attribution():
    book = build_book('"Hello," said Oliver.')
    quotes = extract_quotes(list(book.iter_paragraphs()))
    mentions = _mentions_for(book, "Oliver")
    got = attribute_quotes(quotes, token_table(book), mentions)
    assert got == {0: 0}


def test_quote_without_nearby_mention_unattributed():
    book = build_book('"Nobody here," came the reply.')
    quotes = extract_quotes(list(book.iter_paragraphs()))
    got = attribute_quotes(quotes, token_table(book), [])
    assert got == {}
    assert quotes[0].speaker_id is None


def test_token_table_rejects_a_gap_in_token_indices():
    book = build_book("Oliver ran. He fell.")
    tokens, sentence_of = token_table(book)
    assert [t.index for t in tokens] == list(range(len(tokens)))
    assert sentence_of == [0, 0, 0, 1, 1, 1]
    for token in tokens[3:]:
        token.index += 1
    with pytest.raises(InvariantError, match="token 3 has index 4"):
        token_table(book)


def test_nearer_to_speech_verb_wins():
    book = build_book('"Hi," said Oliver to Fagin.')
    quotes = extract_quotes(list(book.iter_paragraphs()))
    mentions = _mentions_for(book, "Oliver", "Fagin")
    got = attribute_quotes(quotes, token_table(book), mentions)
    assert got == {0: 0}


# -- import -----------------------------------------------------------------------


def test_import_replaces_attributes(tmp_path):
    book = build_book("Oliver smiled.")
    rows = ["Oliver\toliver\tPROPN\tPERSON",
            "smiled\tsmile\tVERB\tO",
            ".\t.\tPUNCT\tO"]
    path = tmp_path / "ann.conll"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    import_external_annotations(book, path)
    tokens = list(book.iter_tokens())
    assert [t.pos for t in tokens] == ["NOUN", "VERB", "PUNCT"]
    assert tokens[0].ner == "PERSON"
    assert tokens[1].lemma == "smile"


def test_import_extra_token_reports_index(tmp_path):
    book = build_book("Oliver smiled.")
    rows = ["Oliver\toliver\tPROPN\tO",
            "smiled\tsmile\tVERB\tO",
            ".\t.\tPUNCT\tO",
            "extra\textra\tNOUN\tO"]
    path = tmp_path / "ann.conll"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(AlignmentError) as err:
        import_external_annotations(book, path)
    assert "3" in str(err.value)


def test_import_text_mismatch_lists_divergence(tmp_path):
    book = build_book("Oliver smiled.")
    rows = ["Oliver\toliver\tPROPN\tO",
            "frowned\tfrown\tVERB\tO",
            ".\t.\tPUNCT\tO"]
    path = tmp_path / "ann.conll"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(AlignmentError) as err:
        import_external_annotations(book, path)
    assert "index 1" in str(err.value)
    assert "frowned" in str(err.value)


def test_annotate_paragraph_shares_equal_texts_and_lemmas():
    raws = ["The whale saw the whales, and the whales saw the whale.",
            "Whales! The whale and the whale-road."]
    tokens = []
    index = 0
    for raw in raws:
        paragraph = Paragraph(raw=raw, offset=0)
        index = annotate_paragraph(paragraph, index)
        tokens += [t for s in paragraph.sentences for t in s.tokens]
    for field in ("text", "lemma"):
        values = [getattr(t, field) for t in tokens
                  if getattr(t, field) is not None]
        assert len({id(v) for v in values}) == len(set(values)), field
    whales = [t for t in tokens if t.text == "whales"]
    assert len(whales) == 2 and whales[0].text is whales[1].text
    lemmas = [t.lemma for t in tokens if t.lemma == "whale"]
    assert len(lemmas) == 6 and all(lemma is lemmas[0] for lemma in lemmas)
