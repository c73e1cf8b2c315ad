"""Per-token oracle for ``analytics_book._collect_stats``.

The readability counts as they were before letters, syllables and the
familiar-word checks were computed once per distinct token text: every
check redone for every token. Kept to check the per-text version against.
"""

from bindery import lexicons
from bindery.analytics_book import _TextStats, _word_core
from bindery.linguistic import count_syllables


def collect_stats(book, lexicon_dir=""):
    dale = lexicons.dale_familiar_words(lexicon_dir)
    spache = lexicons.spache_familiar_words(lexicon_dir)
    stats = _TextStats(word_syllable_counts=[], sentence_last_word=[])
    for sentence in book.iter_sentences():
        words = [t for t in sentence.tokens if t.pos != "PUNCT"]
        if not words:
            continue
        stats.sentences += 1
        for position, token in enumerate(words):
            stats.words += 1
            stats.letters += sum(1 for ch in token.text if ch.isalnum())
            syllables = count_syllables(token.text)
            stats.syllables += syllables
            stats.word_syllable_counts.append(syllables)
            if syllables >= 3:
                stats.polysyllables += 1
                proper = position > 0 and token.text[:1].isupper()
                if not proper:
                    stats.complex_words += 1
            core = _word_core(token.text)
            if core and core not in dale:
                stats.dale_difficult += 1
            if core and core not in spache:
                stats.spache_unfamiliar += 1
        stats.sentence_last_word.append(stats.words - 1)
    return stats
