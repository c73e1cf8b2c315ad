"""Per-book analytics: readability, representative vocabulary, POS
distribution, and book similarity embeddings.

The eight readability metrics use the standard published formulas over the
counts produced by the baseline linguistic pass (words exclude punctuation
tokens; syllables come from the vowel-group rule; familiar-word lists are
the bundled data files). Book vectors are trained with
distributed-bag-of-words paragraph vectors and negative sampling.

numpy is imported inside the functions that compute with it, so importing
this module, as every CLI run does, does not load it.
"""

import struct
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import lexicons
from .errors import AnalyticsError, ParseError
from .linguistic import count_syllables, strip_possessive
from .store import write_if_changed
from .xml_model import ANALYZED_POS

READABILITY_METRICS = (
    "flesch_reading_ease", "dale_chall", "automated_readability_index",
    "coleman_liau", "gunning_fog", "smog", "spache", "linsear_write",
)


def _word_core(text):
    return "".join(ch for ch in strip_possessive(text).lower() if ch.isalpha())


@dataclass
class _TextStats:
    words: int = 0
    sentences: int = 0
    syllables: int = 0
    letters: int = 0
    polysyllables: int = 0          # words with >= 3 syllables
    complex_words: int = 0          # polysyllables excluding proper nouns
    dale_difficult: int = 0
    spache_unfamiliar: int = 0
    word_syllable_counts: list = None
    sentence_last_word: list = None
    pos: Counter = None             # words by POS tag
    lemmas: list = None             # the lemma sequence, as lemma_sequence


def text_stats(book, lexicon_dir=""):
    """The counts of one walk over a book's words (its non-punctuation
    tokens): what readability, the POS distribution and the lemma
    sequence are computed from."""
    dale = lexicons.dale_familiar_words(lexicon_dir)
    spache = lexicons.spache_familiar_words(lexicon_dir)
    stats = _TextStats(word_syllable_counts=[], sentence_last_word=[],
                       pos=Counter(), lemmas=[])
    # Everything but the proper-noun test depends on the token text alone,
    # and a novel repeats each text about ten times: each is checked once.
    by_text = {}
    for sentence in book.iter_sentences():
        words = [t for t in sentence.tokens if t.pos != "PUNCT"]
        if not words:
            continue
        stats.sentences += 1
        for position, token in enumerate(words):
            text = token.text
            counts = by_text.get(text)
            if counts is None:
                core = _word_core(text)
                counts = by_text[text] = (
                    sum(1 for ch in text if ch.isalnum()),
                    count_syllables(text),
                    bool(core) and core not in dale,
                    bool(core) and core not in spache)
            letters, syllables, dale_difficult, spache_unfamiliar = counts
            stats.words += 1
            stats.letters += letters
            stats.syllables += syllables
            stats.word_syllable_counts.append(syllables)
            if syllables >= 3:
                stats.polysyllables += 1
                proper = position > 0 and text[:1].isupper()
                if not proper:
                    stats.complex_words += 1
            stats.dale_difficult += dale_difficult
            stats.spache_unfamiliar += spache_unfamiliar
            stats.pos[token.pos] += 1
            if token.lemma:
                stats.lemmas.append(token.lemma)
        stats.sentence_last_word.append(stats.words - 1)
    return stats


def readability_suite(stats):
    """All eight readability metrics from a book's :func:`text_stats`."""
    if stats.words == 0 or stats.sentences == 0:
        raise AnalyticsError("readability undefined: no words or sentences")
    w, s = stats.words, stats.sentences
    wps = w / s
    scores = {
        "flesch_reading_ease": 206.835 - 1.015 * wps - 84.6 * (stats.syllables / w),
        "automated_readability_index":
            4.71 * (stats.letters / w) + 0.5 * wps - 21.43,
        "coleman_liau":
            0.0588 * (100.0 * stats.letters / w)
            - 0.296 * (100.0 * s / w) - 15.8,
        "gunning_fog": 0.4 * (wps + 100.0 * stats.complex_words / w),
        "smog": 1.0430 * (stats.polysyllables * 30.0 / s) ** 0.5 + 3.1291,
        "spache":
            0.121 * wps + 0.082 * (100.0 * stats.spache_unfamiliar / w) + 0.659,
    }
    pdw = 100.0 * stats.dale_difficult / w
    dale = 0.1579 * pdw + 0.0496 * wps
    if pdw > 5.0:
        dale += 3.6365
    scores["dale_chall"] = dale
    scores["linsear_write"] = _linsear_write(stats)
    return {name: scores[name] for name in READABILITY_METRICS}


def _linsear_write(stats, window=100):
    """Linsear Write grade averaged over consecutive 100-word windows."""
    total = stats.words
    windows = range(0, total - window + 1, window) if total >= window else [0]
    grades = []
    ends = stats.sentence_last_word
    for lo in windows:
        hi = min(lo + window, total)
        easy = hard = 0
        for syllables in stats.word_syllable_counts[lo:hi]:
            if syllables >= 3:
                hard += 1
            else:
                easy += 1
        # ``ends`` is sorted: the sentences ending inside [lo, hi).
        sentences = max(bisect_left(ends, hi) - bisect_left(ends, lo), 1)
        r = (easy * 1 + hard * 3) / sentences
        grades.append(r / 2 if r > 20 else (r - 2) / 2)
    return sum(grades) / len(grades)


# -- representative vocabulary ------------------------------------------------


def lemma_sequence(book):
    """The book's lemmas in token order: every non-punctuation token's lemma.

    The one lemma rule lives in :func:`text_stats`; :func:`lemma_counts`
    and :func:`lemma_stream` are views of this list, and the per-book lemma
    file in the store holds exactly it.
    """
    return text_stats(book).lemmas


def lemma_counts(book):
    """Counter of lemmas over non-punctuation tokens."""
    return Counter(lemma_sequence(book))


@dataclass
class VocabReport:
    most: list     # (word, ratio), highest first
    least: list    # (word, ratio), lowest first
    missing: list  # (word, corpus_count), most corpus-frequent first


@dataclass
class CommonWords:
    ranked: list  # (word, corpus count), most common first, ties by word
    total: int    # the corpus count of every word it was ranked from


def common_words(corpus_counts, top_common=10000):
    """The corpus's ``top_common`` most common words, ranked once for the
    vocabulary of every book."""
    ranked = sorted(corpus_counts.items(), key=lambda wc: (-wc[1], wc[0]))
    return CommonWords(ranked=ranked[:top_common],
                       total=sum(corpus_counts.values()))


def representative_vocabulary(book_counts, common, list_len=20):
    """Words whose in-book frequency most exceeds or trails the corpus.

    The ratio compares normalized in-book frequency against normalized
    corpus frequency over the :class:`CommonWords` ``common``. Words from
    that pool absent from the book form the separate missing list,
    ordered by corpus frequency.
    """
    book_total = sum(book_counts.values())
    if common.total == 0:
        raise AnalyticsError("empty corpus frequency model")
    if book_total == 0:
        raise AnalyticsError("book has no counted lemmas")
    present = []
    missing = []
    for word, corpus_count in common.ranked:
        book_count = book_counts.get(word, 0)
        if book_count == 0:
            missing.append((word, corpus_count))
            continue
        ratio = (book_count / book_total) / (corpus_count / common.total)
        present.append((word, ratio))
    most = sorted(present, key=lambda wr: (-wr[1], wr[0]))[:list_len]
    least = sorted(present, key=lambda wr: (wr[1], wr[0]))[:list_len]
    return VocabReport(most=most, least=least, missing=missing[:list_len])


# -- POS distribution -----------------------------------------------------------


def pos_distribution(stats):
    """Count and percentage of the eight analyzed POS categories, from a
    book's :func:`text_stats`."""
    counts = stats.pos
    total = sum(counts[tag] for tag in ANALYZED_POS)
    if total == 0:
        raise AnalyticsError("no tokens tagged with analyzed POS categories")
    return {tag: {"count": counts[tag], "percent": 100.0 * counts[tag] / total}
            for tag in ANALYZED_POS}


# -- book embeddings ------------------------------------------------------------


def lemma_stream(book, lexicon_dir=""):
    """Stop-word-stripped lemma sequence for embedding training."""
    return strip_stopwords(lemma_sequence(book), lexicon_dir=lexicon_dir)


def strip_stopwords(lemmas, lexicon_dir=""):
    """``lemmas`` without the stop words of the lexicon."""
    stop = lexicons.stopwords(lexicon_dir)
    return [lemma for lemma in lemmas if lemma not in stop]


@dataclass
class VectorStore:
    ids: list
    vectors: "numpy.ndarray"  # float32, unit rows, one per id

    def __post_init__(self):
        self.rows = {book_id: row for row, book_id in enumerate(self.ids)}

    def vector(self, book_id):
        try:
            return self.vectors[self.rows[book_id]]
        except KeyError:
            raise KeyError(f"unknown book id: {book_id}") from None

    def save(self, path, digests=None):
        """Write the store to ``path``; ``digests`` as in ``write_if_changed``."""
        write_if_changed(path, self._pieces(), digests)

    def _pieces(self):
        """The saved bytes: a header, then one piece per row."""
        yield b"BPV1" + struct.pack("<II", self.vectors.shape[1], len(self.ids))
        for book_id, row in zip(self.ids, self.vectors):
            encoded = book_id.encode("utf-8")
            yield (struct.pack("<H", len(encoded)) + encoded
                   + struct.pack(f"<{row.size}f", *row.tolist()))

    @classmethod
    def load(cls, path):
        """Read a saved store; a damaged file raises :class:`ParseError`."""
        import numpy as np

        data = Path(path).read_bytes()
        if data[:4] != b"BPV1":
            raise ParseError(f"not a vector store file: {path}")
        try:
            dim, count = struct.unpack_from("<II", data, 4)
            offset = 12
            # Each entry takes at least its length prefix and its row; check
            # before allocating so a damaged count cannot ask for huge memory.
            if count * (2 + 4 * dim) > len(data) - offset:
                raise ParseError(f"truncated vector store file: {path}")
            ids = []
            rows = np.empty((count, dim), dtype=np.float32)
            for i in range(count):
                (id_len,) = struct.unpack_from("<H", data, offset)
                offset += 2
                ids.append(data[offset:offset + id_len].decode("utf-8"))
                offset += id_len
                rows[i] = struct.unpack_from(f"<{dim}f", data, offset)
                offset += 4 * dim
        except (struct.error, UnicodeDecodeError) as exc:
            raise ParseError(f"damaged vector store file {path}: {exc}") from exc
        if offset != len(data):
            raise ParseError(f"damaged vector store file {path}: "
                             f"{len(data) - offset} trailing bytes")
        return cls(ids=ids, vectors=rows)


def _sigmoid(x):
    import numpy as np

    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def train_embeddings(streams, dim=100, epochs=10, min_count=100,
                     vocab_max=200000, negatives=5, learning_rate=0.025,
                     seed=13, batch=64):
    """Train distributed-bag-of-words book vectors with negative sampling.

    ``streams`` maps book id to its lemma stream. The vocabulary keeps the
    ``vocab_max`` most frequent words with at least ``min_count``
    occurrences; negatives draw from the unigram distribution raised to
    0.75. The learning rate decays linearly from ``learning_rate`` to 1e-4
    over the scheduled updates. Training order is fixed (sorted book ids),
    so results are deterministic given the seed and independent of the
    input dictionary order. Output vectors are unit-normalized.
    Bag-of-words training predicts every token of a document from its
    vector, so no context window applies.
    """
    import numpy as np

    ids = sorted(streams)
    if not ids:
        raise AnalyticsError("no books to train on")
    counts = Counter()
    for book_id in ids:
        counts.update(streams[book_id])
    kept = [w for w, c in counts.items() if c >= min_count]
    kept.sort(key=lambda w: (-counts[w], w))
    kept = kept[:vocab_max]
    if not kept:
        raise AnalyticsError(
            f"vocabulary empty after filters (min_count={min_count})")
    word_index = {w: i for i, w in enumerate(kept)}

    docs = []
    for book_id in ids:
        doc = np.array([word_index[w] for w in streams[book_id]
                        if w in word_index], dtype=np.int64)
        docs.append(doc)

    noise = np.array([counts[w] for w in kept], dtype=np.float64) ** 0.75
    noise_cum = np.cumsum(noise / noise.sum())

    rng = np.random.default_rng(seed)
    doc_vecs = (rng.random((len(ids), dim), dtype=np.float64) - 0.5) / dim
    word_vecs = np.zeros((len(kept), dim), dtype=np.float64)

    total_steps = epochs * sum(max(1, -(-len(d) // batch)) for d in docs)
    min_lr = 1e-4
    step = 0
    for _ in range(epochs):
        for row, doc in enumerate(docs):
            if len(doc) == 0:
                step += 1
                continue
            for lo in range(0, len(doc), batch):
                targets = doc[lo:lo + batch]
                lr = max(learning_rate * (1.0 - step / total_steps), min_lr)
                step += 1
                neg = np.searchsorted(
                    noise_cum, rng.random((len(targets), negatives)))
                d = doc_vecs[row]
                pos_out = word_vecs[targets]
                neg_out = word_vecs[neg]
                g_pos = (_sigmoid(pos_out @ d) - 1.0) * lr
                g_neg = _sigmoid(neg_out @ d) * lr
                grad_d = g_pos @ pos_out + np.einsum("mk,mkd->d", g_neg, neg_out)
                # Every word row of the batch moves along d, so its update
                # is d times the sum of its gradients: one grouped write
                # per touched row instead of one scatter per occurrence.
                rows, inverse = np.unique(
                    np.concatenate((targets, neg.ravel())), return_inverse=True)
                n = len(targets)
                coef = (np.bincount(inverse[:n], g_pos, minlength=len(rows))
                        + np.bincount(inverse[n:], g_neg.ravel(),
                                      minlength=len(rows)))
                word_vecs[rows] -= coef[:, None] * d
                doc_vecs[row] = d - grad_d

    norms = np.linalg.norm(doc_vecs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return VectorStore(ids=ids, vectors=(doc_vecs / norms).astype(np.float32))


def most_similar(book_id, store, k=10, corpus_of=None):
    """Rank other books by cosine similarity to the query book.

    With ``corpus_of`` (a book id to corpus label map) the top ``k`` are
    returned per corpus label; otherwise one flat list.
    """
    q = store.vector(book_id)
    sims = store.vectors @ q
    scored = [(other, float(sims[i])) for i, other in enumerate(store.ids)
              if other != book_id]
    scored.sort(key=lambda item: (-item[1], item[0]))
    if corpus_of is None:
        return scored[:k]
    grouped = {}
    for other, sim in scored:
        label = corpus_of.get(other, "")
        bucket = grouped.setdefault(label, [])
        if len(bucket) < k:
            bucket.append((other, sim))
    return grouped
