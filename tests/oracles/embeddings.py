"""Scatter-add oracle for ``analytics_book.train_embeddings``.

The PV-DBOW trainer as it was before each batch's word-row update was
grouped by row: every target and every negative sample adds its own
``-g * d`` to its row through ``np.add.at``, one occurrence at a time.
Kept to check the grouped version against.
"""

from collections import Counter

import numpy as np

from bindery.analytics_book import VectorStore, _sigmoid
from bindery.errors import AnalyticsError


def train_embeddings(streams, dim=100, epochs=10, min_count=100,
                     vocab_max=200000, negatives=5, learning_rate=0.025,
                     seed=13, batch=64):
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
                np.add.at(word_vecs, targets, -g_pos[:, None] * d)
                np.add.at(word_vecs, neg.reshape(-1),
                          -(g_neg.reshape(-1, 1)) * d)
                doc_vecs[row] = d - grad_d

    norms = np.linalg.norm(doc_vecs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return VectorStore(ids=ids, vectors=(doc_vecs / norms).astype(np.float32))
