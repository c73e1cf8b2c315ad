"""Whole-set oracle for ``dedup.fingerprint``.

The MinHash signature as it was computed before shingles were hashed a
fixed block at a time: every word of the text in one list, the shingle
set built whole, and the multiply-shift hashes applied 4096 shingles at a
time with fresh temporaries. Kept to check the block version against.
"""

import numpy as np

from bindery.dedup import (BASE_SEED, NUM_HASHES, SHINGLE_SIZE, _NON_ALNUM,
                           _base_hashes, _hash_params, strip_diacritics)
from bindery.errors import TooShortError


def shingle_set(text, shingle_size=SHINGLE_SIZE):
    words = _NON_ALNUM.sub(" ", strip_diacritics(text).lower()).split()
    if len(words) < shingle_size:
        raise TooShortError(
            f"text has {len(words)} words, need at least {shingle_size}")
    return {" ".join(words[i:i + shingle_size])
            for i in range(len(words) - shingle_size + 1)}


def signature(text, num_hashes=NUM_HASHES, shingle_size=SHINGLE_SIZE,
              seed=BASE_SEED):
    base = _base_hashes(shingle_set(text, shingle_size=shingle_size))
    a, b = _hash_params(num_hashes, seed)
    sig = np.full(num_hashes, np.iinfo(np.uint64).max, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for lo in range(0, len(base), 4096):
            chunk = base[lo:lo + 4096]
            hashed = chunk[:, None] * a[None, :] + b[None, :]
            sig = np.minimum(sig, hashed.min(axis=0))
    return tuple(int(v) for v in sig)
