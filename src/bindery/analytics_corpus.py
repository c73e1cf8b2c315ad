"""Corpus-level aggregates.

Rank-share curves with Benford/Zipf reference distributions, the top-2
mention ratio distribution with outliers, protagonist gender over
publication time, pairwise POS correlations, and percentile placement of a
book within a population. numpy is imported only by the functions that
use it.
"""

import bisect
import math

from .errors import AnalyticsError
from .xml_model import ANALYZED_POS


def rank_share_curve(per_book_counts, ranks=9):
    """Mean share of mentions by character rank, over qualifying books.

    Each book must have at least ``ranks`` characters with nonzero mention
    counts; its shares normalize over the top ``ranks`` counts so they sum
    to one, mirroring the reference distributions.
    """
    sums = [0.0] * ranks
    books = 0
    for counts in per_book_counts:
        nonzero = sorted((c for c in counts if c > 0), reverse=True)
        if len(nonzero) < ranks:
            continue
        top = nonzero[:ranks]
        total = sum(top)
        for r, count in enumerate(top):
            sums[r] += count / total
        books += 1
    if books == 0:
        raise AnalyticsError(f"no books with at least {ranks} characters")
    return [s / books for s in sums]


def reference_distributions(ranks=9):
    """Benford and Zipf share vectors for the given number of ranks."""
    if ranks < 1:
        raise AnalyticsError("ranks must be at least 1")
    benford = [math.log10(1.0 + 1.0 / d) for d in range(1, ranks + 1)]
    harmonic = sum(1.0 / r for r in range(1, ranks + 1))
    zipf = [(1.0 / r) / harmonic for r in range(1, ranks + 1)]
    return benford, zipf


def top2_ratio_distribution(items, threshold=10.0, bins=20):
    """Histogram of top-2 mention ratios plus books above the threshold.

    ``items`` is a list of ``(book_id, ratio)`` pairs. Bins are log-spaced
    between the smallest and largest ratio; identical ratios collapse to a
    single bin. Outliers are returned largest ratio first.
    """
    ratios = [ratio for _, ratio in items]
    outliers = sorted(
        ({"id": book_id, "ratio": ratio} for book_id, ratio in items
         if ratio > threshold),
        key=lambda row: (-row["ratio"], row["id"]))
    if not ratios:
        return {"histogram": [], "outliers": []}
    lo, hi = min(ratios), max(ratios)
    if lo == hi:
        histogram = [{"lo": lo, "hi": hi, "count": len(ratios)}]
        return {"histogram": histogram, "outliers": outliers}
    import numpy as np

    edges = np.logspace(math.log10(lo), math.log10(hi), bins + 1)
    edges[0], edges[-1] = lo, hi
    counts = [0] * bins
    for ratio in ratios:
        slot = int(np.searchsorted(edges, ratio, side="right")) - 1
        counts[min(max(slot, 0), bins - 1)] += 1
    histogram = [{"lo": float(edges[i]), "hi": float(edges[i + 1]),
                  "count": counts[i]} for i in range(bins)]
    return {"histogram": histogram, "outliers": outliers}


def gender_over_time(books, bins=10):
    """Percentage of male protagonists across equal-count year bins.

    ``books`` is a list of ``(year, protagonist_gender)`` pairs; all years
    must be present. Books sort by year and split into ``bins`` equal
    subsets; books sharing a year never split across bins (the tie group
    stays in the earlier bin). Unknown-gender protagonists stay in the bin
    but drop out of the percentage denominator.
    """
    if len(books) < bins:
        raise AnalyticsError(
            f"need at least {bins} books with years, have {len(books)}")
    ordered = sorted(books, key=lambda item: item[0])
    n = len(ordered)
    base, remainder = divmod(n, bins)
    out = []
    start = 0
    for b in range(bins):
        size = base + (1 if b < remainder else 0)
        end = max(start, min(start + size, n))
        while 0 < end < n and ordered[end][0] == ordered[end - 1][0]:
            end += 1
        chunk = ordered[start:end]
        known = [g for _, g in chunk if g in ("male", "female")]
        out.append({
            "year_lo": chunk[0][0] if chunk else None,
            "year_hi": chunk[-1][0] if chunk else None,
            "books": len(chunk),
            "pct_male": (100.0 * sum(1 for g in known if g == "male") / len(known)
                         if known else None),
        })
        start = end
    return out


def pos_correlations(per_book_percentages):
    """Pairwise Pearson correlations of the eight POS percentage columns.

    ``per_book_percentages`` is a list of mappings tag -> percent. Entries
    for zero-variance categories are None; the matrix is keyed by the
    analyzed tag order.
    """
    if len(per_book_percentages) < 3:
        raise AnalyticsError("need at least 3 books for POS correlations")
    import numpy as np

    data = np.array([[row[tag] for tag in ANALYZED_POS]
                     for row in per_book_percentages], dtype=np.float64)
    centered = data - data.mean(axis=0)
    norms = np.sqrt((centered ** 2).sum(axis=0))
    matrix = {}
    for i, tag_i in enumerate(ANALYZED_POS):
        row = {}
        for j, tag_j in enumerate(ANALYZED_POS):
            if norms[i] == 0.0 or norms[j] == 0.0:
                row[tag_j] = None
            else:
                row[tag_j] = float(
                    (centered[:, i] @ centered[:, j]) / (norms[i] * norms[j]))
        matrix[tag_i] = row
    return matrix


def percentile(value, population):
    """Midpoint-convention percentile of ``value`` within ``population``."""
    return sorted_percentile(value, sorted(population))


def sorted_percentile(value, ordered):
    """:func:`percentile` in a population sorted ascending, by bisection."""
    if len(ordered) == 0:
        raise AnalyticsError("empty population")
    below = bisect.bisect_left(ordered, value)
    equal = bisect.bisect_right(ordered, value) - below
    return 100.0 * (below + 0.5 * equal) / len(ordered)
