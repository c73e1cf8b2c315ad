import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bindery.analytics_corpus import (gender_over_time, percentile,
                                      pos_correlations, rank_share_curve,
                                      reference_distributions,
                                      sorted_percentile,
                                      top2_ratio_distribution)
from bindery.errors import AnalyticsError
from bindery.xml_model import ANALYZED_POS


# -- naive reference implementations (oracles) ------------------------------------


def percentile_naive(value, population):
    below = len([x for x in population if x < value])
    equal = len([x for x in population if x == value])
    return 100.0 * (below + 0.5 * equal) / len(population)


def pearson_naive(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return None
    return sxy / math.sqrt(sxx * syy)


# -- rank share -----------------------------------------------------------------


def test_rank_share_simple_book():
    curve = rank_share_curve([[9, 8, 7, 6, 5, 4, 3, 2, 1]])
    assert curve[0] == pytest.approx(9 / 45)
    assert sum(curve) == pytest.approx(1.0, abs=1e-12)


def test_rank_share_excludes_books_with_too_few_characters():
    with pytest.raises(AnalyticsError):
        rank_share_curve([[90, 10, 0, 0, 0, 0, 0, 0, 0]])


def test_rank_share_curve_non_increasing():
    rnd = random.Random(3)
    books = [[rnd.randint(1, 500) for _ in range(rnd.randint(9, 15))]
             for _ in range(25)]
    curve = rank_share_curve(books)
    assert all(a >= b for a, b in zip(curve, curve[1:]))
    assert sum(curve) == pytest.approx(1.0, abs=1e-9)


# -- reference distributions ---------------------------------------------------------


def test_benford_values():
    benford, _ = reference_distributions()
    assert benford[0] == pytest.approx(math.log10(2), abs=1e-6)
    assert benford[0] == pytest.approx(0.301030, abs=1e-6)
    assert sum(benford) == pytest.approx(1.0, abs=1e-9)


def test_zipf_rank_one_share():
    _, zipf = reference_distributions()
    h9 = 7129 / 2520  # harmonic number H_9
    # 2520/7129 = 0.3534858...; the 6-decimal rounding is 0.353486.
    assert zipf[0] == pytest.approx(1 / h9, abs=1e-9)
    assert zipf[0] == pytest.approx(0.353486, abs=1e-6)
    assert sum(zipf) == pytest.approx(1.0, abs=1e-9)


# -- top-2 ratios ---------------------------------------------------------------------


def test_outlier_detection():
    result = top2_ratio_distribution([("a", 2.0), ("b", 3.0), ("c", 50.0)],
                                     threshold=10)
    assert [o["id"] for o in result["outliers"]] == ["c"]
    assert sum(b["count"] for b in result["histogram"]) == 3


def test_equal_ratios_single_bin():
    result = top2_ratio_distribution([("a", 4.0), ("b", 4.0)], threshold=10)
    assert len(result["histogram"]) == 1
    assert result["histogram"][0]["count"] == 2


def test_outliers_sorted_descending():
    rnd = random.Random(9)
    items = [(f"b{i}", rnd.uniform(1, 100)) for i in range(40)]
    result = top2_ratio_distribution(items, threshold=10)
    expected = sorted([r for _, r in items if r > 10], reverse=True)
    assert [o["ratio"] for o in result["outliers"]] == expected


# -- gender over time --------------------------------------------------------------------


def test_alternating_genders_make_pure_bins():
    books = [(1800 + i, "male" if i % 2 == 0 else "female")
             for i in range(10)]
    bins = gender_over_time(books)
    values = [b["pct_male"] for b in bins]
    assert values == [100.0, 0.0, 100.0, 0.0, 100.0, 0.0, 100.0, 0.0,
                      100.0, 0.0]


def test_all_male_bins():
    books = [(1800 + i, "male") for i in range(20)]
    bins = gender_over_time(books)
    assert all(b["pct_male"] == 100.0 for b in bins)
    assert all(b["books"] == 2 for b in bins)


def test_unknown_gender_excluded_from_denominator():
    books = [(1800 + i, "male") for i in range(10)]
    books += [(1800 + i, "unknown") for i in range(10)]
    bins = gender_over_time(books)
    known = [b for b in bins if b["pct_male"] is not None]
    assert all(b["pct_male"] == 100.0 for b in known)


def test_year_ties_stay_in_earlier_bin():
    books = [(1800, "male")] * 5 + [(1900, "female")] * 5
    bins = gender_over_time(books)
    assert bins[0]["books"] == 5          # whole 1800 group pulled together
    assert bins[0]["year_hi"] == 1800
    assert sum(b["books"] for b in bins) == 10


def test_too_few_books_raises():
    with pytest.raises(AnalyticsError):
        gender_over_time([(1800, "male")] * 9)


# -- POS correlations -----------------------------------------------------------------


def rows_from_columns(columns):
    n = len(next(iter(columns.values())))
    return [{tag: columns.get(tag, [0.0] * n)[i] for tag in ANALYZED_POS}
            for i in range(n)]


def test_perfect_positive_correlation():
    rows = rows_from_columns({"NOUN": [1.0, 2.0, 3.0], "VERB": [2.0, 4.0, 6.0]})
    matrix = pos_correlations(rows)
    assert matrix["NOUN"]["VERB"] == pytest.approx(1.0)


def test_perfect_negative_correlation():
    rows = rows_from_columns({"NOUN": [1.0, 2.0, 3.0], "VERB": [3.0, 2.0, 1.0]})
    matrix = pos_correlations(rows)
    assert matrix["NOUN"]["VERB"] == pytest.approx(-1.0)


def test_constant_column_undefined():
    rows = rows_from_columns({"NOUN": [1.0, 2.0, 3.0], "VERB": [5.0, 5.0, 5.0]})
    matrix = pos_correlations(rows)
    assert matrix["NOUN"]["VERB"] is None
    assert matrix["VERB"]["VERB"] is None


def test_matrix_symmetric_with_unit_diagonal():
    rnd = random.Random(1)
    rows = [{tag: rnd.uniform(0, 40) for tag in ANALYZED_POS}
            for _ in range(12)]
    matrix = pos_correlations(rows)
    for a in ANALYZED_POS:
        assert matrix[a][a] == pytest.approx(1.0, abs=1e-12)
        for b in ANALYZED_POS:
            assert matrix[a][b] == pytest.approx(matrix[b][a], abs=1e-12)


def test_correlations_match_naive_oracle():
    rnd = random.Random(7)
    for _ in range(20):
        n = rnd.randint(3, 15)
        rows = [{tag: rnd.uniform(0, 100) for tag in ANALYZED_POS}
                for _ in range(n)]
        matrix = pos_correlations(rows)
        for a in ANALYZED_POS:
            for b in ANALYZED_POS:
                expected = pearson_naive([r[a] for r in rows],
                                         [r[b] for r in rows])
                assert matrix[a][b] == pytest.approx(expected, abs=1e-12)


def test_fewer_than_three_books_raises():
    rows = rows_from_columns({"NOUN": [1.0, 2.0]})
    with pytest.raises(AnalyticsError):
        pos_correlations(rows)


# -- percentile -----------------------------------------------------------------------


def test_percentile_median_of_1_to_100():
    population = list(range(1, 101))
    assert percentile(50, population) == pytest.approx(49.5)


def test_percentile_minimum_and_maximum():
    population = [1.0, 2.0, 3.0, 4.0]
    assert percentile(1.0, population) == pytest.approx(0.5 * 100 / 4)
    assert percentile(99.0, population) == 100.0


def test_percentile_empty_population_raises():
    with pytest.raises(AnalyticsError):
        percentile(1.0, [])


def test_percentile_matches_naive_oracle():
    rnd = random.Random(11)
    for _ in range(50):
        population = [rnd.randint(0, 30) for _ in range(rnd.randint(1, 40))]
        value = rnd.randint(0, 30)
        assert percentile(value, population) == pytest.approx(
            percentile_naive(value, population), abs=1e-12)


# Few distinct values, so populations hold ties and values fall on them.
_TIED = st.sampled_from([0.0, 12.5, 12.5000001, 33.3, 50.0, 100.0])


@given(st.lists(st.one_of(_TIED, st.floats(min_value=0, max_value=100)),
                min_size=1, max_size=60),
       st.one_of(_TIED, st.floats(min_value=-1, max_value=101)))
def test_sorted_percentile_equals_the_population_scan(population, value):
    expected = percentile_naive(value, population)
    assert sorted_percentile(value, sorted(population)) == expected
    assert percentile(value, population) == expected


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                max_size=50),
       st.floats(min_value=-1e6, max_value=1e6),
       st.floats(min_value=-1e6, max_value=1e6))
def test_percentile_monotone(population, a, b):
    lo, hi = min(a, b), max(a, b)
    assert percentile(lo, population) <= percentile(hi, population)
