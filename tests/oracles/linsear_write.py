"""Full-scan oracle for ``analytics_book._linsear_write``.

The Linsear Write grade as it was before the sentence ends of each
100-word window were counted by bisection: every window scans every
sentence end. Kept to check the bisecting version against.
"""


def linsear_write(stats, window=100):
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
        sentences = sum(1 for end in ends if lo <= end < hi)
        sentences = max(sentences, 1)
        r = (easy * 1 + hard * 3) / sentences
        grades.append(r / 2 if r > 20 else (r - 2) / 2)
    return sum(grades) / len(grades)
