"""All-pairs oracle for ``dedup.dedup_corpus``.

Grouping as it was done before the index kept each book's matches: every
pair of fingerprinted entries is tested, in id order, by title and author
and then by estimated content similarity. Kept to check the incremental
version against.
"""

from bindery.dedup import estimate_similarity


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def dedup_corpus(index, title_author_match=True, content_threshold=0.8):
    entries = index.entries
    order = sorted(range(len(entries)), key=lambda i: entries[i].book_id)
    uf = _UnionFind(len(entries))
    for oi in range(len(order)):
        i = order[oi]
        fp_i = entries[i].fingerprint
        if fp_i is None:
            continue
        for oj in range(oi + 1, len(order)):
            j = order[oj]
            fp_j = entries[j].fingerprint
            if fp_j is None:
                continue
            same_meta = (title_author_match
                         and fp_i.normalized_title
                         and fp_i.normalized_author
                         and fp_i.normalized_title == fp_j.normalized_title
                         and fp_i.normalized_author == fp_j.normalized_author)
            if same_meta or estimate_similarity(fp_i, fp_j) >= content_threshold:
                uf.union(i, j)

    groups = {}
    for i in range(len(entries)):
        groups.setdefault(uf.find(i), []).append(i)
    for members in groups.values():
        if len(members) < 2:
            entries[members[0]].representative_of = None
            continue
        rep = min(members,
                  key=lambda i: (-entries[i].text_length, entries[i].book_id))
        for i in members:
            entries[i].representative_of = (
                None if i == rep else entries[rep].book_id)
    return index
