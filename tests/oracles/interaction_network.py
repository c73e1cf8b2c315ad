"""Per-pair oracle for the character interaction network.

The network as it was built before the one-sweep version: every
id-ordered pair of characters bisects one character's mentions into the
other's, so the cost grows with the square of the character count. Kept
to check the sweep against.
"""

from bisect import bisect_left, bisect_right


def build_interaction_network(records, window=30, min_co=5):
    nodes = [{"id": r.id, "name": r.canonical_name, "count": r.count,
              "gender": r.gender} for r in sorted(records, key=lambda r: r.id)]
    edges = []
    ordered = sorted(records, key=lambda r: r.id)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            weight = _co_count(a.mention_token_indices,
                               b.mention_token_indices, window)
            if weight > min_co:
                edges.append({"a": a.id, "b": b.id, "weight": weight})
    return {"nodes": nodes, "edges": edges}


def _co_count(a_positions, b_positions, window):
    count = 0
    for a in a_positions:
        lo = bisect_left(b_positions, a - window)
        hi = bisect_right(b_positions, a + window)
        count += hi - lo
    return count
