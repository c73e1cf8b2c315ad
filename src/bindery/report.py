"""Static report emission: per-book and corpus JSON/HTML with inline SVG.

Every output is a deterministic function of its inputs: JSON is dumped
with sorted keys, SVG uses a fixed 800x400 canvas with 3-decimal
coordinates, and HTML inlines all charts and styles so the files are fully
self-contained. Re-running emission over unchanged inputs produces
byte-identical files.
"""

import hashlib
import html
import json
import math
import os
from pathlib import Path

from .errors import ChartError

CANVAS_W = 800
CANVAS_H = 400
MARGIN_L = 60
MARGIN_R = 30
MARGIN_T = 40
MARGIN_B = 50
PLOT_W = CANVAS_W - MARGIN_L - MARGIN_R
PLOT_H = CANVAS_H - MARGIN_T - MARGIN_B

PALETTE = ("#4878b0", "#d65f5f", "#6aa84f", "#e69138", "#8e63ce",
           "#45818e", "#a64d79", "#7f7f7f", "#c27ba0", "#674ea7")
GENDER_COLORS = {"male": "#4878b0", "female": "#e78ac3", "unknown": "#9e9e9e"}

# Written by corpus-stats, read by report, and re-emitted unchanged here.
CORPUS_JSON = "corpus.json"


def _fmt(value):
    return f"{value:.3f}"


def _check_finite(values):
    for v in values:
        if v is None:
            continue
        if not math.isfinite(v):
            raise ChartError(f"non-finite chart value: {v!r}")


def _svg_open(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" '
        f'height="{CANVAS_H}" viewBox="0 0 {CANVAS_W} {CANVAS_H}" '
        f'font-family="Georgia, serif">',
        f'<text x="{CANVAS_W // 2}" y="24" text-anchor="middle" '
        f'font-size="16">{html.escape(title)}</text>',
    ]


def _axes(parts):
    x0, y0 = MARGIN_L, CANVAS_H - MARGIN_B
    parts.append(f'<line x1="{x0}" y1="{MARGIN_T}" x2="{x0}" y2="{y0}" '
                 'stroke="#333" stroke-width="1"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{CANVAS_W - MARGIN_R}" '
                 f'y2="{y0}" stroke="#333" stroke-width="1"/>')


def render_svg_chart(spec):
    """Render one chart spec to SVG text.

    ``spec`` is a mapping with a ``kind`` of line, bar, scatter, graph, or
    heatmap plus kind-specific data; see the renderers below. All numeric
    data must be finite.
    """
    kind = spec.get("kind")
    renderers = {
        "line": _render_line,
        "bar": _render_bar,
        "scatter": _render_scatter,
        "graph": _render_graph,
        "heatmap": _render_heatmap,
    }
    if kind not in renderers:
        raise ChartError(f"unknown chart kind: {kind!r}")
    parts = _svg_open(spec.get("title", ""))
    renderers[kind](spec, parts)
    parts.append("</svg>")
    return "\n".join(parts)


def _y_scale(lo, hi):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo

    def scale(v):
        return CANVAS_H - MARGIN_B - (v - lo) / span * PLOT_H

    return scale, lo, hi


def _y_ticks(parts, scale, lo, hi, fmt=None):
    fmt = fmt or (lambda v: f"{v:.2f}")
    for i in range(5):
        v = lo + (hi - lo) * i / 4
        y = scale(v)
        parts.append(f'<line x1="{MARGIN_L - 4}" y1="{_fmt(y)}" '
                     f'x2="{MARGIN_L}" y2="{_fmt(y)}" stroke="#333"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" '
                     f'text-anchor="end" font-size="11">{fmt(v)}</text>')


def _render_line(spec, parts):
    """series: [{label, ys, color?}]; shared integer x positions 0..n-1."""
    series = spec.get("series", [])
    for s in series:
        _check_finite(s.get("ys", []))
    _axes(parts)
    values = [y for s in series for y in s.get("ys", [])]
    if not values:
        return
    scale, lo, hi = _y_scale(min(min(values), 0.0), max(values))
    _y_ticks(parts, scale, lo, hi)
    n = max(len(s.get("ys", [])) for s in series)
    x_labels = spec.get("x_labels") or [str(i + 1) for i in range(n)]

    def x_at(i):
        if n == 1:
            return MARGIN_L + PLOT_W / 2
        return MARGIN_L + PLOT_W * i / (n - 1)

    for i, label in enumerate(x_labels[:n]):
        parts.append(f'<text x="{_fmt(x_at(i))}" y="{CANVAS_H - MARGIN_B + 16}" '
                     f'text-anchor="middle" font-size="11">'
                     f"{html.escape(str(label))}</text>")
    for idx, s in enumerate(series):
        color = s.get("color") or PALETTE[idx % len(PALETTE)]
        ys = s.get("ys", [])
        if not ys:
            continue
        points = " L ".join(f"{_fmt(x_at(i))},{_fmt(scale(y))}"
                            for i, y in enumerate(ys))
        dash = ' stroke-dasharray="6 4"' if s.get("dashed") else ""
        parts.append(f'<path d="M {points}" fill="none" stroke="{color}" '
                     f'stroke-width="2"{dash}/>')
        label_y = MARGIN_T + 14 * (idx + 1)
        parts.append(f'<line x1="{CANVAS_W - 170}" y1="{label_y - 4}" '
                     f'x2="{CANVAS_W - 150}" y2="{label_y - 4}" '
                     f'stroke="{color}" stroke-width="2"{dash}/>')
        parts.append(f'<text x="{CANVAS_W - 144}" y="{label_y}" font-size="11">'
                     f"{html.escape(s.get('label', ''))}</text>")


def _render_bar(spec, parts):
    """values: [(label, value)]; optional overlay: [(label, value)] line."""
    values = spec.get("values", [])
    _check_finite([v for _, v in values])
    overlay = spec.get("overlay") or []
    _check_finite([v for _, v in overlay])
    _axes(parts)
    if not values:
        return
    hi = max([v for _, v in values] + [v for _, v in overlay] + [0.0])
    scale, lo, hi = _y_scale(0.0, hi)
    _y_ticks(parts, scale, lo, hi)
    n = len(values)
    slot = PLOT_W / n
    bar_w = slot * 0.6
    for i, (label, value) in enumerate(values):
        x = MARGIN_L + slot * i + (slot - bar_w) / 2
        y = scale(value)
        height = CANVAS_H - MARGIN_B - y
        parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" '
                     f'height="{_fmt(height)}" fill="{PALETTE[0]}"/>')
        parts.append(f'<text x="{_fmt(x + bar_w / 2)}" '
                     f'y="{CANVAS_H - MARGIN_B + 16}" text-anchor="middle" '
                     f'font-size="11">{html.escape(str(label))}</text>')
    if overlay:
        points = " L ".join(
            f"{_fmt(MARGIN_L + slot * i + slot / 2)},{_fmt(scale(v))}"
            for i, (_, v) in enumerate(overlay))
        parts.append(f'<path d="M {points}" fill="none" stroke="{PALETTE[1]}" '
                     'stroke-width="2" stroke-dasharray="6 4"/>')


def _render_scatter(spec, parts):
    """rows: [{label, positions, color?}] on [0,1]; vlines: dashed verticals."""
    rows = spec.get("rows", [])
    for row in rows:
        _check_finite(row.get("positions", []))
    vlines = spec.get("vlines", [])
    _check_finite(vlines)
    _axes(parts)
    for x in vlines:
        px = MARGIN_L + x * PLOT_W
        parts.append(f'<line x1="{_fmt(px)}" y1="{MARGIN_T}" x2="{_fmt(px)}" '
                     f'y2="{CANVAS_H - MARGIN_B}" stroke="#888" '
                     'stroke-width="1" stroke-dasharray="4 3"/>')
    if not rows:
        return
    step = PLOT_H / (len(rows) + 1)
    for i, row in enumerate(rows):
        y = MARGIN_T + step * (i + 1)
        color = row.get("color") or PALETTE[i % len(PALETTE)]
        parts.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 3)}" '
                     f'text-anchor="end" font-size="11">'
                     f"{html.escape(row.get('label', ''))}</text>")
        for x in row.get("positions", []):
            parts.append(f'<circle cx="{_fmt(MARGIN_L + x * PLOT_W)}" '
                         f'cy="{_fmt(y)}" r="2" fill="{color}"/>')


def _render_graph(spec, parts):
    """Circular layout: nodes ordered by id, radius from mention count."""
    nodes = sorted(spec.get("nodes", []), key=lambda n: n["id"])
    edges = spec.get("edges", [])
    _check_finite([n.get("count", 0) for n in nodes])
    _check_finite([e.get("weight", 0) for e in edges])
    if not nodes:
        return
    cx, cy, ring = CANVAS_W / 2, MARGIN_T + PLOT_H / 2 + 10, PLOT_H / 2 - 16
    place = {}
    for i, node in enumerate(nodes):
        angle = -math.pi / 2 + 2 * math.pi * i / len(nodes)
        place[node["id"]] = (cx + ring * math.cos(angle),
                             cy + ring * math.sin(angle))
    max_weight = max([e["weight"] for e in edges], default=1)
    for edge in sorted(edges, key=lambda e: (e["a"], e["b"])):
        (x1, y1), (x2, y2) = place[edge["a"]], place[edge["b"]]
        width = 0.8 + 2.4 * edge["weight"] / max_weight
        parts.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                     f'y2="{_fmt(y2)}" stroke="#bbb" '
                     f'stroke-width="{_fmt(width)}"/>')
    max_count = max([n.get("count", 1) for n in nodes] + [1])
    for node in nodes:
        x, y = place[node["id"]]
        radius = 6 + 20 * math.sqrt(node.get("count", 1) / max_count)
        color = GENDER_COLORS.get(node.get("gender", "unknown"),
                                  GENDER_COLORS["unknown"])
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" '
                     f'r="{_fmt(radius)}" fill="{color}" stroke="#333"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(y + radius + 12)}" '
                     f'text-anchor="middle" font-size="11">'
                     f"{html.escape(node.get('name', ''))}</text>")


def _heat_color(value):
    # -1 -> blue, 0 -> white, +1 -> red.
    if value is None:
        return "#d9d9d9"
    v = max(-1.0, min(1.0, value))
    if v >= 0:
        other = int(round(255 * (1 - v)))
        return f"#ff{other:02x}{other:02x}"
    other = int(round(255 * (1 + v)))
    return f"#{other:02x}{other:02x}ff"


def _render_heatmap(spec, parts):
    """labels + square matrix of values in [-1, 1]; None cells are gray."""
    labels = spec.get("labels", [])
    matrix = spec.get("matrix", [])
    for row in matrix:
        _check_finite(row)
    n = len(labels)
    if n == 0:
        _axes(parts)
        return
    cell = min(PLOT_W / n, PLOT_H / n)
    x0 = MARGIN_L + (PLOT_W - cell * n) / 2
    y0 = MARGIN_T + (PLOT_H - cell * n) / 2 + 6
    for i, label in enumerate(labels):
        parts.append(f'<text x="{_fmt(x0 - 6)}" '
                     f'y="{_fmt(y0 + cell * i + cell / 2 + 4)}" '
                     f'text-anchor="end" font-size="11">'
                     f"{html.escape(str(label))}</text>")
        parts.append(f'<text x="{_fmt(x0 + cell * i + cell / 2)}" '
                     f'y="{_fmt(y0 + cell * n + 14)}" text-anchor="middle" '
                     f'font-size="11">{html.escape(str(label))}</text>')
    for i in range(n):
        for j in range(n):
            value = matrix[i][j]
            parts.append(
                f'<rect x="{_fmt(x0 + cell * j)}" y="{_fmt(y0 + cell * i)}" '
                f'width="{_fmt(cell)}" height="{_fmt(cell)}" '
                f'fill="{_heat_color(value)}" stroke="#fff"/>')
            if value is not None:
                parts.append(
                    f'<text x="{_fmt(x0 + cell * j + cell / 2)}" '
                    f'y="{_fmt(y0 + cell * i + cell / 2 + 4)}" '
                    f'text-anchor="middle" font-size="10">{value:.2f}</text>')


# -- file helpers -----------------------------------------------------------------


def dump_json(payload, path, digests=None):
    """Write canonical JSON; returns True when the file content changed."""
    return write_if_changed(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n", digests)


def write_if_changed(path, content, digests=None):
    """Write text or bytes only when they differ, preserving timestamps on no-ops.

    A write is atomic: the bytes go to a temporary file in the same
    directory, which then replaces ``path``, so a killed run leaves the
    old file or the new one, never a truncated one. The temporary file is
    created like any other file, so the result has the usual mode.
    ``digests``, a dict of file digests by path, gets the hex SHA-256 of
    ``content``, which the file holds once this returns.
    """
    path = Path(path)
    data = content.encode("utf-8") if isinstance(content, str) else content
    if digests is not None:
        digests[path] = hashlib.sha256(data).hexdigest()
    if path.exists() and path.read_bytes() == data:
        return False
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return True


# -- HTML assembly ----------------------------------------------------------------

_PAGE_STYLE = """
body { font-family: Georgia, serif; margin: 2em auto; max-width: 900px;
       color: #222; }
h1 { border-bottom: 2px solid #444; padding-bottom: 0.2em; }
h2 { margin-top: 1.6em; color: #333; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #aaa; padding: 4px 10px; text-align: left;
         font-size: 14px; }
th { background: #eee; }
figure { margin: 1em 0; }
.cols { display: flex; gap: 2em; }
.cols ul { padding-left: 1.2em; }
""".strip()


def _page(title, body_parts):
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
        "<meta charset=\"utf-8\"/>\n"
        f"<title>{html.escape(title)}</title>\n"
        f"<style>\n{_PAGE_STYLE}\n</style>\n"
        "</head>\n<body>\n" + "\n".join(body_parts) + "\n</body>\n</html>\n")


def _character_table(characters):
    rows = ["<table>", "<tr><th>Character</th><th>Gender</th><th>Mentions</th>"
            "<th>gcc</th><th>fpcc</th><th>spcc</th><th>Aliases</th></tr>"]
    for c in characters:
        aliases = ", ".join(
            f"{html.escape(a)} ({n})"
            for a, n in sorted(c["aliases"].items(), key=lambda kv: (-kv[1], kv[0])))
        rows.append(
            f"<tr><td>{html.escape(c['name'])}</td><td>{c['gender']}</td>"
            f"<td>{c['count']}</td><td>{c['gcc']}</td><td>{c['fpcc']}</td>"
            f"<td>{c['spcc']}</td><td>{aliases}</td></tr>")
    rows.append("</table>")
    return "\n".join(rows)


def emit_book_report(payload, out_dir, digests=None):
    """Write book.json and a self-contained index.html for one book.

    ``payload`` is the per-book analytics document (schemas/book.schema.json)
    and ``digests`` that of ``write_if_changed``. Returns the two paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "book.json"
    dump_json(payload, json_path, digests)

    title = payload["meta"].get("title") or payload["id"]
    author = payload["meta"].get("author") or "unknown author"
    parts = [f"<h1>{html.escape(title)}</h1>",
             f"<p>by {html.escape(author)}"
             + (f", {payload['meta']['year']}" if payload["meta"].get("year")
                else "") + "</p>"]

    counts = payload.get("counts", {})
    parts.append(
        "<p>" + " &middot; ".join(
            f"{counts.get(k, 0):,} {k}" for k in
            ("sections", "paragraphs", "sentences", "tokens")) + "</p>")

    characters = payload.get("characters", [])
    if characters:
        parts.append("<h2>Characters</h2>")
        parts.append(_character_table(characters))
        if payload.get("top2_ratio") is not None:
            parts.append(f"<p>Top-2 mention ratio: "
                         f"{payload['top2_ratio']:.2f}</p>")

    timeline = payload.get("timeline")
    if timeline and timeline.get("characters"):
        parts.append("<h2>Character occurrences</h2>")
        parts.append("<figure>" + render_svg_chart({
            "kind": "scatter",
            "title": "Mention positions (dashed lines mark chapter breaks)",
            "rows": [{"label": row["name"], "positions": row["positions"],
                      "color": GENDER_COLORS.get(row.get("gender", "unknown"))}
                     for row in timeline["characters"]],
            "vlines": timeline.get("chapter_breaks", []),
        }) + "</figure>")

    network = payload.get("network")
    if network and network.get("nodes"):
        parts.append("<h2>Interaction network</h2>")
        parts.append("<figure>" + render_svg_chart({
            "kind": "graph",
            "title": "Character interactions (blue male, pink female)",
            "nodes": network["nodes"],
            "edges": network.get("edges", []),
        }) + "</figure>")

    placement = payload.get("placement")
    if placement and placement.get("gender_pct") is not None:
        g = placement["gender_pct"]
        parts.append("<h2>Gender distribution placement</h2>")
        parts.append(
            f"<p>{g['male']:.1f}% of this book's characters are male "
            f"({g['female']:.1f}% female), placing it at the "
            f"{g['percentile_male']:.1f}th percentile of the corpus for "
            "male-character share.</p>")

    similar = payload.get("similar")
    if similar:
        parts.append("<h2>Most similar books</h2>")
        for corpus_label in sorted(similar):
            entries = similar[corpus_label]
            label = corpus_label or "corpus"
            items = "".join(
                f"<li>{html.escape(other)} (cosine {sim:.3f})</li>"
                for other, sim in entries)
            parts.append(f"<h3>{html.escape(label)}</h3><ol>{items}</ol>")

    vocabulary = payload.get("vocabulary")
    if vocabulary:
        parts.append("<h2>Representative vocabulary</h2>")
        cols = []
        for key, header in (("most", "Most representative"),
                            ("least", "Least representative"),
                            ("missing", "Missing")):
            entries = vocabulary.get(key, [])
            if key == "missing":
                items = "".join(f"<li>{html.escape(w)}</li>"
                                for w, _ in entries)
            else:
                items = "".join(f"<li>{html.escape(w)} ({r:.2f})</li>"
                                for w, r in entries)
            cols.append(f"<div><h3>{header}</h3><ul>{items}</ul></div>")
        parts.append('<div class="cols">' + "".join(cols) + "</div>")

    pos = payload.get("pos")
    if pos:
        parts.append("<h2>Part-of-speech distribution</h2>")
        overlay = None
        if placement and placement.get("pos_mean"):
            means = placement["pos_mean"]
            if all(tag in means for tag in pos):
                overlay = [(tag, means[tag]) for tag in sorted(pos)]
        parts.append("<figure>" + render_svg_chart({
            "kind": "bar",
            "title": "POS percentages"
                     + (" (dashed: corpus mean)" if overlay else ""),
            "values": [(tag, pos[tag]["percent"]) for tag in sorted(pos)],
            "overlay": overlay,
        }) + "</figure>")
        if placement and placement.get("pos_percentiles"):
            rows = ["<table>", "<tr><th>POS</th><th>Count</th><th>Percent</th>"
                    "<th>Corpus percentile</th></tr>"]
            for tag in sorted(pos):
                pct = placement["pos_percentiles"].get(tag)
                pct_text = f"{pct:.1f}" if pct is not None else "-"
                rows.append(f"<tr><td>{tag}</td><td>{pos[tag]['count']}</td>"
                            f"<td>{pos[tag]['percent']:.2f}</td>"
                            f"<td>{pct_text}</td></tr>")
            rows.append("</table>")
            parts.append("\n".join(rows))

    readability = payload.get("readability")
    if readability:
        parts.append("<h2>Readability</h2>")
        rows = ["<table>", "<tr><th>Metric</th><th>Score</th></tr>"]
        for metric in sorted(readability):
            rows.append(f"<tr><td>{metric}</td>"
                        f"<td>{readability[metric]:.3f}</td></tr>")
        rows.append("</table>")
        parts.append("\n".join(rows))

    html_path = out_dir / "index.html"
    write_if_changed(html_path, _page(title, parts), digests)
    return json_path, html_path


def emit_corpus_report(stats, out_dir, digests=None):
    """Write corpus.json, corpus.html, and author/subject index pages."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / CORPUS_JSON
    dump_json(stats, json_path, digests)

    parts = ["<h1>Corpus overview</h1>",
             f"<p>{len(stats.get('books', []))} books analyzed.</p>"]

    rank_share = stats.get("rank_share")
    if rank_share and rank_share.get("observed"):
        parts.append("<h2>Character rank share</h2>")
        parts.append("<figure>" + render_svg_chart({
            "kind": "line",
            "title": "Mean mention share by character rank",
            "series": [
                {"label": "observed", "ys": rank_share["observed"]},
                {"label": "Benford", "ys": rank_share["benford"], "dashed": True},
                {"label": "Zipf", "ys": rank_share["zipf"], "dashed": True},
            ],
        }) + "</figure>")

    top2 = stats.get("top2")
    if top2 and top2.get("outliers") is not None:
        parts.append("<h2>Top-2 mention ratio outliers</h2>")
        rows = ["<table>", "<tr><th>Book</th><th>Ratio</th></tr>"]
        for outlier in top2["outliers"]:
            rows.append(f"<tr><td>{html.escape(outlier['id'])}</td>"
                        f"<td>{outlier['ratio']:.2f}</td></tr>")
        rows.append("</table>")
        parts.append("\n".join(rows))

    gender_bins = stats.get("gender_over_time")
    if gender_bins:
        known = [(i, row) for i, row in enumerate(gender_bins)
                 if row.get("pct_male") is not None]
        if known:
            parts.append("<h2>Protagonist gender over time</h2>")
            parts.append("<figure>" + render_svg_chart({
                "kind": "line",
                "title": "Percentage of male protagonists by publication year",
                "series": [{"label": "% male",
                            "ys": [row["pct_male"] for _, row in known]}],
                "x_labels": [f"{row['year_lo']}-{row['year_hi']}"
                             for _, row in known],
            }) + "</figure>")

    correlations = stats.get("pos_correlations")
    if correlations:
        labels = sorted(correlations)
        parts.append("<h2>POS correlations</h2>")
        parts.append("<figure>" + render_svg_chart({
            "kind": "heatmap",
            "title": "Pairwise Pearson correlation of POS percentages",
            "labels": labels,
            "matrix": [[correlations[a][b] for b in labels] for a in labels],
        }) + "</figure>")

    write_if_changed(out_dir / "corpus.html", _page("Corpus overview", parts),
                     digests)
    for name, field, heading in (("authors.html", "author", "Authors"),
                                 ("subjects.html", "subjects", "Subjects")):
        _emit_grouped_index(stats, out_dir / name, field, heading, digests)
    return json_path, out_dir / "corpus.html"


def _emit_grouped_index(stats, path, field, heading, digests):
    groups = {}
    for book in stats.get("books", []):
        keys = book.get(field) or ""
        keys = keys if isinstance(keys, list) else [keys]
        for key in keys or [""]:
            groups.setdefault(key or "(unknown)", []).append(book)
    parts = [f"<h1>{heading}</h1>"]
    for key in sorted(groups):
        books = sorted(groups[key], key=lambda b: b["id"])
        items = "".join(
            f"<li><a href=\"../{html.escape(b['id'])}/index.html\">"
            f"{html.escape(b.get('title') or b['id'])}</a>"
            + (f" ({b['year']})" if b.get("year") else "") + "</li>"
            for b in books)
        parts.append(f"<h2>{html.escape(key)}</h2><ul>{items}</ul>")
    write_if_changed(path, _page(heading, parts), digests)
    return path


# -- JSON schema validation --------------------------------------------------------

SCHEMA_DIR = Path(__file__).parent / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text(encoding="utf-8"))


def validate_schema(payload, schema, path="$"):
    """Check a document against the subset of JSON Schema the repo uses.

    Supports type, enum, properties, required, items, and
    additionalProperties. Returns a list of error strings (empty = valid).
    """
    errors = []
    expected = schema.get("type")
    if expected is not None:
        allowed = expected if isinstance(expected, list) else [expected]
        if not any(_type_ok(payload, t) for t in allowed):
            errors.append(f"{path}: expected {allowed}, got {type(payload).__name__}")
            return errors
    if "enum" in schema and payload not in schema["enum"]:
        errors.append(f"{path}: {payload!r} not in enum {schema['enum']}")
    if isinstance(payload, dict):
        for key in schema.get("required", []):
            if key not in payload:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, value in payload.items():
            if key in properties:
                errors.extend(validate_schema(value, properties[key],
                                              f"{path}.{key}"))
            elif isinstance(extra, dict):
                errors.extend(validate_schema(value, extra, f"{path}.{key}"))
            elif extra is False:
                errors.append(f"{path}: unexpected key {key!r}")
    if isinstance(payload, list) and "items" in schema:
        for i, item in enumerate(payload):
            errors.extend(validate_schema(item, schema["items"], f"{path}[{i}]"))
    return errors


def _type_ok(value, type_name):
    if type_name == "object":
        return isinstance(value, dict)
    if type_name == "array":
        return isinstance(value, list)
    if type_name == "string":
        return isinstance(value, str)
    if type_name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if type_name == "number":
        return (isinstance(value, (int, float))
                and not isinstance(value, bool))
    if type_name == "boolean":
        return isinstance(value, bool)
    if type_name == "null":
        return value is None
    return False
