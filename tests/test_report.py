import hashlib
import json
import math
import random
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bindery import xml_model
from bindery.errors import ChartError, InvariantError
from bindery.report import (emit_book_report, emit_corpus_report,
                            render_svg_chart)
from bindery.store import (dump_json, file_digest, load_schema, validate_schema,
                           write_if_changed)
from bindery.xml_model import CharacterRecord

from generators import long_book, random_book


def svg_root(text):
    return ET.fromstring(text)


def elements(text, tag):
    ns = "{http://www.w3.org/2000/svg}"
    return svg_root(text).iter(f"{ns}{tag}")


# -- render_svg_chart -----------------------------------------------------------


def test_empty_series_is_valid_svg():
    text = render_svg_chart({"kind": "line", "title": "empty", "series": []})
    root = svg_root(text)
    assert root.attrib["width"] == "800"
    assert root.attrib["height"] == "400"
    assert list(elements(text, "path")) == []


def test_two_point_line_has_exactly_one_path():
    text = render_svg_chart({
        "kind": "line", "title": "two points",
        "series": [{"label": "s", "ys": [1.0, 2.0]}]})
    assert len(list(elements(text, "path"))) == 1


def test_three_series_three_paths():
    text = render_svg_chart({
        "kind": "line", "title": "t",
        "series": [{"label": "a", "ys": [1, 2]},
                   {"label": "b", "ys": [2, 1]},
                   {"label": "c", "ys": [3, 3]}]})
    assert len(list(elements(text, "path"))) == 3


def test_nan_rejected():
    with pytest.raises(ChartError):
        render_svg_chart({"kind": "line", "title": "bad",
                          "series": [{"label": "s", "ys": [1.0, math.nan]}]})
    with pytest.raises(ChartError):
        render_svg_chart({"kind": "scatter", "title": "bad",
                          "rows": [], "vlines": [math.inf]})


def test_unknown_kind_rejected():
    with pytest.raises(ChartError):
        render_svg_chart({"kind": "pie", "title": "no"})


def test_chart_deterministic():
    spec = {"kind": "bar", "title": "bars",
            "values": [("NOUN", 30.5), ("VERB", 20.25)]}
    assert render_svg_chart(spec) == render_svg_chart(spec)


def test_scatter_draws_dashed_vlines_and_points():
    text = render_svg_chart({
        "kind": "scatter", "title": "timeline",
        "rows": [{"label": "Oliver", "positions": [0.0, 0.5, 1.0]}],
        "vlines": [1 / 3, 2 / 3]})
    dashed = [e for e in elements(text, "line")
              if e.get("stroke-dasharray")]
    assert len(dashed) == 2
    assert len(list(elements(text, "circle"))) == 3


def test_graph_layout_deterministic_and_gender_colored():
    spec = {"kind": "graph", "title": "net",
            "nodes": [{"id": 0, "name": "A", "count": 9, "gender": "male"},
                      {"id": 1, "name": "B", "count": 4, "gender": "female"}],
            "edges": [{"a": 0, "b": 1, "weight": 7}]}
    text = render_svg_chart(spec)
    assert text == render_svg_chart(spec)
    circles = list(elements(text, "circle"))
    fills = [c.get("fill") for c in circles]
    assert "#4878b0" in fills   # male blue
    assert "#e78ac3" in fills   # female pink
    assert len(list(elements(text, "line"))) == 1  # the single edge


def test_graph_without_edges_has_nodes_only():
    spec = {"kind": "graph", "title": "net",
            "nodes": [{"id": 0, "name": "A", "count": 3, "gender": "unknown"}],
            "edges": []}
    text = render_svg_chart(spec)
    assert len(list(elements(text, "circle"))) == 1
    assert len(list(elements(text, "line"))) == 0


def test_heatmap_grid_size():
    labels = ["NOUN", "VERB"]
    matrix = [[1.0, -0.5], [-0.5, None]]
    text = render_svg_chart({"kind": "heatmap", "title": "h",
                             "labels": labels, "matrix": matrix})
    assert len(list(elements(text, "rect"))) == 4


# -- payload fixtures -------------------------------------------------------------


def book_payload():
    return {
        "schema": "bindery.book/1",
        "id": "pg730",
        "meta": {"title": "Oliver Twist", "author": "Charles Dickens",
                 "year": 1838, "corpus": "gutenberg", "subjects": ["fiction"]},
        "phases": ["ingest", "segment", "linguistic", "characters",
                   "analytics"],
        "counts": {"sections": 8, "paragraphs": 40, "sentences": 120,
                   "tokens": 1800},
        "characters": [
            {"id": 0, "name": "Oliver", "gender": "male", "count": 38,
             "gcc": 50, "fpcc": 9, "spcc": 0,
             "aliases": {"Oliver": 30, "Oliver Twist": 8}},
            {"id": 1, "name": "Nancy", "gender": "female", "count": 7,
             "gcc": 4, "fpcc": 1, "spcc": 1, "aliases": {"Nancy": 7}},
        ],
        "protagonist": {"id": 0, "name": "Oliver", "gender": "male"},
        "top2_ratio": 38 / 7,
        "readability": {"flesch_reading_ease": 70.7, "dale_chall": 8.8,
                        "automated_readability_index": 7.3,
                        "coleman_liau": 7.8, "gunning_fog": 9.9,
                        "smog": 10.5, "spache": 5.8, "linsear_write": 11.0},
        "pos": {tag: {"count": 10, "percent": 12.5} for tag in
                ("NOUN", "ADJ", "VERB", "ADV", "PRON", "INTJ", "ADP", "CONJ")},
        "timeline": {"characters": [
            {"id": 0, "name": "Oliver", "gender": "male",
             "positions": [0.01, 0.5, 0.99]}],
            "chapter_breaks": [0.25, 0.5, 0.75]},
        "network": {"nodes": [
            {"id": 0, "name": "Oliver", "count": 38, "gender": "male"},
            {"id": 1, "name": "Nancy", "count": 7, "gender": "female"}],
            "edges": [{"a": 0, "b": 1, "weight": 9}]},
        "vocabulary": {"most": [["workhouse", 40.2]], "least": [["sea", 0.1]],
                       "missing": [["whale", 900]]},
        "similar": {"gutenberg": [["pg1001", 0.77]]},
        "placement": {
            "pos_percentiles": {"NOUN": 60.0},
            "pos_mean": {"NOUN": 24.0},
            "gender_pct": {"male": 80.0, "female": 20.0,
                           "percentile_male": 75.0},
        },
    }


def corpus_payload():
    return {
        "schema": "bindery.corpus/1",
        "books": [{"id": "pg730", "title": "Oliver Twist",
                   "author": "Charles Dickens", "year": 1838,
                   "corpus": "gutenberg", "subjects": ["fiction"],
                   "protagonist_gender": "male", "top2_ratio": 5.4}],
        "rank_share": {"observed": [0.4, 0.2, 0.1, 0.08, 0.07, 0.05, 0.04,
                                    0.03, 0.03],
                       "benford": [math.log10(1 + 1 / d) for d in range(1, 10)],
                       "zipf": [1 / d / 2.8289682539682537
                                for d in range(1, 10)],
                       "books": 1},
        "top2": {"histogram": [{"lo": 1.0, "hi": 10.0, "count": 1}],
                 "outliers": [{"id": "pg730", "ratio": 5.4}],
                 "threshold": 10.0},
        "gender_over_time": None,
        "pos_correlations": {"NOUN": {"NOUN": 1.0, "VERB": -0.5},
                             "VERB": {"NOUN": -0.5, "VERB": 1.0}},
        "pos_distributions": {"NOUN": [24.0], "VERB": [20.0]},
        "gender_pct_population": {"male": [80.0], "female": [20.0]},
    }


# -- emission ----------------------------------------------------------------------


def test_book_report_roundtrips_and_validates(tmp_path):
    json_path, html_path = emit_book_report(book_payload(), tmp_path)
    loaded = json.loads(json_path.read_text(encoding="utf-8"))
    assert loaded == book_payload()
    errors = validate_schema(loaded, load_schema("book.schema.json"))
    assert errors == []
    html = html_path.read_text(encoding="utf-8")
    assert "<svg" in html
    assert "Oliver" in html
    assert "href=\"http" not in html  # self-contained, no external assets
    assert "src=" not in html


def test_book_report_deterministic(tmp_path):
    emit_book_report(book_payload(), tmp_path / "a")
    emit_book_report(book_payload(), tmp_path / "b")
    for name in ("book.json", "index.html"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_book_report_network_without_edges(tmp_path):
    payload = book_payload()
    payload["network"]["edges"] = []
    _, html_path = emit_book_report(payload, tmp_path)
    assert "<svg" in html_path.read_text(encoding="utf-8")


def test_book_report_without_a_male_share_percentile(tmp_path):
    """With an empty corpus population the percentile is null, which the
    schema allows; the page states the shares without placing them."""
    payload = book_payload()
    payload["placement"]["gender_pct"]["percentile_male"] = None
    assert validate_schema(payload, load_schema("book.schema.json")) == []
    _, html_path = emit_book_report(payload, tmp_path)
    html = html_path.read_text(encoding="utf-8")
    assert ("<p>80.0% of this book's characters are male (20.0% female)."
            "</p>") in html
    assert "th percentile" not in html


def test_corpus_report_has_three_rank_series(tmp_path):
    html_path = emit_corpus_report(corpus_payload(), tmp_path)
    html = html_path.read_text(encoding="utf-8")
    for label in ("observed", "Benford", "Zipf"):
        assert label in html


def test_corpus_report_deterministic(tmp_path):
    emit_corpus_report(corpus_payload(), tmp_path / "a")
    emit_corpus_report(corpus_payload(), tmp_path / "b")
    for name in ("corpus.html", "authors.html", "subjects.html"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_corpus_report_single_book(tmp_path):
    html_path = emit_corpus_report(corpus_payload(), tmp_path)
    assert "1 books analyzed" in html_path.read_text(encoding="utf-8")
    assert (tmp_path / "authors.html").exists()
    assert (tmp_path / "subjects.html").exists()


def test_author_index_groups_books(tmp_path):
    emit_corpus_report(corpus_payload(), tmp_path)
    html = (tmp_path / "authors.html").read_text(encoding="utf-8")
    assert "Charles Dickens" in html
    assert "Oliver Twist" in html


# -- the store's writer and digest, which emission writes through --------------


def test_write_if_changed_preserves_timestamps(tmp_path):
    path = tmp_path / "file.txt"
    assert write_if_changed(path, "same") is True
    stamp = path.stat().st_mtime_ns
    assert write_if_changed(path, "same") is False
    assert path.stat().st_mtime_ns == stamp
    assert write_if_changed(path, "different") is True


def test_write_if_changed_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "book.xml"
    write_if_changed(path, "old bytes")
    plain = tmp_path / "plain.xml"
    plain.write_bytes(b"x")
    assert path.stat().st_mode == plain.stat().st_mode

    real_open = Path.open

    class DiesHalfway:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError("disk full")

    def opens_dying(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return DiesHalfway(fh) if "w" in mode else fh

    monkeypatch.setattr(Path, "open", opens_dying)
    with pytest.raises(OSError):
        write_if_changed(path, "new bytes, longer than the old ones")
    assert path.read_text() == "old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["book.xml",
                                                          "plain.xml"]


def test_write_if_changed_rewrites_same_size_other_bytes(tmp_path):
    path = tmp_path / "file.txt"
    write_if_changed(path, "abcd")
    assert write_if_changed(path, ["ab", "dc"]) is True
    assert path.read_bytes() == b"abdc"


def test_equal_content_keeps_the_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "file.txt"
    write_if_changed(path, "same bytes")
    before = path.stat()
    assert write_if_changed(path, ["same ", b"bytes"]) is False
    after = path.stat()
    assert (after.st_mtime_ns, after.st_ino) == (before.st_mtime_ns,
                                                 before.st_ino)
    assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]


def test_pieces_that_raise_leave_the_old_file_and_no_digest(tmp_path):
    path = tmp_path / "book.xml"
    write_if_changed(path, xml_model.serialize(random_book(seed=1)))
    old = path.read_bytes()
    book = random_book(seed=2)
    book.characters.append(CharacterRecord(
        id=99, canonical_name="Ann", gender="robot", alias_counts={"Ann": 3},
        mention_token_indices=[1, 2, 3]))
    digests = {}
    with pytest.raises(InvariantError):
        write_if_changed(path, xml_model.serialize_pieces(book), digests)

    def fails_late():
        yield "a first piece, written"
        raise InvariantError("late")

    with pytest.raises(InvariantError):
        write_if_changed(path, fails_late(), digests)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["book.xml"]
    assert digests == {}


def test_recorded_digest_is_that_of_the_bytes_written(tmp_path):
    digests = {}
    for name, content in (("a.txt", "naïve “quote”"),
                          ("b.bin", [b"\x00\xff", "é", b"z"]),
                          ("c.txt", ("x" * 5000 for _ in range(40)))):
        path = tmp_path / name
        write_if_changed(path, content, digests)
        assert digests[path] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert (tmp_path / "b.bin").read_bytes() == b"\x00\xff\xc3\xa9z"
    assert (tmp_path / "c.txt").stat().st_size == 200_000


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children)
    | st.dictionaries(st.text(), children), max_leaves=40)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_JSON)
def test_dump_json_bytes_are_those_of_json_dumps(tmp_path, payload):
    path = tmp_path / "payload.json"
    dump_json(payload, path)
    assert path.read_bytes() == (json.dumps(payload, indent=2, sort_keys=True)
                                 + "\n").encode("utf-8")


def test_writing_a_book_holds_a_small_share_of_its_xml(tmp_path):
    book = long_book(1, sections=8, paragraphs=200)
    path = tmp_path / "book.xml"
    tracemalloc.start()
    try:
        write_if_changed(path, xml_model.serialize_pieces(book))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == xml_model.serialize(book)
    assert peak < path.stat().st_size / 4


# Sizes within two bytes of 0, 1, 2 and 3 reads of 64 KB.
_SIZES = st.sampled_from([0, 1, 2, 3]).flatmap(
    lambda reads: st.integers(max(0, reads * 65536 - 2), reads * 65536 + 2))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(size=_SIZES, seed=st.integers(0, 2**32 - 1))
def test_file_digest_is_the_sha256_of_the_bytes(tmp_path, size, seed):
    data = random.Random(seed).randbytes(size)
    path = tmp_path / "data.bin"
    path.write_bytes(data)
    assert file_digest(path) == hashlib.sha256(data).hexdigest()


# -- schema validator ------------------------------------------------------------


def test_validator_flags_missing_required():
    schema = {"type": "object", "required": ["id"],
              "properties": {"id": {"type": "string"}}}
    assert validate_schema({}, schema)
    assert validate_schema({"id": "x"}, schema) == []


def test_validator_type_and_enum():
    schema = {"type": "object",
              "properties": {"g": {"enum": ["male", "female"]},
                             "n": {"type": "integer"}}}
    assert validate_schema({"g": "male", "n": 3}, schema) == []
    assert validate_schema({"g": "other"}, schema)
    assert validate_schema({"n": True}, schema)  # bool is not an integer


def test_validator_additional_properties_false():
    schema = {"type": "object", "properties": {"a": {"type": "string"}},
              "additionalProperties": False}
    assert validate_schema({"a": "x", "b": 1}, schema)


def test_book_schema_rejects_corrupted_payload():
    payload = book_payload()
    payload["characters"][0]["gender"] = "robot"
    errors = validate_schema(payload, load_schema("book.schema.json"))
    assert errors
