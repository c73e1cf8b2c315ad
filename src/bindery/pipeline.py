"""Pipeline orchestration over an on-disk store.

Store layout: ``store/<book_id>/{book.xml, book.json, lemmas.json,
index.html}`` with corpus-level artifacts under ``store/_corpus/``. One
rule, ``Traces``, decides every re-run; phase stamps in ``<meta>`` only
enforce ordering, and files are only rewritten when their bytes change.
Annotate and analyze share one parse and one ``book.xml`` write per book.
Analyze alone computes a book's payload and lemmas, and report alone
writes ``book.json``. The phase modules run on first use (``_lazy``) and
the process pool is imported only when one starts, so an unchanged store
is re-run without either, or numpy.
"""

import hashlib
import importlib.util
import json
import logging
import re
import resource
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

from . import dedup, ingest, report, xml_model
from .config import Config
from .errors import (AnalyticsError, BinderyError, MissingPhaseError, ParseError,
                     TooShortError)
from .xml_model import AnnotatedBook, BookMeta

log = logging.getLogger(__name__)


def _lazy(name):
    """The module ``bindery.<name>``, its code run on first attribute access.

    This is the "Implementing lazy imports" recipe of the importlib docs.
    The module is in ``sys.modules`` and set on the package at once, like
    an imported one, but a run that never uses it never compiles or runs
    it. A lazy load is not thread-safe; bindery uses these modules from
    its main thread only (pool workers are processes).
    """
    qualified = f"{__package__}.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    spec = importlib.util.find_spec(qualified)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[qualified] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# The phase modules: a no-op run reaches none of them.
segmentation = _lazy("segmentation")
linguistic = _lazy("linguistic")
characters = _lazy("characters")
analytics_book = _lazy("analytics_book")
analytics_corpus = _lazy("analytics_corpus")

CORPUS_DIR = "_corpus"
INDEX_FILE = "index.jsonl"
# The corpus lemma model under _corpus/; a book's lemma file in its dir.
LEMMAS_FILE = "lemmas.json"
VECTORS_FILE = "vectors.bin"
PROGRESS_FILE = "progress.jsonl"
# What corpus-stats writes under _corpus/, and what every report page reads.
CORPUS_OUTPUTS = (report.CORPUS_JSON, LEMMAS_FILE, VECTORS_FILE)
CORPUS_STATS_MEMO = "corpus-stats.memo"
REPORT_MEMO = "report.memo"
# What report, their one writer, writes per book and for the corpus.
BOOK_PAGES = ("book.json", "index.html")
CORPUS_PAGES = ("corpus.html", "authors.html", "subjects.html")
# The config keys each trace covers: what ingest reads for one book, what
# annotate_book reads, what build_book_payload reads, and for corpus-stats
# and report every key but jobs.
INGEST_KEYS = ("front_window_frac", "front_short_line_len",
               "front_short_line_ratio", "page_separator")
ANNOTATE_KEYS = ("header_max_len", "numbering_gap_tolerance", "lexicon_dir",
                 "min_mentions", "pronoun_sentence_window")
ANALYSIS_KEYS = ("lexicon_dir", "timeline_top_k", "interaction_window",
                 "interaction_min_co")
CORPUS_KEYS = tuple(key for key in Config.field_names() if key != "jobs")
LEMMA_MODEL_SCHEMA = {
    "type": "object", "required": ["total", "common"],
    "properties": {
        "total": {"type": "integer"},
        "common": {"type": "object",
                   "additionalProperties": {"type": "integer"}}}}


# -- source discovery -----------------------------------------------------------


def discover_sources(in_dir):
    """Raw book sources under a directory.

    Plain ``.txt`` files are Gutenberg-style books; subdirectories holding
    zero-padded page files are page-wise books. Returns a sorted list of
    ``(book_id, path, kind)``.
    """
    in_dir = Path(in_dir)
    sources = []
    for entry in sorted(in_dir.iterdir()):
        if entry.is_file() and entry.suffix == ".txt":
            sources.append((ingest.gutenberg_id(entry), entry,
                            ingest.SourceKind.GUTENBERG_TEXT))
        elif entry.is_dir() and any(p.suffix == ".txt" for p in entry.iterdir()):
            sources.append((f"ht{entry.name}", entry,
                            ingest.SourceKind.HATHI_PAGEWISE))
    return sources


# -- per-book construction --------------------------------------------------------


def canonicalize_body(text):
    """Canonical body text: stripped lines, single blank line between blocks."""
    lines = "\n".join(line.strip() for line in text.split("\n"))
    return "\n\n".join(re.split(r"\n{2,}", lines.strip("\n")))


def ingest_to_book(raw, config):
    """Build the ingest-stage annotated book from a raw source."""
    fb_source = raw
    if raw.source_kind == ingest.SourceKind.GUTENBERG_TEXT:
        text, _ = ingest.strip_spans(
            raw.text, ingest.annotate_gutenberg_boilerplate(raw))
        fb_source = replace(raw, pages=[text])
    fb_spans = ingest.annotate_front_back_matter(
        fb_source,
        window_frac=config.front_window_frac,
        short_line_len=config.front_short_line_len,
        short_line_ratio=config.front_short_line_ratio)
    body, blocks = ingest.strip_spans(fb_source.text, fb_spans)
    front = [b.strip("\n") for b in blocks.get("front_matter", [])]
    back = [b.strip("\n") for b in blocks.get("back_matter", [])]

    canonical = canonicalize_body(body)
    paragraphs = []
    offset = 0
    for block in canonical.split("\n\n") if canonical else []:
        paragraphs.append(xml_model.Paragraph(raw=block, offset=offset))
        offset += len(block) + 2

    year = raw.metadata.get("year")
    book = AnnotatedBook(
        meta=BookMeta(
            title=raw.metadata.get("title"),
            author=raw.metadata.get("author"),
            year=int(year) if year is not None else None,
            source_id=raw.source_id,
            corpus=("gutenberg"
                    if raw.source_kind == ingest.SourceKind.GUTENBERG_TEXT
                    else "hathi"),
            subjects=[s.strip() for s in
                      str(raw.metadata.get("subjects", "")).split(";")
                      if s.strip()],
            encoding=raw.metadata.get("encoding"),
            body_sha256=hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        ),
        front=front,
        back=back,
        body=[xml_model.Section(header=None, paragraphs=paragraphs)],
    )
    book.add_phase("ingest")
    return book


def _offset_blocks(book):
    """The body's ingest-stage blocks, each as a list of ``(offset, text)``.

    Token offsets index into the canonical body, where header lines are
    blocks of their own: a header is placed two characters after the
    furthest text so far, a raw paragraph is one piece, and a tokenized
    paragraph has one piece per token. Paragraphs without tokens are
    skipped.
    """
    cursor = 0
    for section in book.body:
        if section.header is not None:
            offset = cursor + 2 if cursor > 0 else 0
            yield [(offset, section.header.text)]
            cursor = offset + len(section.header.text)
        for paragraph in section.paragraphs:
            if paragraph.is_raw:
                pieces = [(paragraph.offset, paragraph.raw)]
            else:
                pieces = [(t.offset, t.text) for s in paragraph.sentences
                          for t in s.tokens]
            if pieces:
                yield pieces
                cursor = max(cursor, *(o + len(t) for o, t in pieces))


def _fill(pieces, start, end):
    """The text from ``start`` to ``end``: each piece at its offset, later
    pieces over earlier ones, spaces elsewhere."""
    buffer = [" "] * (end - start)
    for offset, text in pieces:
        buffer[offset - start:offset - start + len(text)] = text
    return "".join(buffer)


def body_text_of(book):
    """Canonical body text reconstructed from raw paragraphs or tokens.

    Raw paragraphs are joined as ingest split them. Otherwise every header
    and token of ``_offset_blocks`` goes to its offset, which preserves the
    exact length and word stream of the ingest-stage text (gap characters
    collapse to spaces, which fingerprint normalization ignores anyway).
    """
    raws = [p.raw for p in book.iter_paragraphs() if p.is_raw]
    if raws:
        return "\n\n".join(raws)
    pieces = [piece for block in _offset_blocks(book) for piece in block]
    return _fill(pieces, 0, max((o + len(t) for o, t in pieces), default=0))


def to_raw_stage(book):
    """Rebuild the ingest-stage body (raw blocks, one section) in place.

    Each block of ``_offset_blocks`` becomes a raw paragraph again: hard-wrap
    newlines collapse to spaces, preserving every offset, and header lines
    become ordinary blocks. Annotate starts from here.
    """
    paragraphs = []
    for pieces in _offset_blocks(book):
        start = pieces[0][0]
        end = max(o + len(t) for o, t in pieces)
        paragraphs.append(xml_model.Paragraph(raw=_fill(pieces, start, end),
                                              offset=start))
    book.body = [xml_model.Section(header=None, paragraphs=paragraphs)]
    book.characters = []
    book.phases = [p for p in book.phases if p == "ingest"]
    book.meta.annotate_trace = None
    return book


def _require(book, phase, needed):
    if not book.has_phase(needed):
        raise MissingPhaseError(phase, needed)


def segment_book(book, config):
    _require(book, "segment", "ingest")
    book.body = segmentation.segment(
        body_text_of(book), max_len=config.header_max_len,
        gap_tolerance=config.numbering_gap_tolerance,
        lexicon_dir=config.lexicon_dir)
    book.add_phase("segment")
    return book


def linguistic_book(book, config):
    _require(book, "linguistic", "segment")
    index = 0
    for paragraph in book.iter_paragraphs():
        index = linguistic.annotate_paragraph(paragraph, index,
                                              lexicon_dir=config.lexicon_dir)
    book.add_phase("linguistic")
    return book


def characters_book(book, config):
    _require(book, "characters", "linguistic")
    for token in book.iter_tokens():
        token.character_id = None
        token.quote_id = None
    records, assignments = characters.identify_characters(
        book, min_mentions=config.min_mentions,
        pronoun_window=config.pronoun_sentence_window,
        lexicon_dir=config.lexicon_dir)
    quotes = linguistic.extract_quotes(list(book.iter_paragraphs()))
    linguistic.attribute_quotes(quotes, list(book.iter_sentences()),
                                assignments, lexicon_dir=config.lexicon_dir)
    characters.attach_pronoun_counts(book, records, quotes,
                                     mention_spans=assignments,
                                     window=config.pronoun_sentence_window)
    book.add_phase("characters")
    return book


def annotate_book(book, config):
    segment_book(book, config)
    linguistic_book(book, config)
    characters_book(book, config)
    return book


# -- analytics payloads -------------------------------------------------------------


def build_book_payload(book, config):
    """The per-book analytics document (corpus-relative fields left null)."""
    _require(book, "analytics", "characters")
    protagonist, ratio = characters.protagonist_stats(book.characters)
    try:
        readability = analytics_book.readability_suite(
            book, lexicon_dir=config.lexicon_dir)
    except AnalyticsError:
        readability = None
    try:
        pos = analytics_book.pos_distribution(book)
    except AnalyticsError:
        pos = None
    timeline = characters.build_occurrence_timeline(
        book, top_k=config.timeline_top_k)
    network = characters.build_interaction_network(
        book.characters, window=config.interaction_window,
        min_co=config.interaction_min_co)
    return {
        "schema": "bindery.book/1",
        "id": book.meta.source_id,
        "meta": {
            "title": book.meta.title,
            "author": book.meta.author,
            "year": book.meta.year,
            "corpus": book.meta.corpus,
            "subjects": list(book.meta.subjects),
        },
        "phases": list(book.phases) + (
            [] if book.has_phase("analytics") else ["analytics"]),
        "counts": {
            "sections": len(book.body),
            "paragraphs": sum(1 for _ in book.iter_paragraphs()),
            "sentences": sum(1 for _ in book.iter_sentences()),
            "tokens": book.token_count(),
        },
        "characters": [{
            "id": r.id, "name": r.canonical_name, "gender": r.gender,
            "count": r.count, "gcc": r.gcc, "fpcc": r.fpcc, "spcc": r.spcc,
            "aliases": dict(sorted(r.alias_counts.items())),
        } for r in book.characters],
        "protagonist": ({"id": protagonist.id, "name": protagonist.canonical_name,
                         "gender": protagonist.gender}
                        if protagonist is not None else None),
        "top2_ratio": ratio,
        "readability": readability,
        "pos": pos,
        "timeline": timeline,
        "network": network,
        "vocabulary": None,
        "similar": None,
        "placement": None,
    }


def build_corpus_stats(payloads, lemma_totals, config):
    """Corpus analytics document over the per-book payloads."""
    books = []
    char_count_lists = []
    ratios = []
    years = []
    pos_rows = []
    gender_pcts = {"male": [], "female": []}
    for payload in payloads:
        books.append({
            "id": payload["id"],
            "title": payload["meta"]["title"],
            "author": payload["meta"]["author"],
            "year": payload["meta"]["year"],
            "corpus": payload["meta"]["corpus"],
            "subjects": payload["meta"]["subjects"],
            "protagonist_gender": (payload["protagonist"] or {}).get("gender"),
            "top2_ratio": payload["top2_ratio"],
        })
        char_count_lists.append([c["count"] for c in payload["characters"]])
        if payload["top2_ratio"] is not None:
            ratios.append((payload["id"], payload["top2_ratio"]))
        if payload["meta"]["year"] is not None and payload["protagonist"]:
            years.append((payload["meta"]["year"],
                          payload["protagonist"]["gender"]))
        if payload["pos"]:
            pos_rows.append({tag: payload["pos"][tag]["percent"]
                             for tag in payload["pos"]})
        males = sum(1 for c in payload["characters"] if c["gender"] == "male")
        females = sum(1 for c in payload["characters"] if c["gender"] == "female")
        if males + females > 0:
            gender_pcts["male"].append(100.0 * males / (males + females))
            gender_pcts["female"].append(100.0 * females / (males + females))

    ranks = config.rank_share_ranks
    try:
        observed = analytics_corpus.rank_share_curve(char_count_lists, ranks=ranks)
        benford, zipf = analytics_corpus.reference_distributions(ranks=ranks)
        qualifying = sum(1 for counts in char_count_lists
                         if len([c for c in counts if c > 0]) >= ranks)
        rank_share = {"observed": observed, "benford": benford, "zipf": zipf,
                      "books": qualifying}
    except AnalyticsError:
        rank_share = None

    top2 = analytics_corpus.top2_ratio_distribution(
        ratios, threshold=config.top2_outlier_threshold,
        bins=config.top2_histogram_bins)
    top2["threshold"] = config.top2_outlier_threshold

    try:
        gender_bins = analytics_corpus.gender_over_time(
            years, bins=config.gender_time_bins)
    except AnalyticsError:
        gender_bins = None

    try:
        correlations = analytics_corpus.pos_correlations(pos_rows)
    except AnalyticsError:
        correlations = None

    pos_distributions = {}
    for row in pos_rows:
        for tag, pct in row.items():
            pos_distributions.setdefault(tag, []).append(pct)

    return {
        "schema": "bindery.corpus/1",
        "books": books,
        "rank_share": rank_share,
        "top2": top2,
        "gender_over_time": gender_bins,
        "pos_correlations": correlations,
        "pos_distributions": pos_distributions,
        "gender_pct_population": gender_pcts,
    }


def enrich_book_payload(payload, lemma_counts, stats, lemma_model, vectors,
                        config):
    """Fill corpus-relative sections: vocabulary, similar books, placement.

    ``lemma_counts`` is the book's lemma :class:`Counter`.
    """
    if lemma_model and lemma_model.get("total", 0) > 0:
        try:
            vocab = analytics_book.representative_vocabulary(
                lemma_counts, Counter(lemma_model["common"]),
                top_common=config.vocab_top_common,
                list_len=config.vocab_list_len)
            payload["vocabulary"] = {
                "most": [[w, r] for w, r in vocab.most],
                "least": [[w, r] for w, r in vocab.least],
                "missing": [[w, c] for w, c in vocab.missing],
            }
        except AnalyticsError:
            payload["vocabulary"] = None
    if vectors is not None and payload["id"] in vectors.ids:
        corpus_of = {b["id"]: (b["corpus"] or "") for b in stats["books"]}
        grouped = analytics_book.most_similar(
            payload["id"], vectors, k=config.similar_top_k,
            corpus_of=corpus_of)
        payload["similar"] = {
            label: [[other, sim] for other, sim in entries]
            for label, entries in grouped.items()}

    placement = {}
    if payload["pos"] and stats.get("pos_distributions"):
        percentiles = {}
        means = {}
        for tag, values in sorted(stats["pos_distributions"].items()):
            if values and tag in payload["pos"]:
                percentiles[tag] = analytics_corpus.percentile(
                    payload["pos"][tag]["percent"], values)
                means[tag] = sum(values) / len(values)
        placement["pos_percentiles"] = percentiles
        placement["pos_mean"] = means
    males = sum(1 for c in payload["characters"] if c["gender"] == "male")
    females = sum(1 for c in payload["characters"] if c["gender"] == "female")
    population = stats.get("gender_pct_population", {}).get("male", [])
    if males + females > 0:
        pct_male = 100.0 * males / (males + females)
        placement["gender_pct"] = {
            "male": pct_male,
            "female": 100.0 - pct_male,
            "percentile_male": (analytics_corpus.percentile(pct_male, population)
                                if population else None),
        }
    payload["placement"] = placement or None
    return payload


# -- store-level runners ---------------------------------------------------------


@dataclass
class PhaseResult:
    """Outcome of one phase on one book: one line of the progress log.

    A dedup result also names the book that this one duplicates, if any;
    the progress log leaves that out.
    """

    book_id: str
    phase: str
    ok: bool
    error: str | None = None
    duplicate_of: str | None = None


def _failed(book_id, phase, exc):
    return PhaseResult(book_id, phase, False, str(exc))


def _book_dir(store, book_id):
    return Path(store) / book_id


def _xml_path(store, book_id):
    return _book_dir(store, book_id) / "book.xml"


def _corpus_path(store, name):
    return Path(store) / CORPUS_DIR / name


def store_book_ids(store):
    return sorted(p.parent.name for p in Path(store).glob("*/book.xml"))


def kept_book_ids(store):
    """Book ids that survived dedup (all books when dedup has not run):
    the books of a runner given ``book_ids=None``."""
    index_path = _corpus_path(store, INDEX_FILE)
    entries = (dedup.CorpusIndex.load(index_path).entries
               if index_path.exists() else [])
    duplicates = {e.book_id for e in entries if e.is_duplicate}
    return [b for b in store_book_ids(store) if b not in duplicates]


def _read_json(path, schema, kind):
    """A JSON store file that matches ``schema``, a ``kind`` document;
    ParseError if it is truncated, malformed or of the wrong shape."""
    try:
        payload = json.loads(path.read_bytes())
    except ValueError as exc:
        raise ParseError(f"{path}: malformed JSON: {exc}") from exc
    errors = report.validate_schema(payload, schema)
    if errors:
        raise ParseError(f"{path}: not a {kind} document: "
                         + "; ".join(errors[:3]))
    return payload


def _json_object(path):
    """A JSON file's object; {} if it is missing, malformed or not one."""
    try:
        payload = json.loads(path.read_bytes())
    except (OSError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}


# -- traces --------------------------------------------------------------------


def _file_digest(path):
    """SHA-256 of a file's bytes; None when it is missing or unreadable."""
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


class Traces:
    """The one rule that decides whether an output is current.

    An output is current iff the digest of its named inputs, recorded
    beside it, still matches: the "verifying traces" of Mokhov, Mitchell
    and Peyton Jones, "Build Systems a la Carte" (ICFP 2018). The inputs
    are JSON values and files; a ``Path`` stands for its file's bytes.
    One instance serves one runner call or one ``run_all``, digests each
    file and reads each ``<meta>`` at most once (``files``, ``heads``; a
    write through ``report.write_if_changed(..., traces.files)`` records
    the digest of what it leaves),
    and under ``force`` reads no recorded trace, so none is current.
    """

    def __init__(self, force=False):
        self.force = force
        self.files = {}
        self.heads = {}

    def recorded(self, read, *args):
        """``read(*args)``, a recorded trace; None, unread, under force."""
        return None if self.force else read(*args)

    def current(self, recorded, parts):
        """Whether ``recorded`` is the trace of ``parts``."""
        return recorded is not None and recorded == self.digest(parts)

    def digest(self, parts):
        """The trace of ``parts``: the SHA-256 of their JSON text."""
        values = [self._file(p) if isinstance(p, Path) else p for p in parts]
        return hashlib.sha256(json.dumps(values).encode("utf-8")).hexdigest()

    def _file(self, path):
        if path not in self.files:
            self.files[path] = _file_digest(path)
        return self.files[path]

    def head(self, xml_path):
        """The ``<meta>`` of a stored book; None when there is no book."""
        if xml_path not in self.heads:
            self.heads[xml_path] = (xml_model.load_head(xml_path)[0]
                                    if xml_path.exists() else None)
        return self.heads[xml_path]

    def forget(self, paths):
        """Drop what was read of ``paths``, which are being rewritten."""
        for path in paths:
            self.files.pop(path, None)
            self.heads.pop(path, None)


def _settings(config, keys):
    """The bindery version and the ``keys`` settings."""
    from . import __version__  # looked up per call, not frozen at import
    return [__version__, *(getattr(config, key) for key in keys)]


def _source_parts(path, kind):
    """A text source, or each ``.txt`` file of a page-wise one, by name."""
    if kind == ingest.SourceKind.GUTENBERG_TEXT:
        return [path]
    return [part for page in sorted(path.glob("*.txt"))
            for part in (page.name, page)]


def _annotate_parts(meta, config):
    return [*_settings(config, ANNOTATE_KEYS), meta.ingest_trace]


def _analysis_files(store, book_id):
    """A book's book.xml and lemma file: what ``_book_analysis`` reads."""
    return [_xml_path(store, book_id), _book_dir(store, book_id) / LEMMAS_FILE]


def _analysis_parts(store, book_id, config):
    # The version reaches it through the traces in book.xml's <meta>.
    return [*(getattr(config, key) for key in ANALYSIS_KEYS),
            _xml_path(store, book_id)]


def _book_analysis(store, book_id, phase, config, book_schema, traces):
    """``(payload, lemmas)`` from a book's lemma file; the book fails
    ``phase`` while the file is not current or has the wrong shape."""
    path = _book_dir(store, book_id) / LEMMAS_FILE
    analysis = _json_object(path)
    if not traces.current(analysis.get("trace"),
                          _analysis_parts(store, book_id, config)):
        raise MissingPhaseError(phase, "analyze")
    payload, lemmas = analysis.get("payload"), analysis.get("lemmas")
    errors = report.validate_schema(payload, book_schema, "$.payload")
    if not (isinstance(lemmas, list)
            and all(isinstance(w, str) for w in lemmas)):
        errors.append("$.lemmas: expected a list of strings")
    if errors:
        raise ParseError(f"{path}: not a book analysis: "
                         + "; ".join(errors[:3]))
    return payload, lemmas


# -- phase runners ----------------------------------------------------------------


def _read_source(path, kind, config):
    if kind == ingest.SourceKind.GUTENBERG_TEXT:
        return ingest.read_gutenberg(path)
    return ingest.read_hathi_pagewise(path, page_separator=config.page_separator)


def run_ingest(in_dir, store, config, force=False, traces=None):
    """Ingest every source of ``in_dir`` whose book's ingest trace is not
    current into the book's book.xml.

    Sources that map to one book id (``1001.txt`` and ``pg1001.txt``) fail
    that id with one error naming them all, and none is written. Every
    runner makes new ``traces`` under ``force`` when given none.
    """
    traces = traces or Traces(force)
    sources = {}
    for book_id, path, kind in discover_sources(in_dir):
        sources.setdefault(book_id, []).append((path, kind))
    results = []
    for book_id, found in sources.items():
        if len(found) > 1:
            results.append(PhaseResult(
                book_id, "ingest", False, "sources map to the same book id: "
                + ", ".join(str(path) for path, _ in found)))
            continue
        [(path, kind)] = found
        xml_path = _xml_path(store, book_id)
        parts = _settings(config, INGEST_KEYS) + _source_parts(path, kind)
        try:
            meta = traces.recorded(traces.head, xml_path)
            if not traces.current(meta and meta.ingest_trace, parts):
                raw = _read_source(path, kind, config)
                raw.source_id = book_id
                book = ingest_to_book(raw, config)
                book.meta.ingest_trace = traces.digest(parts)
                traces.forget([xml_path])
                report.write_if_changed(xml_path, xml_model.serialize(book))
            results.append(PhaseResult(book_id, "ingest", True))
        except BinderyError as exc:
            results.append(_failed(book_id, "ingest", exc))
    return results


def _previous_index(store):
    """The last dedup index by book id; empty when missing or unreadable."""
    try:
        index = dedup.CorpusIndex.load(_corpus_path(store, INDEX_FILE))
    except FileNotFoundError:
        return {}
    except (OSError, ParseError) as exc:
        log.warning("dedup: previous index unusable, fingerprinting every "
                    "book: %s", exc)
        return {}
    return {entry.book_id: entry for entry in index.entries}


def _memoized_entry(store, book_id, record, minhash, traces):
    """``book_id``'s dedup entry rebuilt from its last index record while
    the body digest and ``minhash`` parameters it names are current, or
    None; only the book's ``<meta>`` is read."""
    if (record is None or record.body_sha256 is None
            or (record.fingerprint is not None
                and len(record.fingerprint.signature) != minhash[0])):
        return None
    meta = traces.head(_xml_path(store, book_id))
    if not traces.current(traces.digest([record.body_sha256, record.minhash]),
                          [meta.body_sha256, minhash]):
        return None
    fp = None
    if record.fingerprint is not None:
        fp = dedup.BookFingerprint(
            normalized_title=dedup.normalize_name(meta.title),
            normalized_author=dedup.normalize_name(meta.author),
            signature=record.fingerprint.signature)
    return _dedup_entry(book_id, meta, record.text_length, fp, minhash)


def _fingerprinted_entry(store, book_id, config, minhash):
    """``book_id``'s dedup entry from a full parse of its body."""
    book = xml_model.load(_xml_path(store, book_id))
    body = body_text_of(book)
    try:
        fp = dedup.fingerprint(
            body, title=book.meta.title or "", author=book.meta.author or "",
            num_hashes=config.minhash_hashes, shingle_size=config.shingle_size,
            seed=config.seed)
    except TooShortError:
        fp = None
    return _dedup_entry(book_id, book.meta, len(body), fp, minhash)


def _dedup_entry(book_id, meta, text_length, fp, minhash):
    return dedup.CorpusEntry(
        book_id=book_id,
        title=meta.title or "",
        author=meta.author or "",
        year=meta.year,
        corpus=meta.corpus or "",
        text_length=text_length,
        fingerprint=fp,
        body_sha256=meta.body_sha256,
        minhash=minhash if meta.body_sha256 is not None else None)


def run_dedup(store, config, force=False, traces=None):
    """Fingerprint every stored book and mark duplicates in the index.

    A book whose record in the previous index is still current (see
    ``_memoized_entry``) reuses that fingerprint, so an unchanged store is
    deduplicated from ``<meta>`` reads alone.
    """
    traces = traces or Traces(force)
    minhash = (config.minhash_hashes, config.shingle_size, config.seed)
    memo = traces.recorded(_previous_index, store) or {}
    index = dedup.CorpusIndex()
    results = []
    reused = 0
    for book_id in store_book_ids(store):
        try:
            entry = _memoized_entry(store, book_id, memo.get(book_id), minhash,
                                    traces)
            if entry is None:
                entry = _fingerprinted_entry(store, book_id, config, minhash)
            else:
                reused += 1
            index.entries.append(entry)
            results.append(PhaseResult(book_id, "dedup", True))
        except BinderyError as exc:
            results.append(_failed(book_id, "dedup", exc))
    log.debug("dedup: %d fingerprint(s) reused, %d computed", reused,
              len(index.entries) - reused)
    dedup.dedup_corpus(index,
                       title_author_match=config.dedup_title_author,
                       content_threshold=config.dedup_content_threshold)
    index.save(_corpus_path(store, INDEX_FILE))
    removed = {e.book_id: e.representative_of for e in index.entries
               if e.is_duplicate}
    for result in results:
        result.duplicate_of = removed.get(result.book_id)
    if removed:
        log.info("dedup: %d duplicate(s): %s", len(removed),
                 ", ".join(f"{b}->{r}" for b, r in removed.items()))
    return results


def _analyze(store, book_id, book, config):
    """Write an annotated book's stamped book.xml, then its lemma file:
    the bare payload, the lemma sequence and their trace.

    Everything is computed before the first write, so a failure writes
    nothing; the serialize cannot fail on a book that annotate validated.
    """
    payload = build_book_payload(book, config)
    lemmas = analytics_book.lemma_sequence(book)
    book.add_phase("analytics")
    traces = Traces()  # its one file, book.xml, gets its digest as written
    report.write_if_changed(_xml_path(store, book_id),
                            xml_model.serialize(book), traces.files)
    report.dump_json({
        "trace": traces.digest(_analysis_parts(store, book_id, config)),
        "lemmas": lemmas, "payload": payload},
        _book_dir(store, book_id) / LEMMAS_FILE)


def _annotate_analyze_one(args):
    """Run ``phases``, annotate and/or analyze in that order, on one book.

    The book is parsed once and its book.xml written once. The results
    are those of running the phases one after another: a failed load
    fails every phase; after a failed annotate, analyze runs on the
    book.xml still on disk; after a failed analyze, the annotation is
    still written. Annotate starts from the ingest stage and validates
    the book as a standalone annotate's serialize would.
    """
    store, book_id, config, phases = args
    path = _xml_path(store, book_id)
    try:
        book = xml_model.load(path)
    except BinderyError as exc:
        return [_failed(book_id, phase, exc) for phase in phases]
    errors = {}
    unwritten = False  # book holds an annotation that book.xml lacks
    if "annotate" in phases:
        try:
            if book.has_phase("segment"):
                to_raw_stage(book)
            annotate_book(book, config)
            book.meta.annotate_trace = Traces().digest(
                _annotate_parts(book.meta, config))
            xml_model.validate(book)
            unwritten = True
        except BinderyError as exc:
            errors["annotate"] = exc
    if "analyze" in phases:
        try:
            if "annotate" in errors:
                book = xml_model.load(path)
            _analyze(store, book_id, book, config)
            unwritten = False
        except BinderyError as exc:
            errors["analyze"] = exc
    if unwritten:
        report.write_if_changed(path, xml_model.serialize(book))
    return [_failed(book_id, phase, errors[phase]) if phase in errors
            else PhaseResult(book_id, phase, True) for phase in phases]


def _pool_map(worker, args_list, jobs):
    if jobs <= 1 or len(args_list) <= 1:
        return [worker(args) for args in args_list]
    # Imported here: loading the pool machinery costs a run that starts none.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, args_list))


def _run_stale(phases, store, config, traces, book_ids=None):
    """Run ``phases`` (annotate and/or analyze) over the kept books.

    A book needs annotate while the trace in its ``<meta>`` is not
    current, and analyze while its lemma file's is not or annotate is to
    run. Up-to-date books are neither fully parsed nor sent, and a run
    with nothing pending starts no pool. A sent book leaves ``traces``: a
    worker process may rewrite its files. Returns one result per book per
    phase, phase by phase.
    """
    if book_ids is None:
        book_ids = kept_book_ids(store)
    results = {}
    stale = []
    for book_id in book_ids:
        try:  # None under force
            meta = traces.recorded(traces.head, _xml_path(store, book_id))
        except BinderyError as exc:
            results.update(((book_id, phase), _failed(book_id, phase, exc))
                           for phase in phases)
            continue
        todo = []
        if "annotate" in phases and not (meta and traces.current(
                meta.annotate_trace, _annotate_parts(meta, config))):
            todo.append("annotate")
        if "analyze" in phases and (todo or not (meta and traces.current(
                _json_object(_book_dir(store, book_id) / LEMMAS_FILE).get(
                    "trace"), _analysis_parts(store, book_id, config)))):
            todo.append("analyze")
        if todo:
            traces.forget(_analysis_files(store, book_id))
            stale.append((store, book_id, config, tuple(todo)))
    for book_results in _pool_map(_annotate_analyze_one, stale, config.jobs):
        results.update(((r.book_id, r.phase), r) for r in book_results)
    return [results.get((book_id, phase)) or PhaseResult(book_id, phase, True)
            for phase in phases for book_id in book_ids]


def run_annotate(store, config, force=False):
    return _run_stale(("annotate",), store, config, Traces(force))


def run_analyze(store, config, force=False):
    return _run_stale(("analyze",), store, config, Traces(force))


def run_corpus_stats(store, config, force=False, book_ids=None, traces=None):
    """Write corpus.json, the corpus lemma model and the book vectors.

    Nothing is read, trained or written while the memo's trace is current.
    It is recorded only when every kept book succeeded.
    """
    traces = traces or Traces(force)
    if book_ids is None:
        book_ids = kept_book_ids(store)
    memo_path = _corpus_path(store, CORPUS_STATS_MEMO)
    parts = _settings(config, CORPUS_KEYS)
    for book_id in book_ids:
        parts += [book_id, *_analysis_files(store, book_id)]
    parts += [_corpus_path(store, name) for name in CORPUS_OUTPUTS]
    memo = traces.recorded(_json_object, memo_path) or {}
    if traces.current(memo.get("trace"), parts):
        log.debug("corpus-stats: inputs unchanged, %d book(s) reused",
                  len(book_ids))
        return [PhaseResult(book_id, "corpus-stats", True)
                for book_id in book_ids]
    payloads = []
    lemma_counter = Counter()
    streams = {}
    results = []
    book_schema = report.load_schema("book.schema.json")
    for book_id in book_ids:
        try:
            payload, lemmas = _book_analysis(store, book_id, "corpus-stats",
                                             config, book_schema, traces)
            payloads.append(payload)
            lemma_counter.update(lemmas)
            streams[book_id] = analytics_book.strip_stopwords(
                lemmas, lexicon_dir=config.lexicon_dir)
            results.append(PhaseResult(book_id, "corpus-stats", True))
        except BinderyError as exc:
            results.append(_failed(book_id, "corpus-stats", exc))
    if not payloads:
        return results

    stats = build_corpus_stats(payloads, lemma_counter, config)
    report.dump_json(stats, _corpus_path(store, report.CORPUS_JSON),
                     traces.files)

    common = sorted(lemma_counter,
                    key=lambda w: (-lemma_counter[w], w))[:config.vocab_top_common]
    lemma_model = {
        "total": sum(lemma_counter.values()),
        "common": {w: lemma_counter[w] for w in common},
    }
    report.dump_json(lemma_model, _corpus_path(store, LEMMAS_FILE),
                     traces.files)

    vectors_path = _corpus_path(store, VECTORS_FILE)
    try:
        vectors = analytics_book.train_embeddings(
            streams, dim=config.embed_dim, epochs=config.embed_epochs,
            min_count=config.embed_min_count,
            vocab_max=config.embed_vocab_max, negatives=config.embed_negatives,
            learning_rate=config.embed_learning_rate, seed=config.seed)
        vectors.save(vectors_path, traces.files)
    except AnalyticsError as exc:
        log.warning("embedding training skipped: %s", exc)
        vectors_path.unlink(missing_ok=True)
        traces.files[vectors_path] = None
    if all(result.ok for result in results):
        report.dump_json({"trace": traces.digest(parts)}, memo_path)
    return results


def run_report(store, config, force=False, book_ids=None, traces=None):
    """Write each kept book's pages and the corpus pages.

    Pages are kept while their trace in the memo is current. corpus.json
    is read only when some page is stale, and the corpus lemma model and
    the vectors only when some book's page is.
    """
    stats_path = _corpus_path(store, report.CORPUS_JSON)
    if not stats_path.exists():
        raise MissingPhaseError("report", "corpus-stats")
    traces = traces or Traces(force)
    if book_ids is None:
        book_ids = kept_book_ids(store)
    corpus_dir = _corpus_path(store, "")
    corpus_inputs = _settings(config, CORPUS_KEYS) + [
        _corpus_path(store, name) for name in CORPUS_OUTPUTS]
    pages = {book_id: corpus_inputs + _analysis_files(store, book_id)
             + [_book_dir(store, book_id) / name for name in BOOK_PAGES]
             for book_id in book_ids}
    pages[CORPUS_DIR] = corpus_inputs + [corpus_dir / name
                                         for name in CORPUS_PAGES]
    memo_path = _corpus_path(store, REPORT_MEMO)
    memo = traces.recorded(_json_object, memo_path) or {}
    stale = {key for key in pages if not traces.current(memo.get(key),
                                                        pages[key])}
    if stale:
        stats = _read_json(stats_path,
                           report.load_schema("corpus.schema.json"),
                           "bindery.corpus/1")
    if stale - {CORPUS_DIR}:
        lemmas_path = _corpus_path(store, LEMMAS_FILE)
        lemma_model = (_read_json(lemmas_path, LEMMA_MODEL_SCHEMA,
                                  "corpus lemma model")
                       if lemmas_path.exists() else None)
        vectors_path = _corpus_path(store, VECTORS_FILE)
        vectors = (analytics_book.VectorStore.load(vectors_path)
                   if vectors_path.exists() else None)
        book_schema = report.load_schema("book.schema.json")

    results = []
    records = {}  # the memo this run leaves: no record for a failed book
    rendered = 0
    for book_id in book_ids:
        if book_id in stale:
            try:
                payload, lemmas = _book_analysis(store, book_id, "report",
                                                 config, book_schema, traces)
                enrich_book_payload(payload, Counter(lemmas), stats,
                                    lemma_model, vectors, config)
                report.emit_book_report(payload, _book_dir(store, book_id),
                                        traces.files)
            except BinderyError as exc:
                results.append(_failed(book_id, "report", exc))
                continue
            rendered += 1
        records[book_id] = traces.digest(pages[book_id])
        results.append(PhaseResult(book_id, "report", True))
    log.debug("report: %d page(s) reused, %d rendered",
              len(book_ids) - len(stale - {CORPUS_DIR}), rendered)
    if CORPUS_DIR in stale:
        report.emit_corpus_report(stats, corpus_dir, traces.files)
    records[CORPUS_DIR] = traces.digest(pages[CORPUS_DIR])
    report.dump_json(records, memo_path)
    return results


def _timed(name, runner, *args, **kwargs):
    """``runner(*args, **kwargs)``, logging its time and book count at DEBUG."""
    start = time.perf_counter()
    results = runner(*args, **kwargs)
    log.debug("%s: %.3f s, %d book(s)", name, time.perf_counter() - start,
              len({r.book_id for r in results}))
    return results


def run_all(in_dir, store, config, force=False):
    """Every phase in order; annotate and analyze share one pass per book.

    The runners share one ``Traces``, and the later ones take the kept
    books from dedup's results, so the index is read only by dedup. Logs
    each runner's wall time and book count, then the peak memory, at DEBUG.
    """
    traces = Traces(force)
    results = _timed("ingest", run_ingest, in_dir, store, config,
                     traces=traces)
    dedup_results = _timed("dedup", run_dedup, store, config, traces=traces)
    results += dedup_results
    # ``kept_book_ids``, without reading back the index dedup just wrote.
    book_ids = [r.book_id for r in dedup_results if r.duplicate_of is None]
    results += _timed("annotate+analyze", _run_stale, ("annotate", "analyze"),
                      store, config, traces, book_ids)
    results += _timed("corpus-stats", run_corpus_stats, store, config,
                      book_ids=book_ids, traces=traces)
    results += _timed("report", run_report, store, config, book_ids=book_ids,
                      traces=traces)
    # ru_maxrss is in KiB on Linux; pool workers are not counted.
    log.debug("peak memory: %.1f MB",
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return results
