"""Pipeline orchestration over the on-disk store of ``bindery.store``.

The store module's ``Traces`` decides every re-run and its writer writes
every file; phase stamps in ``<meta>`` only enforce ordering. Annotate and
analyze share one parse and one ``book.xml`` write per book. Analyze alone
computes a book's payload and lemmas, and report alone writes
``book.json``. The phase modules and the renderer, bound lazily by the
package, run on first use, and the process pool is imported only when one
starts, so an unchanged store is re-run without any of them, or numpy:
sources are found and the kept set read through ``store`` alone. ``all``
ends by recording its run trace, which lets the next ``all`` over an
unchanged store skip this module altogether.
"""

import hashlib
import importlib
import logging
import re
import resource
import time
from collections import Counter
from dataclasses import dataclass, replace

from . import (analytics_book, analytics_corpus, characters, dedup, ingest,
               linguistic, report, segmentation, xml_model)
from .errors import (AnalyticsError, BinderyError, MissingPhaseError, ParseError,
                     TooShortError)
from .store import (BOOK_PAGES, CORPUS_JSON, CORPUS_KEYS, CORPUS_OUTPUTS,
                    CORPUS_PAGES, CORPUS_STATS_MEMO, INDEX_FILE,
                    INGEST_KEYS, LEMMA_MODEL_SCHEMA, LEMMAS_FILE, REPORT_MEMO,
                    VECTORS_FILE, PhaseResult, SourceKind, Traces,
                    analysis_files, analysis_parts, annotate_parts,
                    book_analysis, book_dir, book_xml, corpus_file,
                    current_analysis, discover_sources, dump_json,
                    load_schema, log_duplicates, read_json,
                    record_run, run_inputs, settings, source_parts,
                    store_book_ids, write_if_changed)
from .xml_model import AnnotatedBook, BookMeta

log = logging.getLogger(__name__)


# -- per-book construction --------------------------------------------------------


def canonicalize_body(text):
    """Canonical body text: stripped lines, single blank line between blocks."""
    lines = "\n".join(line.strip() for line in text.split("\n"))
    return "\n\n".join(re.split(r"\n{2,}", lines.strip("\n")))


def ingest_to_book(raw, config):
    """Build the ingest-stage annotated book from a raw source."""
    fb_source = raw
    if raw.source_kind == SourceKind.GUTENBERG_TEXT:
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
            corpus=("gutenberg" if raw.source_kind == SourceKind.GUTENBERG_TEXT
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
    become ordinary blocks. ``annotate_book`` starts an annotated book here.
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
    table = linguistic.token_table(book)
    records, assignments = characters.identify_characters(
        book, table, min_mentions=config.min_mentions,
        pronoun_window=config.pronoun_sentence_window,
        lexicon_dir=config.lexicon_dir)
    quotes = linguistic.extract_quotes(list(book.iter_paragraphs()))
    linguistic.attribute_quotes(quotes, table, assignments,
                                lexicon_dir=config.lexicon_dir)
    characters.attach_pronoun_counts(table, records, quotes, assignments,
                                     window=config.pronoun_sentence_window)
    book.add_phase("characters")
    return book


def annotate_book(book, config):
    if book.has_phase("segment"):
        to_raw_stage(book)
    segment_book(book, config)
    linguistic_book(book, config)
    characters_book(book, config)
    return book


# -- analytics payloads -------------------------------------------------------------


def build_book_payload(book, config):
    """The per-book analytics document (corpus-relative fields left null)
    and the book's lemma sequence, both from one walk over its words."""
    _require(book, "analytics", "characters")
    protagonist, ratio = characters.protagonist_stats(book.characters)
    stats = analytics_book.text_stats(book, lexicon_dir=config.lexicon_dir)
    try:
        readability = analytics_book.readability_suite(stats)
    except AnalyticsError:
        readability = None
    try:
        pos = analytics_book.pos_distribution(stats)
    except AnalyticsError:
        pos = None
    timeline = characters.build_occurrence_timeline(
        book, top_k=config.timeline_top_k)
    network = characters.build_interaction_network(
        book.characters, window=config.interaction_window,
        min_co=config.interaction_min_co)
    payload = {
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
            "tokens": sum(len(s.tokens) for s in book.iter_sentences()),
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
    return payload, stats.lemmas


def build_corpus_stats(payloads, config):
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


@dataclass
class CorpusContext:
    """What every book's corpus-relative sections read, made once per run."""

    common: object  # analytics_book.CommonWords; None without a lemma model
    vectors: object  # analytics_book.VectorStore or None
    corpus_of: dict  # book id: corpus label
    pos_distributions: dict  # tag: the books' percentages, sorted
    pos_means: dict  # tag: mean, for each tag with percentages
    male_population: list  # the books' percentages of male characters, sorted


def corpus_context(stats, lemma_model, vectors, config):
    """The :class:`CorpusContext` of the corpus analytics ``stats``, the
    corpus lemma model and the book vectors."""
    common = None
    if lemma_model and lemma_model.get("total", 0) > 0:
        common = analytics_book.common_words(
            lemma_model["common"], top_common=config.vocab_top_common)
    distributions = stats.get("pos_distributions") or {}
    return CorpusContext(
        common=common,
        vectors=vectors,
        corpus_of={b["id"]: (b["corpus"] or "") for b in stats["books"]},
        pos_distributions={tag: sorted(values)
                           for tag, values in distributions.items()},
        # Summed in stored order, which fixes the float each mean rounds to.
        pos_means={tag: sum(values) / len(values)
                   for tag, values in sorted(distributions.items()) if values},
        male_population=sorted(
            stats.get("gender_pct_population", {}).get("male", [])))


def enrich_book_payload(payload, lemma_counts, corpus, config):
    """Fill corpus-relative sections: vocabulary, similar books, placement.

    ``lemma_counts`` is the book's lemma :class:`Counter` and ``corpus``
    its :class:`CorpusContext`.
    """
    if corpus.common is not None:
        try:
            vocab = analytics_book.representative_vocabulary(
                lemma_counts, corpus.common, list_len=config.vocab_list_len)
            payload["vocabulary"] = {
                "most": [[w, r] for w, r in vocab.most],
                "least": [[w, r] for w, r in vocab.least],
                "missing": [[w, c] for w, c in vocab.missing],
            }
        except AnalyticsError:
            payload["vocabulary"] = None
    vectors = corpus.vectors
    if vectors is not None and payload["id"] in vectors.rows:
        grouped = analytics_book.most_similar(
            payload["id"], vectors, k=config.similar_top_k,
            corpus_of=corpus.corpus_of)
        payload["similar"] = {
            label: [[other, sim] for other, sim in entries]
            for label, entries in grouped.items()}

    placement = {}
    if payload["pos"] and corpus.pos_distributions:
        tags = [tag for tag in corpus.pos_means if tag in payload["pos"]]
        placement["pos_percentiles"] = {
            tag: analytics_corpus.sorted_percentile(
                payload["pos"][tag]["percent"], corpus.pos_distributions[tag])
            for tag in tags}
        placement["pos_mean"] = {tag: corpus.pos_means[tag] for tag in tags}
    males = sum(1 for c in payload["characters"] if c["gender"] == "male")
    females = sum(1 for c in payload["characters"] if c["gender"] == "female")
    population = corpus.male_population
    if males + females > 0:
        pct_male = 100.0 * males / (males + females)
        placement["gender_pct"] = {
            "male": pct_male,
            "female": 100.0 - pct_male,
            "percentile_male": (
                analytics_corpus.sorted_percentile(pct_male, population)
                if population else None),
        }
    payload["placement"] = placement or None
    return payload


# -- phase runners ----------------------------------------------------------------


def _failed(book_id, phase, exc):
    return PhaseResult(book_id, phase, False, str(exc))


def _read_source(path, kind, config):
    """The RawBook of a source; a file of it that cannot be read fails it."""
    try:
        if kind == SourceKind.GUTENBERG_TEXT:
            return ingest.read_gutenberg(path)
        return ingest.read_hathi_pagewise(
            path, page_separator=config.page_separator)
    except OSError as exc:
        raise BinderyError(f"cannot read source: {exc}") from exc


def run_ingest(in_dir, store, config, traces):
    """Ingest every source of ``in_dir`` whose book's ingest trace is not
    current into the book's book.xml.

    Sources that map to one book id (``1001.txt`` and ``pg1001.txt``) fail
    that id with one error naming them all. A book whose sources fail
    loses its stored book.xml, lemma file and pages, so no later phase
    takes it for the book it was and no stale page stays; a book.xml whose
    ``<meta>`` cannot be read fails and stays.
    """
    sources = {}
    for book_id, path, kind in discover_sources(in_dir):
        sources.setdefault(book_id, []).append((path, kind))
    results = []
    for book_id, found in sources.items():
        xml_path = book_xml(store, book_id)
        try:
            meta = traces.recorded(traces.head, xml_path)
        except BinderyError as exc:
            results.append(_failed(book_id, "ingest", exc))
            continue
        try:
            if len(found) > 1:
                raise BinderyError("sources map to the same book id: "
                                   + ", ".join(str(p) for p, _ in found))
            [(path, kind)] = found
            parts = settings(config, INGEST_KEYS) + source_parts(path, kind)
            if not traces.current(meta and meta.ingest_trace, parts):
                book = ingest_to_book(_read_source(path, kind, config), config)
                book.meta.ingest_trace = traces.digest(parts)
                traces.forget([xml_path])
                write_if_changed(xml_path, xml_model.serialize_pieces(book))
            results.append(PhaseResult(book_id, "ingest", True))
        except BinderyError as exc:
            traces.remove([*analysis_files(store, book_id),
                           *(book_dir(store, book_id) / name
                             for name in BOOK_PAGES)])
            results.append(_failed(book_id, "ingest", exc))
    return results


def _previous_index(store):
    """The last dedup index by book id; empty when missing or unreadable."""
    try:
        index = dedup.CorpusIndex.load(corpus_file(store, INDEX_FILE))
    except FileNotFoundError:
        return {}
    except (OSError, ParseError) as exc:
        log.warning("dedup: previous index unusable, fingerprinting every "
                    "book: %s", exc)
        return {}
    return {entry.book_id: entry for entry in index.entries}


def _memoized_entry(store, book_id, record, minhash, matched_under, traces):
    """``book_id``'s dedup entry rebuilt from its last index record while
    the body digest and ``minhash`` parameters it names are current, or
    None; only the book's ``<meta>`` is read. The entry keeps the record's
    matches while they were found under ``matched_under`` and the book's
    normalized title and author are still those of the record."""
    if (record is None or record.body_sha256 is None
            or (record.fingerprint is not None
                and len(record.fingerprint.signature) != minhash[0])):
        return None
    meta = traces.head(book_xml(store, book_id))
    if (record.body_sha256, record.minhash) != (meta.body_sha256, minhash):
        return None
    fp = None
    if record.fingerprint is not None:
        fp = dedup.BookFingerprint(
            normalized_title=dedup.normalize_name(meta.title),
            normalized_author=dedup.normalize_name(meta.author),
            signature=record.fingerprint.signature)
    entry = _dedup_entry(book_id, meta, record.text_length, fp, minhash)
    if record.matched_under == matched_under and fp == record.fingerprint:
        entry.matches = record.matches
    return entry


def _fingerprinted_entry(store, book_id, config, minhash):
    """``book_id``'s dedup entry from a full parse of its body."""
    book = xml_model.load(book_xml(store, book_id))
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


def run_dedup(store, config, traces):
    """Fingerprint every stored book, mark duplicates and write the index.

    A book whose record in the previous index is current (see
    ``_memoized_entry``) reuses its fingerprint, and its matches with the
    other books that keep theirs; every other book is compared with all
    the others.
    """
    minhash = (config.minhash_hashes, config.shingle_size, config.seed)
    matched_under = (config.dedup_content_threshold, config.dedup_title_author)
    memo = traces.recorded(_previous_index, store) or {}
    index = dedup.CorpusIndex()
    results = []
    reused = 0
    for book_id in store_book_ids(store):
        try:
            entry = _memoized_entry(store, book_id, memo.get(book_id), minhash,
                                    matched_under, traces)
            if entry is None:
                entry = _fingerprinted_entry(store, book_id, config, minhash)
            else:
                reused += 1
            index.entries.append(entry)
            results.append(PhaseResult(book_id, "dedup", True))
        except BinderyError as exc:
            results.append(_failed(book_id, "dedup", exc))
    settled = [e.book_id for e in index.entries if e.matches is not None]
    log.debug("dedup: %d fingerprint(s) reused, %d computed, %d book(s) "
              "compared", reused, len(index.entries) - reused,
              sum(e.fingerprint is not None and e.matches is None
                  for e in index.entries))
    dedup.dedup_corpus(index,
                       title_author_match=config.dedup_title_author,
                       content_threshold=config.dedup_content_threshold,
                       settled=settled)
    index.save(corpus_file(store, INDEX_FILE), traces.files)
    removed = {e.book_id: e.representative_of for e in index.entries
               if e.is_duplicate}
    for result in results:
        result.duplicate_of = removed.get(result.book_id)
    log_duplicates(removed)
    return results


def _annotate_analyze_one(args):
    """Run ``phases``, annotate and/or analyze in that order, on one book.

    The book is parsed once and its book.xml written once, then the lemma
    file: the bare payload, the lemmas and their trace. The results are
    those of running the phases one after another: a failed load fails
    every phase; after a failed annotate, analyze runs on the book.xml
    still on disk; after a failed analyze, the annotation is still
    written; when every phase fails, nothing is. Each tree is validated
    once, so the write takes the unchecked ``xml_model.pieces``: an
    annotated book by annotate, which fails on an annotation that breaks
    an invariant as a standalone annotate would; a book that analyze
    reads from disk, alone or after a failed annotate, by its parse.
    Analyze's one change to the tree, its phase stamp, is checked by
    ``add_phase``.
    """
    store, book_id, config, phases = args
    path = book_xml(store, book_id)
    try:
        book = xml_model.load(path)
    except BinderyError as exc:
        return [_failed(book_id, phase, exc) for phase in phases]
    traces = Traces(False)  # book.xml, its one file, gets the digest written
    errors = {}
    if "annotate" in phases:
        try:
            annotate_book(book, config)
            book.meta.annotate_trace = traces.digest(
                annotate_parts(book.meta, config))
            xml_model.validate(book)
        except BinderyError as exc:
            errors["annotate"] = exc
    analysis = None
    if "analyze" in phases:
        try:
            if "annotate" in errors:
                book = xml_model.load(path)
            payload, lemmas = build_book_payload(book, config)
            analysis = {"payload": payload, "lemmas": lemmas}
            book.add_phase("analytics")
        except BinderyError as exc:
            errors["analyze"] = exc
    if len(errors) < len(phases):
        write_if_changed(path, xml_model.pieces(book), traces.files)
    if analysis is not None:
        analysis["trace"] = traces.digest(
            analysis_parts(store, book_id, config))
        dump_json(analysis, book_dir(store, book_id) / LEMMAS_FILE)
    return [_failed(book_id, phase, errors[phase]) if phase in errors
            else PhaseResult(book_id, phase, True) for phase in phases]


# The lazily bound modules ``_annotate_analyze_one`` runs.
WORKER_MODULES = ("segmentation", "linguistic", "characters", "analytics_book")


def _pool_map(worker, args_list, jobs):
    if jobs <= 1 or len(args_list) <= 1:
        return [worker(args) for args in args_list]
    # Imported here: loading the pool machinery costs a run that starts none.
    from concurrent.futures import ProcessPoolExecutor
    # Run once here, before the workers fork, not once in each of them.
    for name in WORKER_MODULES:
        importlib.import_module(f"{__package__}.{name}")
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, args_list))


def _run_stale(phases, store, config, traces, book_ids):
    """Run ``phases`` (annotate and/or analyze) over the books ``book_ids``.

    A book needs annotate while the trace in its ``<meta>`` is not
    current, and analyze while its lemma file's is not or annotate is to
    run. Up-to-date books are neither fully parsed nor sent, and a run
    with nothing pending starts no pool. A sent book leaves ``traces``: a
    worker process may rewrite its files. Returns one result per book per
    phase, phase by phase.
    """
    results = {}
    stale = []
    for book_id in book_ids:
        try:  # None under force
            meta = traces.recorded(traces.head, book_xml(store, book_id))
        except BinderyError as exc:
            results.update(((book_id, phase), _failed(book_id, phase, exc))
                           for phase in phases)
            continue
        todo = []
        if "annotate" in phases and not (meta and traces.current(
                meta.annotate_trace, annotate_parts(meta, config))):
            todo.append("annotate")
        if "analyze" in phases and (todo or not (meta and current_analysis(
                store, book_id, config, traces))):
            todo.append("analyze")
        if todo:
            traces.forget(analysis_files(store, book_id))
            stale.append((store, book_id, config, tuple(todo)))
    for book_results in _pool_map(_annotate_analyze_one, stale, config.jobs):
        results.update(((r.book_id, r.phase), r) for r in book_results)
    return [results.get((book_id, phase)) or PhaseResult(book_id, phase, True)
            for phase in phases for book_id in book_ids]


def run_annotate(store, config, traces, book_ids):
    return _run_stale(("annotate",), store, config, traces, book_ids)


def run_analyze(store, config, traces, book_ids):
    return _run_stale(("analyze",), store, config, traces, book_ids)


def run_corpus_stats(store, config, traces, book_ids):
    """Write corpus.json, the corpus lemma model and the book vectors of
    the books ``book_ids``; with no book analyzed, a zero-book corpus.

    Nothing is read, trained or written while the memo's trace is current.
    It is recorded only when every book succeeded.
    """
    memo_path = corpus_file(store, CORPUS_STATS_MEMO)
    parts = settings(config, CORPUS_KEYS)
    for book_id in book_ids:
        parts += [book_id, *analysis_files(store, book_id)]
    parts += [corpus_file(store, name) for name in CORPUS_OUTPUTS]
    if traces.memo_current(memo_path, parts):
        log.debug("corpus-stats: inputs unchanged, %d book(s) reused",
                  len(book_ids))
        return [PhaseResult(book_id, "corpus-stats", True)
                for book_id in book_ids]
    payloads = []
    lemma_counter = Counter()
    streams = {}
    results = []
    book_schema = load_schema("book.schema.json")
    for book_id in book_ids:
        try:
            payload, lemmas = book_analysis(store, book_id, "corpus-stats",
                                            config, book_schema, traces)
            payloads.append(payload)
            lemma_counter.update(lemmas)
            streams[book_id] = analytics_book.strip_stopwords(
                lemmas, lexicon_dir=config.lexicon_dir)
            results.append(PhaseResult(book_id, "corpus-stats", True))
        except BinderyError as exc:
            results.append(_failed(book_id, "corpus-stats", exc))

    stats = build_corpus_stats(payloads, config)
    dump_json(stats, corpus_file(store, CORPUS_JSON), traces.files)

    common = analytics_book.common_words(lemma_counter,
                                         top_common=config.vocab_top_common)
    lemma_model = {"total": common.total, "common": dict(common.ranked)}
    dump_json(lemma_model, corpus_file(store, LEMMAS_FILE), traces.files)

    vectors_path = corpus_file(store, VECTORS_FILE)
    try:
        vectors = analytics_book.train_embeddings(
            streams, dim=config.embed_dim, epochs=config.embed_epochs,
            min_count=config.embed_min_count,
            vocab_max=config.embed_vocab_max, negatives=config.embed_negatives,
            learning_rate=config.embed_learning_rate, seed=config.seed)
        vectors.save(vectors_path, traces.files)
    except AnalyticsError as exc:
        log.warning("embedding training skipped: %s", exc)
        traces.remove([vectors_path])
    traces.record_memo(memo_path, parts, results)
    return results


def run_report(store, config, traces, book_ids):
    """Write the pages of the books ``book_ids`` and the corpus pages.

    Nothing is read or rendered while the memo's trace is current; it
    covers every page and what they are made from, and is recorded only
    when every book succeeded. Otherwise corpus.json, the corpus lemma
    model and the vectors are read once and every page is rendered.
    """
    stats_path = corpus_file(store, CORPUS_JSON)
    if not stats_path.exists():
        raise MissingPhaseError("report", "corpus-stats")
    parts = settings(config, CORPUS_KEYS) + [
        corpus_file(store, name) for name in CORPUS_OUTPUTS]
    for book_id in book_ids:
        parts += [book_id, *analysis_files(store, book_id),
                  *(book_dir(store, book_id) / name for name in BOOK_PAGES)]
    parts += [corpus_file(store, name) for name in CORPUS_PAGES]
    memo_path = corpus_file(store, REPORT_MEMO)
    if traces.memo_current(memo_path, parts):
        log.debug("report: %d page(s) reused, 0 rendered", len(book_ids))
        return [PhaseResult(book_id, "report", True) for book_id in book_ids]
    stats = read_json(stats_path, load_schema("corpus.schema.json"),
                      "bindery.corpus/1")
    lemmas_path = corpus_file(store, LEMMAS_FILE)
    lemma_model = (read_json(lemmas_path, LEMMA_MODEL_SCHEMA,
                             "corpus lemma model")
                   if lemmas_path.exists() else None)
    vectors_path = corpus_file(store, VECTORS_FILE)
    vectors = (analytics_book.VectorStore.load(vectors_path)
               if vectors_path.exists() else None)
    corpus = corpus_context(stats, lemma_model, vectors, config)
    book_schema = load_schema("book.schema.json")
    results = []
    for book_id in book_ids:
        try:
            payload, lemmas = book_analysis(store, book_id, "report", config,
                                            book_schema, traces)
            enrich_book_payload(payload, Counter(lemmas), corpus, config)
            report.emit_book_report(payload, book_dir(store, book_id),
                                    traces.files)
            results.append(PhaseResult(book_id, "report", True))
        except BinderyError as exc:
            results.append(_failed(book_id, "report", exc))
    log.debug("report: 0 page(s) reused, %d rendered",
              sum(result.ok for result in results))
    report.emit_corpus_report(stats, corpus_file(store, ""), traces.files)
    traces.record_memo(memo_path, parts, results)
    return results


def _timed(name, runner, *args):
    """``runner(*args)``, logging its time and book count at DEBUG."""
    start = time.perf_counter()
    results = runner(*args)
    log.debug("%s: %.3f s, %d book(s)", name, time.perf_counter() - start,
              len({r.book_id for r in results}))
    return results


def run_all(in_dir, store, config, traces):
    """Every phase in order; annotate and analyze share one pass per book.

    The runners share ``traces``, and the later ones take the kept books
    from dedup's results, so the index is read only by dedup. Logs each
    runner's wall time and book count, then the peak memory of this
    process and of its largest pool worker, at DEBUG. Ends by recording
    the run trace when every result is ok (``store.record_run``).
    """
    # Found before ingest: a source added while the run runs is not covered.
    inputs = run_inputs(in_dir, config)
    results = _timed("ingest", run_ingest, in_dir, store, config, traces)
    dedup_results = _timed("dedup", run_dedup, store, config, traces)
    results += dedup_results
    # ``kept_book_ids``, without reading back the index dedup just wrote.
    book_ids = [r.book_id for r in dedup_results if r.duplicate_of is None]
    results += _timed("annotate+analyze", _run_stale, ("annotate", "analyze"),
                      store, config, traces, book_ids)
    results += _timed("corpus-stats", run_corpus_stats, store, config, traces,
                      book_ids)
    results += _timed("report", run_report, store, config, traces, book_ids)
    record_run(inputs, store, traces, results)
    # ru_maxrss is in KiB on Linux. For RUSAGE_CHILDREN it is that of the
    # largest child process waited for: in a CLI run, a pool worker (0 when
    # none ran).
    log.debug("peak memory: %.1f MB, largest pool worker: %.1f MB",
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
    return results
