"""Oracle for the table of traces in ``bindery.store``.

Each phase's trace parts as they were built before one table named them:
ingest's, dedup's, corpus-stats' and report's inline in their runners, and
annotate's, analyze's and the run inputs of ``all`` by helpers of the
store module. The key sets are spelt out as they were, so a table row
that drops, adds or reorders a key, or a part, disagrees with them.
"""

from bindery.config import Config
from bindery.store import (BOOK_PAGES, CORPUS_OUTPUTS, CORPUS_PAGES,
                           SourceKind, analysis_files, book_dir, book_xml,
                           corpus_file, discover_sources)

INGEST_KEYS = ("front_window_frac", "front_short_line_len",
               "front_short_line_ratio", "page_separator")
ANNOTATE_KEYS = ("header_max_len", "numbering_gap_tolerance", "lexicon_dir",
                 "min_mentions", "pronoun_sentence_window")
ANALYSIS_KEYS = ("lexicon_dir", "timeline_top_k", "interaction_window",
                 "interaction_min_co")
CORPUS_KEYS = tuple(key for key in Config.field_names()
                    if key not in ("jobs", "mirror_base"))


def settings(config, keys):
    from bindery import __version__
    return [__version__, *(getattr(config, key) for key in keys)]


def source_parts(path, kind):
    if kind == SourceKind.GUTENBERG_TEXT:
        return [path]
    return [part for page in sorted(path.glob("*.txt"))
            for part in (page.name, page)]


def ingest_parts(config, path, kind):
    return settings(config, INGEST_KEYS) + source_parts(path, kind)


def dedup_parts(config):
    """An index record's ``minhash`` and ``matched_under``."""
    minhash = (config.minhash_hashes, config.shingle_size, config.seed)
    matched_under = (config.dedup_content_threshold, config.dedup_title_author)
    return minhash, matched_under


def annotate_parts(meta, config):
    return [*settings(config, ANNOTATE_KEYS), meta.ingest_trace]


def analysis_parts(store, book_id, config):
    return [*(getattr(config, key) for key in ANALYSIS_KEYS),
            book_xml(store, book_id)]


def corpus_stats_parts(store, config, book_ids):
    parts = settings(config, CORPUS_KEYS)
    for book_id in book_ids:
        parts += [book_id, *analysis_files(store, book_id)]
    parts += [corpus_file(store, name) for name in CORPUS_OUTPUTS]
    return parts


def report_parts(store, config, book_ids):
    parts = settings(config, CORPUS_KEYS) + [
        corpus_file(store, name) for name in CORPUS_OUTPUTS]
    for book_id in book_ids:
        parts += [book_id, *analysis_files(store, book_id),
                  *(book_dir(store, book_id) / name for name in BOOK_PAGES)]
    parts += [corpus_file(store, name) for name in CORPUS_PAGES]
    return parts


def run_inputs(in_dir, config):
    parts = settings(config, CORPUS_KEYS)
    for book_id, path, kind in discover_sources(in_dir):
        parts += [book_id, kind.value, *source_parts(path, kind)]
    return parts
