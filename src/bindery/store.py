"""The on-disk store: its layout, its one writer, its readers and its traces.

Layout: ``store/<book_id>/{book.xml, lemmas.json, book.json, index.html}``
with corpus-level files under ``store/_corpus/`` (docs/formats.md); book
ids come from their sources by the one source-id rule here. Every file a
run leaves in a store is written here: atomically and only when its bytes
change, through ``write_if_changed``, or appended to the progress log.
``Traces`` is the one rule that decides whether an output is current; the
``*_KEYS`` sets and ``*_parts`` rules name what each trace covers. The run
trace of ``all`` (``run_parts``) lets a run that changes nothing replay the
results it recorded through this module alone: ``xml_model``, which
``Traces.head`` reads ``<meta>`` with, is bound lazily by the package.
"""

import hashlib
import itertools
import json
import logging
import os
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from . import xml_model
from .config import Config
from .errors import MissingPhaseError, ParseError

# The phase runners' logger: a replayed run repeats their dedup line.
_runner_log = logging.getLogger(f"{__package__}.pipeline")

CORPUS_DIR = "_corpus"
INDEX_FILE = "index.jsonl"
# The corpus lemma model under _corpus/; a book's lemma file in its dir.
LEMMAS_FILE = "lemmas.json"
VECTORS_FILE = "vectors.bin"
PROGRESS_FILE = "progress.jsonl"
CORPUS_STATS_MEMO = "corpus-stats.memo"
REPORT_MEMO = "report.memo"
# The run trace of ``all`` and its results; it covers every other file of
# the store but the progress log.
ALL_MEMO = "all.memo"
# Written by corpus-stats, its one writer, and read by report.
CORPUS_JSON = "corpus.json"
# What corpus-stats writes under _corpus/, and what every report page reads.
CORPUS_OUTPUTS = (CORPUS_JSON, LEMMAS_FILE, VECTORS_FILE)
# What report, their one writer, writes per book and for the corpus.
BOOK_JSON, BOOK_HTML = BOOK_PAGES = ("book.json", "index.html")
CORPUS_HTML, AUTHORS_HTML, SUBJECTS_HTML = CORPUS_PAGES = (
    "corpus.html", "authors.html", "subjects.html")
SCHEMA_DIR = Path(__file__).parent / "schemas"

# The config keys each trace covers: what ingest reads for one book, what
# annotate_book reads, what build_book_payload reads, and for corpus-stats
# and report every key but jobs and mirror_base, which only fetch reads.
INGEST_KEYS = ("front_window_frac", "front_short_line_len",
               "front_short_line_ratio", "page_separator")
ANNOTATE_KEYS = ("header_max_len", "numbering_gap_tolerance", "lexicon_dir",
                 "min_mentions", "pronoun_sentence_window")
ANALYSIS_KEYS = ("lexicon_dir", "timeline_top_k", "interaction_window",
                 "interaction_min_co")
CORPUS_KEYS = tuple(key for key in Config.field_names()
                    if key not in ("jobs", "mirror_base"))
# What ``all`` records beside its run trace: each phase's book ids in the
# order of its results, and the duplicates dedup found.
RUN_MEMO_SCHEMA = {
    "type": "object", "required": ["trace", "phases", "duplicates"],
    "properties": {
        "trace": {"type": "string"},
        "phases": {"type": "array", "items": {
            "type": "object", "required": ["phase", "books"],
            "properties": {
                "phase": {"type": "string"},
                "books": {"type": "array", "items": {"type": "string"}}}}},
        "duplicates": {"type": "object",
                       "additionalProperties": {"type": "string"}}}}
LEMMA_MODEL_SCHEMA = {
    "type": "object", "required": ["total", "common"],
    "properties": {
        "total": {"type": "integer"},
        "common": {"type": "object",
                   "additionalProperties": {"type": "integer"}}}}


# -- sources and layout ------------------------------------------------------------


class SourceKind(str, Enum):
    GUTENBERG_TEXT = "gutenberg_text"
    HATHI_PAGEWISE = "hathi_pagewise"


def gutenberg_id(path):
    """Source id of a Gutenberg text file: ``pg`` plus its number or stem."""
    stem = Path(path).stem
    match = re.fullmatch(r"(?:pg)?(\d+)", stem)
    return f"pg{match.group(1) if match else stem}"


def hathi_id(directory):
    """Source id of a page-wise book directory: ``ht`` plus its name."""
    return f"ht{Path(directory).name}"


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
            sources.append((gutenberg_id(entry), entry,
                            SourceKind.GUTENBERG_TEXT))
        elif entry.is_dir() and any(p.suffix == ".txt" for p in entry.iterdir()):
            sources.append((hathi_id(entry), entry, SourceKind.HATHI_PAGEWISE))
    return sources


def book_dir(store, book_id):
    return Path(store) / book_id


def book_xml(store, book_id):
    return book_dir(store, book_id) / "book.xml"


def corpus_file(store, name):
    return Path(store) / CORPUS_DIR / name


def store_book_ids(store):
    return sorted(p.parent.name for p in Path(store).glob("*/book.xml"))


def kept_book_ids(store):
    """Book ids that survived dedup (all books when dedup has not run)."""
    index_path = corpus_file(store, INDEX_FILE)
    duplicates = index_duplicates(index_path) if index_path.exists() else {}
    return [b for b in store_book_ids(store) if b not in duplicates]


# -- the writer -------------------------------------------------------------------


def dump_json(payload, path, digests=None):
    """Write canonical JSON a chunk at a time; returns True when the file
    content changed."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    return write_if_changed(path, itertools.chain(chunks, ["\n"]), digests)


# Bytes gathered before each write of a temporary file, and read at a time
# when a file is digested.
_BATCH = 1 << 16


def write_if_changed(path, content, digests=None):
    """Write ``content`` to ``path`` only when it differs from the file,
    preserving timestamps on no-ops; returns True when the file changed.

    ``content`` is str, bytes, or an iterable of str or bytes pieces,
    encoded as UTF-8, hashed and written about 64 KB at a time to a
    temporary file beside ``path`` (made as any file is, so with the usual
    mode), which replaces the file unless the file's digest is the same.
    So a killed run, or pieces that raise part-way, leave the old file or
    the new one, never a truncated one. ``digests``, a dict of file digests
    by path, gets the hex SHA-256 of the bytes once the file holds them.
    """
    path = Path(path)
    pieces = [content] if isinstance(content, (str, bytes)) else content
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    sha = hashlib.sha256()
    try:
        with tmp.open("wb") as fh:
            for batch in _encoded_batches(pieces):
                sha.update(batch)
                fh.write(batch)
        digest = sha.hexdigest()
        changed = file_digest(path) != digest
        if changed:
            os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    if digests is not None:
        digests[path] = digest
    return changed


def _encoded_batches(pieces):
    """The UTF-8 bytes of str or bytes ``pieces`` in runs of about _BATCH."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            yield _encoded(batch)
            batch, size = [], 0
    yield _encoded(batch)


def _encoded(batch):
    try:
        return "".join(batch).encode("utf-8")
    except TypeError:  # bytes among the pieces
        return b"".join(piece.encode("utf-8") if isinstance(piece, str)
                        else piece for piece in batch)


def file_digest(path):
    """The hex SHA-256 of a file's bytes, read _BATCH bytes at a time, so
    no more than one chunk of the file is held; None when the file is
    missing or unreadable."""
    sha = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(_BATCH):
                sha.update(chunk)
    except OSError:
        return None
    return sha.hexdigest()


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


def append_progress(store, results):
    """Append one JSON line per phase result to the store's progress log."""
    path = corpus_file(store, PROGRESS_FILE)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        for result in results:
            fh.write(json.dumps({
                "book": result.book_id,
                "phase": result.phase,
                "status": "ok" if result.ok else "error",
                "error": result.error,
            }, sort_keys=True) + "\n")


# -- readers ----------------------------------------------------------------------


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


_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
          "number": (int, float), "boolean": bool, "null": type(None)}


def _type_ok(value, type_name):
    if isinstance(value, bool) and type_name in ("integer", "number"):
        return False
    return isinstance(value, _TYPES.get(type_name, ()))


def _invalid(path, what, errors):
    """The ParseError of a file that is not ``what``: its first 3 errors."""
    return ParseError(f"{path}: not {what}: " + "; ".join(errors[:3]))


def read_json(path, schema, kind):
    """A JSON store file that matches ``schema``, a ``kind`` document;
    ParseError if it is truncated, malformed or of the wrong shape."""
    try:
        payload = json.loads(path.read_bytes())
    except ValueError as exc:
        raise ParseError(f"{path}: malformed JSON: {exc}") from exc
    errors = validate_schema(payload, schema)
    if errors:
        raise _invalid(path, f"a {kind} document", errors)
    return payload


def index_records(path):
    """``(line number, record)`` for each record of a dedup index, read a
    line at a time; a line that is not JSON, or a record that is not an
    object with a string id, raises ParseError naming the file and line."""
    for number, line in _numbered_lines(path):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ParseError(f"{path}: malformed JSON: {exc}",
                             line=number) from exc
        if not isinstance(record, dict) or not isinstance(record.get("id"), str):
            raise ParseError(f"{path}: record is not an object with a "
                             "string id", line=number)
        yield number, record


def _numbered_lines(path):
    """``(number, line)`` for each line of a file, read a line at a time and
    numbered from 1 as ``bytes.splitlines`` splits: at LF, CR and CR LF."""
    with open(path, "rb") as fh:
        yield from enumerate((line for chunk in fh
                              for line in chunk.splitlines()), start=1)


def index_duplicates(path):
    """The duplicates a dedup index marks: book id to its representative."""
    return {record["id"]: record["representative_of"]
            for _, record in index_records(path)
            if record.get("representative_of") is not None}


def _json_object(path):
    """A JSON file's object; {} if it is missing, malformed or not one."""
    try:
        payload = json.loads(path.read_bytes())
    except (OSError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}


# -- traces ------------------------------------------------------------------------


class Traces:
    """The one rule that decides whether an output is current.

    An output is current iff the digest of its named inputs, recorded
    beside it, still matches: the "verifying traces" of Mokhov, Mitchell
    and Peyton Jones, "Build Systems a la Carte" (ICFP 2018). The inputs
    are JSON values and files; a ``Path`` stands for its file's bytes.
    One instance serves a run, so it digests each file and reads each
    ``<meta>`` at most once (``files``, ``heads``; a write given
    ``traces.files`` records the digest of what it leaves). Under
    ``force``, the run's one redo switch, no recorded trace is read.
    """

    def __init__(self, force):
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
            self.files[path] = file_digest(path)
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

    def remove(self, paths):
        """Delete the files at ``paths`` and record them as missing."""
        for path in paths:
            path.unlink(missing_ok=True)
            self.files[path] = None
            self.heads.pop(path, None)

    def memo_current(self, path, parts):
        """Whether the memo at ``path`` records the trace of ``parts``."""
        memo = self.recorded(_json_object, path) or {}
        return self.current(memo.get("trace"), parts)

    def record_memo(self, path, parts, results, extra=None):
        """Record the trace of ``parts``, and the ``extra`` fields, at
        ``path`` if every result is ok."""
        if all(result.ok for result in results):
            dump_json({"trace": self.digest(parts), **(extra or {})}, path,
                      self.files)


def settings(config, keys):
    """The bindery version and the ``keys`` settings."""
    from . import __version__  # looked up per call, not frozen at import
    return [__version__, *(getattr(config, key) for key in keys)]


def source_parts(path, kind):
    """A text source, or each ``.txt`` file of a page-wise one, by name."""
    if kind == SourceKind.GUTENBERG_TEXT:
        return [path]
    return [part for page in sorted(path.glob("*.txt"))
            for part in (page.name, page)]


def annotate_parts(meta, config):
    return [*settings(config, ANNOTATE_KEYS), meta.ingest_trace]


def analysis_files(store, book_id):
    """A book's book.xml and lemma file: what ``book_analysis`` reads."""
    return [book_xml(store, book_id), book_dir(store, book_id) / LEMMAS_FILE]


def analysis_parts(store, book_id, config):
    # The version reaches it through the traces in book.xml's <meta>.
    return [*(getattr(config, key) for key in ANALYSIS_KEYS),
            book_xml(store, book_id)]


def current_analysis(store, book_id, config, traces):
    """A book's decoded lemma file while its trace is current, else None."""
    analysis = _json_object(book_dir(store, book_id) / LEMMAS_FILE)
    current = traces.current(analysis.get("trace"),
                             analysis_parts(store, book_id, config))
    return analysis if current else None


def book_analysis(store, book_id, phase, config, book_schema, traces):
    """``(payload, lemmas)`` from a book's current lemma file; the book fails
    ``phase`` otherwise, and a file of the wrong shape is removed."""
    analysis = current_analysis(store, book_id, config, traces)
    if analysis is None:
        raise MissingPhaseError(phase, "analyze")
    payload, lemmas = analysis.get("payload"), analysis.get("lemmas")
    errors = validate_schema(payload, book_schema, "$.payload")
    if not (isinstance(lemmas, list)
            and all(isinstance(w, str) for w in lemmas)):
        errors.append("$.lemmas: expected a list of strings")
    if errors:
        path = book_dir(store, book_id) / LEMMAS_FILE
        traces.remove([path])
        raise _invalid(path, "a book analysis", errors)
    return payload, lemmas


# -- the run trace of all ---------------------------------------------------------


def run_parts(in_dir, store, config):
    """What the run memo covers: ``run_inputs`` and ``stored_files``."""
    return run_inputs(in_dir, config) + stored_files(store)


def run_inputs(in_dir, config):
    """Every key, and each source found now: its id, kind and parts."""
    parts = settings(config, CORPUS_KEYS)
    for book_id, path, kind in discover_sources(in_dir):
        parts += [book_id, kind.value, *source_parts(path, kind)]
    return parts


def stored_files(store):
    """Every file of the store but the progress log and the run memo, by
    its path relative to the store, in path order."""
    store = Path(store)
    untraced = {f"{CORPUS_DIR}/{PROGRESS_FILE}", f"{CORPUS_DIR}/{ALL_MEMO}"}
    files = sorted((path.relative_to(store).as_posix(), path)
                   for root, _, names in os.walk(store)
                   for path in (Path(root, name) for name in names))
    return [part for name, path in files if name not in untraced
            for part in (name, path)]


def record_run(inputs, store, traces, results):
    """Record the run trace of an ``all`` whose every result is ok, over
    its ``run_inputs`` as found before ingest and the store it leaves, with
    the results: each phase's book ids in order, and the duplicates."""
    if not all(result.ok for result in results):
        return
    phases = {}
    for result in results:
        phases.setdefault(result.phase, []).append(result.book_id)
    traces.record_memo(
        corpus_file(store, ALL_MEMO), inputs + stored_files(store), results,
        {"phases": [{"phase": phase, "books": books}
                    for phase, books in phases.items()],
         "duplicates": {r.book_id: r.duplicate_of for r in results
                        if r.duplicate_of is not None}})


def replay_run(in_dir, store, config, traces):
    """The results the last ``all`` recorded while its run trace is current,
    logged as dedup logged them; None otherwise, and under force."""
    memo = traces.recorded(_json_object, corpus_file(store, ALL_MEMO)) or {}
    if not ("trace" in memo and traces.current(
            memo["trace"], run_parts(in_dir, store, config))
            and not validate_schema(memo, RUN_MEMO_SCHEMA)):
        return None
    duplicates = memo["duplicates"]
    results = [PhaseResult(book_id, entry["phase"], True,
                           duplicate_of=(duplicates.get(book_id)
                                         if entry["phase"] == "dedup" else None))
               for entry in memo["phases"] for book_id in entry["books"]]
    _runner_log.debug("all: inputs unchanged, %d book(s) reused",
                      len({result.book_id for result in results}))
    log_duplicates(duplicates)
    return results


def log_duplicates(duplicates):
    """Log dedup's duplicates, book id to representative, if there are any."""
    if duplicates:
        _runner_log.info("dedup: %d duplicate(s): %s", len(duplicates),
                         ", ".join(f"{b}->{r}" for b, r in duplicates.items()))
