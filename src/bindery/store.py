"""The on-disk store: its layout, its one writer, its readers and its traces.

Layout: ``store/<book_id>/{book.xml, lemmas.json, book.json, index.html}``
with corpus-level files under ``store/_corpus/`` (docs/formats.md); book
ids come from their sources by the one source-id rule here. Every file a
run leaves in a store, the progress log of its last command included, is
written here by ``write_if_changed``: atomically, when its bytes change.
``Traces`` is the one rule that decides whether an output is current, and
``PHASES`` the one table of what each phase's trace covers: its config
keys, the rule that gives its parts and where it is recorded. The run
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
from .errors import BinderyError, MissingPhaseError, ParseError

# The phase runners' logger: a replayed run repeats their dedup line.
_runner_log = logging.getLogger(f"{__package__}.pipeline")

CORPUS_DIR = "_corpus"
INDEX_FILE = "index.jsonl"
# The corpus lemma model under _corpus/; a book's lemma file in its dir.
LEMMAS_FILE = "lemmas.json"
VECTORS_FILE = "vectors.bin"
PROGRESS_FILE = "progress.jsonl"
# The run trace of ``all`` and its results; it covers every other file of
# the store but the progress log and the writer's temporary files.
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
# annotate_book reads, what build_book_payload reads, what dedup reads for
# a fingerprint and for its matches, and for corpus-stats, report and all
# every key but jobs and mirror_base, which only fetch reads.
INGEST_KEYS = ("front_window_frac", "front_short_line_len",
               "front_short_line_ratio", "page_separator")
ANNOTATE_KEYS = ("header_max_len", "numbering_gap_tolerance", "lexicon_dir",
                 "min_mentions", "pronoun_sentence_window")
ANALYSIS_KEYS = ("lexicon_dir", "timeline_top_k", "interaction_window",
                 "interaction_min_co")
MINHASH_KEYS = ("minhash_hashes", "shingle_size", "seed")
MATCH_KEYS = ("dedup_content_threshold", "dedup_title_author")
CORPUS_KEYS = tuple(key for key in Config.field_names()
                    if key not in ("jobs", "mirror_base"))


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
    encoded as UTF-8, hashed and written about 64 KB at a time to the
    temporary file ``.<name>.tmp`` beside ``path`` (made as any file is),
    which replaces the file unless the file's digest is the same. So a
    killed run, or pieces that raise part-way, leave the old file or the
    new one, never a truncated one, and the next write of ``path`` (one
    process writes it at a time) removes the temporary file. An OSError is
    a BinderyError naming ``path``. ``digests``, a dict of file digests by
    path, gets the hex SHA-256 of the bytes once the file holds them.
    """
    path = Path(path)
    pieces = [content] if isinstance(content, (str, bytes)) else content
    tmp = path.with_name(f".{path.name}.tmp")
    sha = hashlib.sha256()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
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
    except OSError as exc:
        raise BinderyError(f"cannot write {path}: {exc.strerror or exc}") from exc
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
    """Outcome of one phase on one book: one line of the progress log its
    command writes. A dedup result also names the book that this one
    duplicates, if any, which the log leaves out."""

    book_id: str
    phase: str
    ok: bool
    error: str | None = None
    duplicate_of: str | None = None


def write_progress(store, results):
    """Make the progress log one JSON line per phase result, in order."""
    write_if_changed(corpus_file(store, PROGRESS_FILE), (json.dumps({
        "book": result.book_id,
        "phase": result.phase,
        "status": "ok" if result.ok else "error",
        "error": result.error,
    }, sort_keys=True) + "\n" for result in results))


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
        """Delete the files at ``paths`` and record them as missing; those
        that cannot be deleted are named in one BinderyError."""
        errors = []
        for path in paths:
            try:
                path.unlink(missing_ok=True)
                self.files[path] = None
                self.heads.pop(path, None)
            except OSError as exc:
                errors.append(f"cannot remove {path}: {exc.strerror or exc}")
        if errors:
            raise BinderyError("; ".join(errors))

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


# -- the table of traces ----------------------------------------------------------


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


def analysis_files(store, book_id):
    """A book's book.xml and lemma file: what ``book_analysis`` reads."""
    return [book_xml(store, book_id), book_dir(store, book_id) / LEMMAS_FILE]


def _books(store, book_ids, pages=()):
    """Each book's id, then its ``analysis_files`` and its ``pages``."""
    return [part for book_id in book_ids
            for part in (book_id, *analysis_files(store, book_id),
                         *(book_dir(store, book_id) / name for name in pages))]


@dataclass(frozen=True)
class Phase:
    """A row of the table of traces, as docs/formats.md "Traces" lists it."""

    keys: tuple  # the config keys its trace covers
    rule: object  # (keys, config, *subject) -> the parts of its trace
    kept_in: str  # where its trace is recorded
    takes: str = "kept"  # what its runner is given: see PHASES

    def parts(self, config, *subject):
        """The parts of the trace of a source, a book or the corpus."""
        return self.rule(self.keys, config, *subject)


# One row per phase, in the order ``all`` runs them; ``pipeline.run_<name>``
# takes the sources (``in``), the store alone (``store``) or its kept books.
PHASES = {
    "ingest": Phase(INGEST_KEYS, lambda keys, config, path, kind: [
        *settings(config, keys), *source_parts(path, kind)],
        "<meta>/ingest_trace", "in"),
    # An index record's ``minhash`` and ``matched_under``, one per key set.
    "dedup": Phase((MINHASH_KEYS, MATCH_KEYS), lambda keys, config: tuple(
        tuple(getattr(config, key) for key in named) for named in keys),
        INDEX_FILE, "store"),
    "annotate": Phase(ANNOTATE_KEYS, lambda keys, config, meta: [
        *settings(config, keys), meta.ingest_trace], "<meta>/annotate_trace"),
    # The version reaches a lemma file through book.xml's traces.
    "analyze": Phase(ANALYSIS_KEYS, lambda keys, config, store, book_id: [
        *(getattr(config, key) for key in keys), book_xml(store, book_id)],
        "lemmas.json/trace"),
    "corpus-stats": Phase(CORPUS_KEYS, lambda keys, config, store, books: [
        *settings(config, keys), *_books(store, books),
        *(corpus_file(store, name) for name in CORPUS_OUTPUTS)],
        "corpus-stats.memo"),
    "report": Phase(CORPUS_KEYS, lambda keys, config, store, books: [
        *settings(config, keys),
        *(corpus_file(store, name) for name in CORPUS_OUTPUTS),
        *_books(store, books, BOOK_PAGES),
        *(corpus_file(store, name) for name in CORPUS_PAGES)], "report.memo"),
    # The inputs found before the run, to which ``run_parts`` adds the store.
    "all": Phase(CORPUS_KEYS, lambda keys, config, in_dir: [
        *settings(config, keys),
        *(part for book_id, path, kind in discover_sources(in_dir)
          for part in (book_id, kind.value, *source_parts(path, kind)))],
        ALL_MEMO, "in"),
}


def current_analysis(store, book_id, config, traces):
    """A book's decoded lemma file while its trace is current, else None."""
    analysis = _json_object(book_dir(store, book_id) / LEMMAS_FILE)
    current = traces.current(analysis.get("trace"), PHASES["analyze"].parts(
        config, store, book_id))
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
    """What the run memo covers: ``all``'s inputs and ``stored_files``."""
    return PHASES["all"].parts(config, in_dir) + stored_files(store)


def stored_files(store):
    """Every file of the store but the progress log, the run memo and the
    writer's temporary files, by path relative to the store, in order."""
    store = Path(store)
    untraced = {f"{CORPUS_DIR}/{PROGRESS_FILE}", f"{CORPUS_DIR}/{ALL_MEMO}"}
    files = sorted((path.relative_to(store).as_posix(), path)
                   for root, _, names in os.walk(store)
                   for path in (Path(root, name) for name in names))
    return [part for name, path in files
            if name not in untraced and not path.match(".*.tmp")
            for part in (name, path)]


def record_run(inputs, store, traces, results):
    """Record the run trace of an ``all`` whose every result is ok, over
    its inputs as found before ingest and the store it leaves, with
    the results: each phase's book ids in order, and the duplicates."""
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
            memo["trace"], run_parts(in_dir, store, config)) and not
            validate_schema(memo, load_schema("run-memo.schema.json"))):
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
