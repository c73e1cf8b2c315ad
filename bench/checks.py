"""Correctness checks on a bindery store built from generated inputs.

Every check compares the store with the generator's ground truth or with
another snapshot of the same store; none reads the progress log or the
CLI's summary line. A problem tied to one book marks that book failed for
the run; any problem at all makes the benchmark result incorrect.
"""

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

CORPUS_DIR = "_corpus"
PROGRESS = f"{CORPUS_DIR}/progress.jsonl"  # appended by every run


@dataclass
class Outcome:
    """Failed books, problems found and duplicates recalled in one run."""
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    recalled: int = 0

    def fail(self, book_id, message):
        if book_id is not None:
            self.failed.add(book_id)
        self.problems.append(f"{book_id or 'store'}: {message}")

    def merge(self, other):
        self.failed |= other.failed
        self.problems.extend(other.problems)
        self.recalled += other.recalled


def snapshot(store):
    """Relative path -> (mtime_ns, sha256) for every file in the store."""
    store = Path(store)
    files = {}
    if store.is_dir():
        for path in sorted(store.rglob("*")):
            if path.is_file():
                files[path.relative_to(store).as_posix()] = (
                    path.stat().st_mtime_ns,
                    hashlib.sha256(path.read_bytes()).hexdigest())
    return files


def digest(snap):
    """One digest over the paths and bytes of a store, progress log excluded."""
    h = hashlib.sha256()
    for rel, (_, sha) in sorted(snap.items()):
        if rel != PROGRESS:
            h.update(f"{rel}\0{sha}\n".encode())
    return h.hexdigest()


def _owner(rel):
    head = rel.split("/", 1)[0]
    return None if head == CORPUS_DIR else head


def unchanged(before, after):
    """The no-op run may append to the progress log and touch nothing else."""
    outcome = Outcome()
    for rel in sorted(set(before) | set(after)):
        if rel == PROGRESS:
            continue
        if rel not in after:
            outcome.fail(_owner(rel), f"no-op run removed {rel}")
        elif rel not in before:
            outcome.fail(_owner(rel), f"no-op run created {rel}")
        elif before[rel] != after[rel]:
            outcome.fail(_owner(rel), f"no-op run rewrote {rel}")
    return outcome


def identical(cold, forced):
    """A forced re-run must leave the same bytes as the cold run."""
    outcome = Outcome()
    for rel in sorted(set(cold) | set(forced)):
        if rel == PROGRESS:
            continue
        if rel not in cold or rel not in forced or cold[rel][1] != forced[rel][1]:
            outcome.fail(_owner(rel), f"forced store differs from cold at {rel}")
    return outcome


def _read_index(path, outcome):
    entries = {}
    try:
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                record = json.loads(line)
                entries[record["id"]] = record
    except (OSError, ValueError, KeyError) as exc:
        outcome.fail(None, f"unreadable dedup index: {exc}")
    return entries


def _read_json(path, schema, validate, outcome, book_id):
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        outcome.fail(book_id, f"unreadable {Path(path).name}: {exc}")
        return None
    errors = validate(payload, schema)
    if errors:
        outcome.fail(book_id, f"{Path(path).name} fails its schema: {errors[:3]}")
        return None
    return payload


def outputs(store, truth, annotated, bindery):
    """Check every book's outputs against the ground truth.

    ``bindery`` is the imported package; its ``report`` module supplies
    the schemas and validator and ``xml_model.PHASES`` the complete stamp
    list. ``annotated`` is true for workloads that run every phase.
    """
    store = Path(store)
    outcome = Outcome()
    validate = bindery.report.validate_schema
    book_schema = bindery.report.load_schema("book.schema.json")
    corpus_schema = bindery.report.load_schema("corpus.schema.json")
    phases = list(bindery.xml_model.PHASES)
    kept = set(truth.kept)

    entries = _read_index(store / CORPUS_DIR / "index.jsonl", outcome)
    on_disk = set()
    if store.is_dir():
        on_disk = {p.name for p in store.iterdir() if p.is_dir()} - {CORPUS_DIR}
    for stray in sorted(on_disk - set(truth.sections)):
        outcome.fail(None, f"unexpected book directory {stray}")
    for stray in sorted(set(entries) - set(truth.sections)):
        outcome.fail(None, f"unexpected dedup entry {stray}")

    for book_id, sections in sorted(truth.sections.items()):
        book_dir = store / book_id
        if not (book_dir / "book.xml").is_file():
            outcome.fail(book_id, "no book.xml")
        entry = entries.get(book_id)
        if entry is None:
            outcome.fail(book_id, "missing from the dedup index")
        else:
            if "signature" not in entry:
                outcome.fail(book_id, "no fingerprint in the dedup index")
            expected = truth.duplicates.get(book_id)
            actual = entry.get("representative_of")
            if actual is not None and actual != expected:
                outcome.fail(book_id, f"wrongly marked a duplicate of {actual}")
            elif expected is not None and actual == expected:
                outcome.recalled += 1
        if not annotated:
            continue
        if book_id not in kept:
            if (book_dir / "book.json").exists():
                outcome.fail(book_id, "duplicate was analyzed")
            continue
        payload = _read_json(book_dir / "book.json", book_schema, validate,
                             outcome, book_id)
        if payload is None:
            continue
        if payload["phases"] != phases:
            outcome.fail(book_id, f"phases {payload['phases']}")
        if payload["counts"]["sections"] != sections:
            outcome.fail(book_id, f"{payload['counts']['sections']} sections, "
                                  f"generated {sections}")
        if not (book_dir / "index.html").is_file():
            outcome.fail(book_id, "no index.html")

    if annotated:
        stats = _read_json(store / CORPUS_DIR / "corpus.json", corpus_schema,
                           validate, outcome, None)
        if stats is not None:
            listed = {b["id"] for b in stats["books"]}
            if listed != kept:
                outcome.fail(None, f"corpus.json lists {len(listed)} books, "
                                   f"expected the {len(kept)} kept")
    return outcome
