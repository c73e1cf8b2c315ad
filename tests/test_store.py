import hashlib
import re
import tracemalloc
from pathlib import Path

import bindery
from bindery import xml_model
from bindery.store import PhaseResult, Traces, file_digest, write_if_changed
from generators import long_book, random_book

# Each way a module could change a file: replace, delete, make a directory,
# write a whole file, or open one to write or append.
WRITES = {
    "os.replace": r"\bos\.replace\(",
    "unlink": r"\.unlink\(",
    "mkdir": r"\.mkdir\(",
    "write_bytes": r"\.write_bytes\(",
    "write_text": r"\.write_text\(",
    "open to write": r"""\bopen\([^)\n]*["'][rbt+]*[wax][rbt+]*["']""",
}


def test_only_the_store_module_writes_files():
    package = Path(bindery.__file__).parent
    found = {(path.name, kind) for path in sorted(package.glob("*.py"))
             for kind, pattern in WRITES.items()
             if re.search(pattern, path.read_text(encoding="utf-8"))}
    assert found == {("store.py", kind) for kind in (
        "os.replace", "unlink", "mkdir", "open to write")}


def test_digesting_a_book_holds_one_chunk_of_it(tmp_path):
    path = tmp_path / "book.xml"
    write_if_changed(path, xml_model.serialize_pieces(
        long_book(1, sections=8, paragraphs=200)))
    assert path.stat().st_size >= 3_000_000
    traces = Traces(force=False)
    tracemalloc.start()
    try:
        traces.digest([path])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traces.files[path] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert peak < 256 * 1024


def test_file_digest_of_a_missing_path_or_a_directory_is_none(tmp_path):
    assert file_digest(tmp_path / "missing.xml") is None
    assert file_digest(tmp_path) is None


def test_remove_deletes_the_files_and_records_them_as_missing(tmp_path):
    kept, gone = tmp_path / "kept.txt", tmp_path / "book.xml"
    write_if_changed(kept, "kept")
    write_if_changed(gone, xml_model.serialize(random_book(seed=1)))
    traces = Traces(force=False)
    before = traces.digest([kept, gone])
    assert traces.head(gone) is not None
    traces.remove([gone, tmp_path / "never.txt"])
    assert kept.exists() and not gone.exists()
    assert traces.files[gone] is None and traces.head(gone) is None
    after = traces.digest([kept, gone])
    assert after == Traces(force=False).digest([kept, gone]) != before


def test_memo_is_recorded_only_when_every_result_succeeded(tmp_path):
    memo, data = tmp_path / "phase.memo", tmp_path / "data.txt"
    write_if_changed(data, "input")
    parts = ["a setting", data]
    ok = PhaseResult("pg1", "report", True)
    failed = PhaseResult("pg2", "report", False, "broken")
    Traces(force=False).record_memo(memo, parts, [ok, failed])
    assert not memo.exists()
    Traces(force=False).record_memo(memo, parts, [ok])
    assert Traces(force=False).memo_current(memo, parts)
    assert not Traces(force=True).memo_current(memo, parts)
    write_if_changed(data, "another input")
    assert not Traces(force=False).memo_current(memo, parts)


def test_recorded_memo_replaces_the_runs_digest_of_it(tmp_path):
    """A memo the run digested before it recorded the memo again is
    digested as the bytes it now holds."""
    memo = tmp_path / "phase.memo"
    ok = [PhaseResult("pg1", "report", True)]
    Traces(force=False).record_memo(memo, ["an earlier input"], ok)
    traces = Traces(force=False)
    earlier = traces.digest([memo])
    traces.record_memo(memo, ["a later input"], ok)
    assert traces.files[memo] == file_digest(memo)
    assert traces.digest([memo]) == Traces(force=False).digest([memo]) != earlier
