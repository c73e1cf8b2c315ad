import ast
import hashlib
import importlib
import logging
import pkgutil
import random
import re
import shutil
import tracemalloc
from pathlib import Path

import pytest

import bindery
from bindery import store, xml_model
from bindery.cli import main
from bindery.errors import BinderyError
from bindery.store import PhaseResult, Traces, file_digest, write_if_changed
from generators import long_book, random_book

# The calls that change a file or a directory: open with a mode that writes
# (keyed "open <mode>"), and these by the name they are called by; replace
# counts only as ``os.replace``, str.replace being the common one.
WRITE_CALLS = {"write_text", "write_bytes", "os.replace", "os.rename",
               "rename", "unlink", "mkdir", "rmtree"}


def _write_calls(path):
    """The calls in a module's source that may write a file, by kind."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name, owner = func.id, None
        elif isinstance(func, ast.Attribute):
            name = func.attr
            owner = func.value.id if isinstance(func.value, ast.Name) else None
        else:
            continue
        if name == "open":
            mode = _open_mode(node, method=isinstance(func, ast.Attribute))
            if set(mode) & set("wax+?"):
                found.add(f"open {mode}")
        elif owner == "os" and f"os.{name}" in WRITE_CALLS:
            found.add(f"os.{name}")
        elif name in WRITE_CALLS:
            found.add(name)
    return found


def _open_mode(call, method):
    """The mode of ``open(path, mode)`` or ``path.open(mode)``: "r" when
    none is given, "?" when it is not a literal."""
    modes = (call.args if method else call.args[1:])[:1]
    modes += [keyword.value for keyword in call.keywords
              if keyword.arg == "mode"]
    if not modes:
        return "r"
    return modes[0].value if isinstance(modes[0], ast.Constant) else "?"


@pytest.mark.one_writer
def test_only_the_store_module_writes_files():
    package = Path(bindery.__file__).parent
    found = {path.name: _write_calls(path)
             for path in sorted(package.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {
        "store.py": {"open wb", "os.replace", "unlink", "mkdir"}}


@pytest.mark.one_writer
def test_the_write_scan_sees_every_kind_of_write(tmp_path):
    """Each write the scan looks for, spelt as code spells it, is found,
    and a read or a string replace is not."""
    module = tmp_path / "module.py"
    module.write_text(
        'open(p, "a"); open(p, mode="w"); p.open("x"); open(p, "r+")\n'
        "open(p, m); p.write_text(t); p.write_bytes(b); os.replace(a, b)\n"
        "os.rename(a, b); p.rename(q); p.unlink(); p.mkdir()\n"
        "shutil.rmtree(d)\n"
        'open(p); open(p, "rb"); p.open(); s.replace("a", "b")\n',
        encoding="utf-8")
    assert _write_calls(module) == {
        "open a", "open w", "open x", "open r+", "open ?", "write_text",
        "write_bytes", "os.replace", "os.rename", "rename", "unlink",
        "mkdir", "rmtree"}


def _names(path):
    """Every name a module's source uses: as a name, an attribute or an
    import."""
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    return {getattr(node, fields[type(node)])
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if type(node) in fields}


def test_the_pipeline_builds_no_trace_parts_of_its_own():
    """Trace parts come from the table in the store module alone: the
    pipeline names no key set and calls neither of its part rules."""
    names = _names(Path(bindery.__file__).parent / "pipeline.py")
    assert {name for name in names if name.endswith("_KEYS")} == set()
    assert names & {"settings", "source_parts"} == set()
    assert "PHASES" in names


def test_the_names_scan_sees_names_attributes_and_imports(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from .store import INGEST_KEYS\n"
                      "store.settings(config, store.CORPUS_KEYS)\n"
                      "parts = source_parts(path, kind)\n", encoding="utf-8")
    assert {"INGEST_KEYS", "settings", "source_parts", "CORPUS_KEYS"} <= (
        _names(module))


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


def test_remove_names_what_it_cannot_delete_and_deletes_the_rest(tmp_path):
    blocked, gone = tmp_path / "lemmas.json", tmp_path / "book.json"
    blocked.mkdir()
    write_if_changed(gone, "page")
    traces = Traces(force=False)
    with pytest.raises(BinderyError, match=f"cannot remove {blocked}: "):
        traces.remove([blocked, gone])
    assert blocked.is_dir() and not gone.exists()
    assert traces.files == {gone: None}


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


# -- a run killed at any write ----------------------------------------------

# The run seed, and the seed that picks the source edit between two runs.
CRASH_SEED = 7


class Killed(BaseException):
    """Stands for SIGKILL: no handler of bindery catches it, so the run
    stops at the write that raises it."""


def _patch_writer(monkeypatch, kill_at=None):
    """Route the store's writer, in every bindery module that binds it,
    through a wrapper that lists the paths it is called with. Call number
    ``kill_at`` writes half the new bytes to the path's temporary file and
    raises Killed. Returns the list."""
    real = store.write_if_changed
    modules = [importlib.import_module(f"bindery.{info.name}")
               for info in pkgutil.iter_modules(bindery.__path__)
               if info.name != "__main__"]  # which would run the CLI
    calls = []

    def writer(path, content, digests=None):
        path = Path(path)
        calls.append(path)
        if len(calls) != kill_at:
            return real(path, content, digests)
        pieces = [content] if isinstance(content, (str, bytes)) else content
        data = b"".join(piece.encode("utf-8") if isinstance(piece, str)
                        else piece for piece in pieces)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.with_name(f".{path.name}.tmp").write_bytes(data[:len(data) // 2])
        raise Killed(path)

    for module in modules:
        if getattr(module, "write_if_changed", None) is real:
            monkeypatch.setattr(module, "write_if_changed", writer)
    return calls


def _files(store_dir):
    """Every file under a store, hidden ones included, with its bytes."""
    return {path.relative_to(store_dir).as_posix(): path.read_bytes()
            for path in sorted(store_dir.rglob("*")) if path.is_file()}


def _add_paragraph(raw_dir, rnd):
    """Insert a paragraph at a paragraph break of one source's body."""
    source = rnd.choice(sorted(raw_dir.glob("*.txt")))
    text = source.read_text(encoding="utf-8")
    body = range(text.index("*** START"), text.index("\nTHE END\n"))
    at = rnd.choice([m.start() for m in re.finditer("\n\n", text)
                     if m.start() in body])
    source.write_text(text[:at] + "\n\nA paragraph no earlier run saw."
                      + text[at:], encoding="utf-8")


@pytest.mark.crash
def test_a_run_killed_at_any_write_leaves_nothing_a_rerun_keeps(
        raw_dir, smoke_config, tmp_path, monkeypatch, caplog):
    """Kill ``all`` at each call of the store's writer in turn, on an empty
    store and after a source changed: a plain ``all`` then does not replay
    and leaves the store, progress log included, of a clean cold run, and
    the ``all`` after it replays."""
    caplog.set_level(logging.DEBUG)

    def run_all(store_dir):
        return main(["--config", str(smoke_config), "--seed", str(CRASH_SEED),
                     "-v", "all", "--in", str(raw_dir), "--out",
                     str(store_dir)])

    def killed_at_each_write(before, clean):
        """The writer calls of an ``all`` on a copy of ``before`` (None for
        no store), each of which, killed, a re-run recovers from."""
        def start(name):
            store_dir = tmp_path / name
            if before is not None:
                shutil.copytree(before, store_dir)
            return store_dir

        with monkeypatch.context() as patch:
            calls = _patch_writer(patch)
            assert run_all(start("counted")) == 0
        for n in range(1, len(calls) + 1):
            store_dir = start(f"killed{n}")
            with monkeypatch.context() as patch:
                _patch_writer(patch, kill_at=n)
                with pytest.raises(Killed):
                    run_all(store_dir)
            # The re-run does not replay, and records a run trace the
            # next run replays.
            for replays in (False, True):
                caplog.clear()
                assert run_all(store_dir) == 0, calls[n - 1]
                assert any(m.startswith("all: inputs unchanged")
                           for m in caplog.messages) == replays, calls[n - 1]
                assert _files(store_dir) == clean, calls[n - 1]
            shutil.rmtree(store_dir)
        return calls

    cold = tmp_path / "cold"
    assert run_all(cold) == 0
    calls = killed_at_each_write(None, _files(cold))
    # The log is whole before the run trace is recorded.
    assert calls[-2:] == [tmp_path / "counted" / "_corpus" / name
                          for name in ("progress.jsonl", "all.memo")]
    _add_paragraph(raw_dir, random.Random(CRASH_SEED))
    changed = tmp_path / "changed"
    assert run_all(changed) == 0
    assert _files(changed) != _files(cold)
    shutil.rmtree(tmp_path / "counted")
    assert killed_at_each_write(cold, _files(changed))
