import concurrent.futures
import contextlib
import hashlib
import json
import logging
import os
import random
import re
import shutil
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import FrozenInstanceError, asdict, replace
from pathlib import Path

import pytest

import bindery
from bindery import analytics_book, cli, dedup, pipeline, report, xml_model
from bindery import store as store_module
from bindery.cli import main
from bindery.config import Config
from bindery.errors import BinderyError, TooShortError
from bindery.store import (Traces, analysis_parts, kept_book_ids, load_schema,
                           store_book_ids, validate_schema)
from conftest import BOOKS
from generators import random_book

PHASES = ("ingest", "dedup", "annotate", "analyze", "corpus-stats", "report")


@pytest.fixture
def raw_dir(tmp_path):
    src = tmp_path / "raw"
    src.mkdir()
    for name in ("pg730.txt", "pg1001.txt", "pg1002.txt"):
        shutil.copy(BOOKS / name, src / name)
    return src


@pytest.fixture
def smoke_config(tmp_path):
    path = tmp_path / "bindery.conf"
    path.write_text(
        "# smoke-scale overrides\n"
        "embed_min_count = 2\n"
        "embed_dim = 32\n"
        "embed_epochs = 5\n",
        encoding="utf-8")
    return path


def run(*argv):
    return main(list(argv))


def progress_lines(store):
    path = store / "_corpus" / "progress.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def phased_store(tmp_path_factory):
    """The five fixture books run one phase at a time.

    Returns the config, the store, and for every book after every phase
    its ``(meta, phases)`` as read by ``load_head`` and by ``load``.
    """
    root = tmp_path_factory.mktemp("phased")
    config = root / "bindery.conf"
    config.write_text("embed_min_count = 2\nembed_dim = 32\nembed_epochs = 5\n",
                      encoding="utf-8")
    store = root / "store"
    heads = []
    for phase in PHASES:
        argv = ["--in", str(BOOKS)] if phase == "ingest" else []
        assert run("--config", str(config), phase, *argv,
                   "--out", str(store)) == 0
        for path in sorted(store.glob("*/book.xml")):
            book = xml_model.load(path)
            heads.append((phase, path.parent.name, xml_model.load_head(path),
                          (book.meta, book.phases)))
    return config, store, heads


@pytest.fixture
def fixture_store(phased_store, tmp_path):
    """A private copy of the finished fixture store, without progress log."""
    config, store, _ = phased_store
    copy = tmp_path / "store"
    shutil.copytree(store, copy)
    (copy / "_corpus" / "progress.jsonl").unlink()
    return config, copy


def rerun_all(config, store, *flags):
    return run("--config", str(config), *flags, "all", "--in", str(BOOKS),
               "--out", str(store))


def _replayed(caplog):
    """Whether an ``all`` logged at DEBUG replayed its recorded results."""
    return any(m.startswith("all: inputs unchanged") for m in caplog.messages)


def _assert_run_trace_is_fresh(config_path, in_dir, store, *flags):
    """The run trace ``all`` recorded is the one a new ``Traces`` digests;
    ``flags`` are those of the run, of which ``--seed`` changes the config."""
    config = Config.load(config_path)
    if "--seed" in flags:
        config = replace(config, seed=int(flags[flags.index("--seed") + 1]))
    memo = json.loads((store / "_corpus" / "all.memo").read_bytes())
    assert memo["trace"] == Traces(False).digest(
        store_module.run_parts(in_dir, store, config))


def test_config_file_and_env_override(tmp_path, monkeypatch):
    path = tmp_path / "c.conf"
    path.write_text("seed = 77\njobs = 3\ndedup_title_author = off\n",
                    encoding="utf-8")
    config = Config.load(path)
    assert config.seed == 77
    assert config.jobs == 3
    assert config.dedup_title_author is False
    monkeypatch.setenv("BINDERY_SEED", "99")
    monkeypatch.setenv("BINDERY_DEDUP_TITLE_AUTHOR", "true")
    config = Config.load(path)
    assert config.seed == 99
    assert config.dedup_title_author is True
    # A flag outranks its variable, which outranks the file.
    flags = ("--config", str(path), "--seed", "7", "--jobs", "2")
    assert _cli_config(tmp_path, monkeypatch, *flags) == replace(
        config, seed=7, jobs=2)
    monkeypatch.setenv("BINDERY_JOBS", "4")
    assert _cli_config(tmp_path, monkeypatch, *flags).jobs == 2
    assert _cli_config(tmp_path, monkeypatch, *flags[:2]) == replace(
        config, jobs=4)
    monkeypatch.delenv("BINDERY_SEED")
    assert _cli_config(tmp_path, monkeypatch, *flags[:2]).seed == 77


def _cli_config(tmp_path, monkeypatch, *flags):
    """The config a ``dedup`` run under ``flags`` gives its runner."""
    configs = []

    def recorder(store, config, traces):
        configs.append(config)
        return []

    monkeypatch.setattr(pipeline, "run_dedup", recorder)
    (tmp_path / "store").mkdir(exist_ok=True)
    assert run(*flags, "dedup", "--out", str(tmp_path / "store")) == 0
    [config] = configs
    return config


def test_config_is_frozen():
    config = Config.load(env={})
    with pytest.raises(FrozenInstanceError):
        config.seed = 7
    assert (replace(config, seed=7).seed, config.seed) == (7, 13)


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "c.conf"
    path.write_text("nonsense_key = 1\n", encoding="utf-8")
    with pytest.raises(KeyError):
        Config.load(path)


def test_all_produces_store(raw_dir, smoke_config, tmp_path):
    store = tmp_path / "store"
    status = run("--config", str(smoke_config), "all",
                 "--in", str(raw_dir), "--out", str(store))
    assert status == 0
    for book_id in ("pg730", "pg1001", "pg1002"):
        assert (store / book_id / "book.xml").exists()
        assert (store / book_id / "book.json").exists()
        assert (store / book_id / "index.html").exists()
    for name in ("corpus.json", "corpus.html", "authors.html",
                 "subjects.html", "index.jsonl", "vectors.bin",
                 "progress.jsonl"):
        assert (store / "_corpus" / name).exists()


def test_rerun_is_noop(raw_dir, smoke_config, tmp_path):
    store = tmp_path / "store"
    assert run("--config", str(smoke_config), "all",
               "--in", str(raw_dir), "--out", str(store)) == 0
    watched = sorted(p for p in store.rglob("*")
                     if p.is_file() and p.name != "progress.jsonl")
    stamps = {p: p.stat().st_mtime_ns for p in watched}
    assert run("--config", str(smoke_config), "all",
               "--in", str(raw_dir), "--out", str(store)) == 0
    for path, stamp in stamps.items():
        assert path.stat().st_mtime_ns == stamp, f"{path} was rewritten"


def test_analyze_before_annotate_names_missing_stamp(raw_dir, tmp_path,
                                                     caplog):
    store = tmp_path / "store"
    assert run("ingest", "--in", str(raw_dir), "--out", str(store)) == 0
    status = run("analyze", "--out", str(store))
    assert status == 1
    assert any("characters" in r.message for r in caplog.records)


def test_report_before_stats_fails(raw_dir, tmp_path, caplog):
    store = tmp_path / "store"
    assert run("ingest", "--in", str(raw_dir), "--out", str(store)) == 0
    assert run("report", "--out", str(store)) == 1
    errors = [r.message for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == [
        "report failed: phase 'report' requires completed phase "
        "'corpus-stats'; run the 'corpus-stats' step first"]


def test_sources_with_one_book_id_fail_that_id_and_write_neither(
        raw_dir, smoke_config, tmp_path, caplog):
    shutil.copy(BOOKS / "pg1001.txt", raw_dir / "1001.txt")
    store = tmp_path / "store"
    caplog.set_level(logging.INFO)
    assert run("--config", str(smoke_config), "all", "--in", str(raw_dir),
               "--out", str(store)) == 1
    failed = [l for l in progress_lines(store) if l["status"] == "error"]
    assert failed == [{
        "book": "pg1001", "phase": "ingest", "status": "error",
        "error": "sources map to the same book id: "
                 f"{raw_dir / '1001.txt'}, {raw_dir / 'pg1001.txt'}"}]
    assert not (store / "pg1001").exists()
    assert store_book_ids(store) == ["pg1002", "pg730"]
    assert (store / "pg730" / "index.html").exists()
    assert "all: 2 book(s) ok, 1 failed" in caplog.messages


def test_failed_reingest_drops_the_stored_book(raw_dir, smoke_config,
                                              tmp_path):
    """A book whose re-ingest fails leaves every later phase and takes its
    stored files with it; once its source is whole again, the store is the
    one a cold run makes."""
    (raw_dir / "pg1002.txt").unlink()
    store, cold = tmp_path / "store", tmp_path / "cold"
    argv = ["--config", str(smoke_config), "all", "--in", str(raw_dir)]
    assert run(*argv, "--out", str(cold)) == 0
    assert run(*argv, "--out", str(store)) == 0
    shutil.copy(BOOKS / "pg1001.txt", raw_dir / "1001.txt")
    (store / "_corpus" / "progress.jsonl").unlink()
    assert run(*argv, "--out", str(store)) == 1
    assert [(l["phase"], l["status"]) for l in progress_lines(store)
            if l["book"] == "pg1001"] == [("ingest", "error")]
    assert [name for name in ("book.xml", "lemmas.json", "book.json",
                              "index.html")
            if (store / "pg1001" / name).exists()] == []
    stats = json.loads((store / "_corpus" / "corpus.json").read_bytes())
    assert [book["id"] for book in stats["books"]] == ["pg730"]
    (raw_dir / "1001.txt").unlink()
    assert run(*argv, "--out", str(store)) == 0
    assert ({k: v for k, v in _store_files(store).items()
             if not k.endswith("progress.jsonl")}
            == {k: v for k, v in _store_files(cold).items()
                if not k.endswith("progress.jsonl")})


def test_per_book_failure_is_not_fatal(raw_dir, smoke_config, tmp_path,
                                       caplog):
    (raw_dir / "pg9999.txt").write_text("   ", encoding="utf-8")
    store = tmp_path / "store"
    status = run("--config", str(smoke_config), "all",
                 "--in", str(raw_dir), "--out", str(store))
    assert status == 1  # the empty book failed
    # ... but the healthy books completed end to end.
    assert (store / "pg730" / "index.html").exists()
    assert not (store / "pg9999").exists()


@pytest.mark.parametrize("sources", [[], ["pg5.txt"]])
def test_all_without_a_kept_book_ends_with_a_zero_book_corpus(
        tmp_path, caplog, sources):
    """When no book reaches corpus-stats, all still writes a zero-book
    corpus and its pages, and the progress log keeps each book's error."""
    in_dir, store = tmp_path / "raw", tmp_path / "store"
    in_dir.mkdir()
    for name in sources:
        (in_dir / name).write_text("", encoding="utf-8")
    assert run("all", "--in", str(in_dir), "--out", str(store)) == (
        1 if sources else 0)
    assert [(l["book"], l["phase"], l["status"])
            for l in progress_lines(store)] == [
        ("pg5", "ingest", "error") for _ in sources]
    errors = [r.message for r in caplog.records if r.levelno == logging.ERROR]
    assert [e.split(":")[:2] for e in errors] == [
        ["pg5", " ingest"] for _ in sources]
    stats = json.loads((store / "_corpus" / "corpus.json").read_bytes())
    assert stats["books"] == []
    assert (store / "_corpus" / "corpus.html").exists()


def test_rank_share_and_gender_over_time_on_the_fixtures(tmp_path,
                                                         monkeypatch):
    """With rank 1 and one year bin, every fixture book qualifies for both
    corpus analytics, and the corpus page draws both charts."""
    monkeypatch.setenv("BINDERY_RANK_SHARE_RANKS", "1")
    monkeypatch.setenv("BINDERY_GENDER_TIME_BINS", "1")
    store = tmp_path / "store"
    assert run("all", "--in", str(BOOKS), "--out", str(store)) == 0
    stats = json.loads((store / "_corpus" / "corpus.json").read_bytes())
    assert validate_schema(stats, load_schema("corpus.schema.json")) == []
    assert stats["rank_share"]["books"] == 5
    assert stats["gender_over_time"] == [
        {"books": 5, "pct_male": 40.0, "year_hi": 2005, "year_lo": 1996}]
    page = (store / "_corpus" / "corpus.html").read_text(encoding="utf-8")
    assert "<h2>Character rank share</h2>" in page
    assert "<h2>Protagonist gender over time</h2>" in page


@pytest.mark.parametrize("command, bad", [
    ("all", "missing --in"), ("ingest", "--in a file"),
    ("all", "--out a file"), ("dedup", "--out a file")])
def test_bad_path_is_one_error_line_and_exit_1(tmp_path, caplog, command,
                                               bad):
    a_file = tmp_path / "a.txt"
    a_file.write_text("not a directory\n", encoding="utf-8")
    in_dir = {"missing --in": tmp_path / "missing",
              "--in a file": a_file}.get(bad, BOOKS)
    out = a_file if bad == "--out a file" else tmp_path / "store"
    argv = ["--in", str(in_dir)] if command != "dedup" else []
    caplog.set_level(logging.INFO)
    assert run(command, *argv, "--out", str(out)) == 1
    errors = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert len(errors) == 1 and errors[0].exc_info is None
    assert errors[0].message.startswith(f"{command} failed: ")


@pytest.mark.parametrize("bad", ["missing", "a file"])
@pytest.mark.parametrize("command", ["annotate", "analyze", "dedup",
                                     "corpus-stats", "report"])
def test_phase_command_without_a_store_fails_and_creates_nothing(
        tmp_path, caplog, command, bad):
    out = tmp_path / "typo_store"
    if bad == "a file":
        out.write_text("not a store\n", encoding="utf-8")
    before = _store_files(tmp_path)
    caplog.set_level(logging.INFO)
    assert run(command, "--out", str(out)) == 1
    assert [(r.levelno, r.message) for r in caplog.records
            if r.levelno >= logging.WARNING] == [
        (logging.ERROR, f"{command} failed: no store at {out}")]
    assert _store_files(tmp_path) == before
    assert out.exists() == (bad == "a file")


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_each_command_runs_its_runner_with_the_runs_traces(
        fixture_store, monkeypatch, command):
    """The CLI looks ``pipeline.run_<command>`` up when the command runs,
    so a wrapper swapped into the module runs, and gives it one forced
    ``Traces`` and, after dedup, the kept books."""
    config_path, store = fixture_store
    calls = []

    def recorder(*args):
        calls.append(args)
        return []

    monkeypatch.setattr(pipeline, "run_" + command.replace("-", "_"), recorder)
    argv = ["--in", str(BOOKS)] if command in ("ingest", "all") else []
    assert run("--config", str(config_path), "--force", command, *argv,
               "--out", str(store)) == 0
    [args] = calls
    expected = [str(BOOKS)] if argv else []
    expected += [str(store), Config.load(config_path)]
    assert list(args[:len(expected)]) == expected
    traces, *book_ids = args[len(expected):]
    assert isinstance(traces, Traces) and traces.force is True
    assert book_ids == ([] if command in ("ingest", "dedup", "all")
                        else [kept_book_ids(store)])


def test_progress_log_lines(raw_dir, smoke_config, tmp_path):
    store = tmp_path / "store"
    run("--config", str(smoke_config), "ingest",
        "--in", str(raw_dir), "--out", str(store))
    lines = [json.loads(l) for l in
             (store / "_corpus" / "progress.jsonl").read_text().splitlines()]
    assert {l["book"] for l in lines} == {"pg730", "pg1001", "pg1002"}
    assert all(l["phase"] == "ingest" and l["status"] == "ok" for l in lines)


def _store_files(store):
    return {str(p.relative_to(store)): p.read_bytes()
            for p in sorted(store.rglob("*")) if p.is_file()}


def _without_run_memo(files):
    """Store files but ``_corpus/all.memo``: like the progress log, it is a
    record ``all`` keeps of itself, which phase commands do not write."""
    return {name: data for name, data in files.items()
            if name != "_corpus/all.memo"}


def _inject_pg1001_failure(monkeypatch, failure):
    """Make pg1001 fail at ``failure``.

    "load" fails every read of pg1001's book.xml, full or ``<meta>`` only;
    "annotate" fails after segmentation and tagging changed the book;
    "invariant" lets annotate leave a book that cannot be serialized;
    "analyze" fails while building the book's payload.
    """
    def failing(real, hits_pg1001):
        def wrapper(*args, **kwargs):
            if hits_pg1001(args[0]):
                raise BinderyError(f"injected {failure} failure")
            return real(*args, **kwargs)
        return wrapper

    def mistagging(book, config):
        real_characters_book(book, config)
        if book.meta.source_id == "pg1001":
            next(book.iter_tokens()).pos = "BAD"
        return book

    if failure == "load":
        for name in ("load", "load_head"):
            monkeypatch.setattr(xml_model, name, failing(
                getattr(xml_model, name),
                lambda path: Path(path).parent.name == "pg1001"))
    elif failure == "invariant":
        real_characters_book = pipeline.characters_book
        monkeypatch.setattr(pipeline, "characters_book", mistagging)
    else:
        name = {"annotate": "characters_book",
                "analyze": "build_book_payload"}[failure]
        monkeypatch.setattr(pipeline, name, failing(
            getattr(pipeline, name),
            lambda book: book.meta.source_id == "pg1001"))


def _assert_all_matches_steps(raw_dir, config, tmp_path, monkeypatch,
                              flags=(), failure=None):
    """``all`` leaves the store and progress log the phases one by one do,
    and its run memo.

    Under ``--force`` both runs start from the same finished store.
    Returns the progress lines of the ``all`` run.
    """
    store_all = tmp_path / "store_all"
    store_steps = tmp_path / "store_steps"
    if "--force" in flags:
        assert run("--config", str(config), "all", "--in", str(raw_dir),
                   "--out", str(store_all)) == 0
        shutil.copytree(store_all, store_steps)
    if failure is not None:
        _inject_pg1001_failure(monkeypatch, failure)
    status_all = run("--config", str(config), *flags, "all",
                     "--in", str(raw_dir), "--out", str(store_all))
    status_steps = 0
    for phase in PHASES:
        argv = ["--in", str(raw_dir)] if phase == "ingest" else []
        status_steps |= run("--config", str(config), *flags, phase, *argv,
                            "--out", str(store_steps))
    assert status_all == status_steps == (failure is not None)
    assert (_without_run_memo(_store_files(store_all))
            == _without_run_memo(_store_files(store_steps)))
    return progress_lines(store_all)


def test_phase_sequence_matches_all(raw_dir, smoke_config, tmp_path,
                                    monkeypatch):
    lines = _assert_all_matches_steps(raw_dir, smoke_config, tmp_path,
                                      monkeypatch)
    assert all(l["status"] == "ok" for l in lines)


# Failures are injected only into in-process runs: a monkeypatch reaches
# pool workers only where they are forked.
@pytest.mark.parametrize("flags, failure", [
    pytest.param(flags, failure, id=f"{name}-{failure or 'ok'}")
    for name, flags, failures in (
        ("plain", (), ("load", "annotate", "invariant", "analyze")),
        ("jobs2", ("--jobs", "2"), (None,)),
        ("force", ("--force",), (None, "load", "annotate", "invariant",
                                 "analyze")))
    for failure in failures])
def test_phase_sequence_matches_all_under(raw_dir, smoke_config, tmp_path,
                                          monkeypatch, flags, failure):
    lines = _assert_all_matches_steps(raw_dir, smoke_config, tmp_path,
                                      monkeypatch, flags, failure)
    pg1001 = {l["phase"]: l["error"] for l in lines if l["book"] == "pg1001"
              and l["phase"] in ("annotate", "analyze")}
    xml_path = tmp_path / "store_all" / "pg1001" / "book.xml"
    if failure == "load":
        assert pg1001["annotate"] == pg1001["analyze"] == (
            "injected load failure")
    elif failure in ("annotate", "invariant"):
        assert pg1001["annotate"] == (
            "injected annotate failure" if failure == "annotate"
            else "token 0: bad pos 'BAD'")
        # Analyze reads what is on disk: the ingest stage, also under
        # --force, where ingest has just rewritten it.
        assert "'characters'" in pg1001["analyze"]
    elif failure == "analyze":
        assert pg1001 == {"annotate": None,
                          "analyze": "injected analyze failure"}
        assert xml_model.load_head(xml_path)[1] == [
            "ingest", "segment", "linguistic", "characters"]
    else:
        assert all(l["status"] == "ok" for l in lines)


def test_failed_forced_annotate_leaves_analyze_the_earlier_annotation(
        fixture_store, tmp_path, monkeypatch):
    config_path, store = fixture_store
    config = Config.load(config_path)
    steps = tmp_path / "steps"
    shutil.copytree(store, steps)
    _inject_pg1001_failure(monkeypatch, "annotate")
    book_ids = kept_book_ids(store)
    together = pipeline._run_stale(("annotate", "analyze"), store, config,
                                   Traces(force=True), book_ids)
    one_by_one = [result for runner in (pipeline.run_annotate,
                                        pipeline.run_analyze)
                  for result in runner(steps, config,
                                       Traces(force=True), book_ids)]
    assert together == one_by_one
    assert [(r.book_id, r.phase) for r in together if not r.ok] == [
        ("pg1001", "annotate")]
    assert _store_files(store) == _store_files(steps)


@pytest.fixture
def changed_writes(monkeypatch):
    """Counts the calls of the store's writer, as the store, the pipeline
    and the renderer bind it, that changed a file."""
    writes = Counter()
    real = store_module.write_if_changed

    def counting(path, content, digests=None):
        changed = real(path, content, digests)
        writes[Path(path)] += changed
        return changed

    for module in (store_module, pipeline, report):
        monkeypatch.setattr(module, "write_if_changed", counting)
    return writes


def test_cold_all_writes_each_book_json_once(smoke_config, tmp_path,
                                             changed_writes):
    store = tmp_path / "store"
    assert run("--config", str(smoke_config), "all", "--in", str(BOOKS),
               "--out", str(store)) == 0
    kept = kept_book_ids(store)
    # book.xml: ingest writes it, then the shared annotate+analyze pass.
    expected = {store / book_id / "book.xml": 1 + (book_id in kept)
                for book_id in store_book_ids(store)}
    expected.update({store / book_id / name: 1 for book_id in kept
                     for name in ("book.json", "lemmas.json")})
    assert {path: n for path, n in changed_writes.items()
            if path.parent.name != "_corpus"
            and path.name in ("book.xml", "book.json", "lemmas.json")
            } == expected


def test_analyze_writes_no_book_json(raw_dir, smoke_config, tmp_path,
                                     changed_writes):
    store = tmp_path / "store"
    for phase in ("ingest", "dedup", "annotate", "analyze"):
        argv = ["--in", str(raw_dir)] if phase == "ingest" else []
        changed_writes.clear()
        assert run("--config", str(smoke_config), phase, *argv,
                   "--out", str(store)) == 0
    assert sorted(path.relative_to(store).as_posix()
                  for path in changed_writes) == [
        f"{book_id}/{name}" for book_id in ("pg1001", "pg1002", "pg730")
        for name in ("book.xml", "lemmas.json")]
    assert not list(store.glob("*/book.json"))


def test_force_rerun_reproduces_identical_store(raw_dir, smoke_config,
                                                tmp_path):
    store = tmp_path / "store"
    assert run("--config", str(smoke_config), "all",
               "--in", str(raw_dir), "--out", str(store)) == 0
    snapshots = {p: p.read_bytes() for p in store.rglob("*")
                 if p.is_file() and p.name != "progress.jsonl"}
    assert run("--config", str(smoke_config), "--force", "all",
               "--in", str(raw_dir), "--out", str(store)) == 0
    for path, before in snapshots.items():
        assert path.read_bytes() == before, f"{path} changed under --force"


def test_jobs_flag_parallel_annotate(raw_dir, smoke_config, tmp_path):
    store = tmp_path / "store"
    status = run("--config", str(smoke_config), "--jobs", "2", "all",
                 "--in", str(raw_dir), "--out", str(store))
    assert status == 0
    assert (store / "pg730" / "index.html").exists()


@contextlib.contextmanager
def stub_mirror(missing=0):
    """The URL of a mirror on 127.0.0.1 that serves every book, each
    response closed ``missing`` bytes short of its Content-Length."""
    import http.server
    import threading

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            body = b"Title: Stubbed\n\nText body.\n"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body) + missing))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()


def test_fetch_subcommand_uses_stub_mirror(tmp_path):
    with stub_mirror() as mirror:
        status = run("fetch", "--ids", "730,11", "--out", str(tmp_path),
                     "--mirror", mirror)
    assert status == 0
    assert (tmp_path / "pg730.txt").exists()
    assert (tmp_path / "pg11.txt").exists()


def test_cut_off_download_is_one_error_line_and_no_file(tmp_path, caplog):
    out = tmp_path / "raw"
    with stub_mirror(missing=10) as mirror:
        assert run("fetch", "--ids", "730", "--out", str(out),
                   "--mirror", mirror) == 1
    errors = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert len(errors) == 1 and errors[0].exc_info is None
    assert errors[0].message.startswith("fetch 730 failed: cannot fetch ")
    assert "IncompleteRead" in errors[0].message
    assert not (out / "pg730.txt").exists()


def test_hathi_pagewise_source(smoke_config, tmp_path):
    raw = tmp_path / "raw"
    book_dir = raw / "uc1.b0001"
    book_dir.mkdir(parents=True)
    text = (BOOKS / "pg1001.txt").read_text(encoding="utf-8")
    body = text.split("***")[2]
    half = len(body) // 2
    (book_dir / "00000001.txt").write_text(body[:half], encoding="utf-8")
    (book_dir / "00000002.txt").write_text(body[half:], encoding="utf-8")
    (book_dir / "manifest.txt").write_text(
        "title: The Marsh Lantern\nauthor: Emily Harwood\nyear: 1871\n",
        encoding="utf-8")
    store = tmp_path / "store"
    status = run("--config", str(smoke_config), "all",
                 "--in", str(raw), "--out", str(store))
    assert status == 0
    payload = json.loads(
        (store / "htuc1.b0001" / "book.json").read_text(encoding="utf-8"))
    assert payload["meta"]["title"] == "The Marsh Lantern"
    assert payload["meta"]["year"] == 1871
    assert payload["meta"]["corpus"] == "hathi"


def _pagewise_source(raw, manifest):
    """pg1004's body as a page-wise book under ``raw``, with ``manifest``
    as the bytes of its manifest."""
    book_dir = raw / "uc1.b0001"
    book_dir.mkdir(parents=True)
    body = (BOOKS / "pg1004.txt").read_text(encoding="utf-8").split("***")[2]
    half = len(body) // 2
    (book_dir / "00000001.txt").write_text(body[:half], encoding="utf-8")
    (book_dir / "00000002.txt").write_text(body[half:], encoding="utf-8")
    (book_dir / "manifest.txt").write_bytes(manifest)
    return book_dir


def test_latin1_manifest_is_decoded_like_the_pages(raw_dir, smoke_config,
                                                   tmp_path, caplog):
    _pagewise_source(raw_dir, "title: Café Stories\n".encode("latin-1"))
    store = tmp_path / "store"
    caplog.set_level(logging.INFO)
    assert run("--config", str(smoke_config), "all",
               "--in", str(raw_dir), "--out", str(store)) == 0
    assert "all: 4 book(s) ok, 0 failed" in caplog.messages
    payload = json.loads((store / "htuc1.b0001" / "book.json").read_bytes())
    assert payload["meta"]["title"] == "Café Stories"


def test_unreadable_page_fails_only_its_book(raw_dir, smoke_config, tmp_path,
                                             caplog):
    page = _pagewise_source(raw_dir, b"") / "00000003.txt"
    page.mkdir()
    store = tmp_path / "store"
    caplog.set_level(logging.INFO)
    assert run("--config", str(smoke_config), "all",
               "--in", str(raw_dir), "--out", str(store)) == 1
    assert "all: 3 book(s) ok, 1 failed" in caplog.messages
    errors = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert [r.exc_info for r in errors] == [None]
    assert errors[0].message.startswith(
        "htuc1.b0001: ingest: cannot read source: ")
    assert str(page) in errors[0].message
    assert store_book_ids(store) == ["pg1001", "pg1002", "pg730"]


def test_load_head_matches_load_after_every_phase(phased_store):
    _, _, heads = phased_store
    assert len(heads) == len(PHASES) * 5
    for phase, book_id, head, full in heads:
        assert head == full, (phase, book_id)


@pytest.fixture
def parse_callers(monkeypatch):
    """Counts full parses by the pipeline runner that asked for them."""
    callers = Counter()
    real_parse = xml_model.parse

    def counting_parse(text):
        runners = [frame.name for frame in traceback.extract_stack()
                   if frame.name.startswith("run_")
                   and frame.filename == pipeline.__file__]
        callers[runners[-1]] += 1
        return real_parse(text)

    monkeypatch.setattr(xml_model, "parse", counting_parse)
    return callers


def test_noop_all_full_parses_no_book(fixture_store, parse_callers):
    config, store = fixture_store
    assert rerun_all(config, store) == 0
    assert parse_callers == {}


def test_noop_all_digests_each_file_at_most_once(fixture_store, monkeypatch):
    config, store = fixture_store
    digested = Counter()
    real_digest = store_module.file_digest

    def counting_digest(path):
        digested[path] += 1
        return real_digest(path)

    monkeypatch.setattr(store_module, "file_digest", counting_digest)
    assert store_book_ids(store) == kept_book_ids(store)
    # The first run has no run trace, so the per-phase traces decide: the
    # sources (for ingest), the index (which dedup's writer compares with
    # the records it rebuilt), what corpus-stats reads and writes, and the
    # pages (for report); then the two memos, for the run trace it
    # records, and the run memo, which the writer compares with what it
    # writes. The second run's run trace is current, and it digests the
    # same files but the run memo, which it only reads.
    expected = Counter([
        *BOOKS.glob("*.txt"),
        *(store / book_id / name for book_id in kept_book_ids(store)
          for name in ("book.xml", "lemmas.json", "book.json", "index.html")),
        *(store / "_corpus" / name for name in (
            "index.jsonl", "corpus.json", "lemmas.json", "vectors.bin",
            "corpus.html", "authors.html", "subjects.html",
            "corpus-stats.memo", "report.memo"))])
    for trace, memo in (("per-phase", 1), ("run", 0)):
        digested.clear()
        assert rerun_all(config, store) == 0
        assert digested == expected + Counter(
            {store / "_corpus" / "all.memo": memo}), trace


def test_report_ranks_the_corpus_vocabulary_once_per_run(fixture_store,
                                                         monkeypatch):
    config, store = fixture_store
    pages = sorted(store.glob("*/*.html")) + sorted(store.glob("*/book.json"))
    before = [path.read_bytes() for path in pages]
    rankings = []
    real_common_words = analytics_book.common_words

    def counting_common_words(*args, **kwargs):
        rankings.append(args)
        return real_common_words(*args, **kwargs)

    monkeypatch.setattr(analytics_book, "common_words", counting_common_words)
    assert run("--config", str(config), "--force", "report",
               "--out", str(store)) == 0
    assert len(rankings) == 1
    assert [path.read_bytes() for path in pages] == before


def test_noop_after_pool_workers_rewrote_books_reuses_everything(
        fixture_store, caplog):
    """The digest of a book.xml taken before a worker process rewrote it
    is not used after."""
    config, store = fixture_store
    for book_id in ("pg730", "pg1001"):  # analyze writes them back canonical
        _edit_xml(store / book_id / "lemmas.json")
    assert rerun_all(config, store, "--jobs", "2") == 0
    _assert_run_trace_is_fresh(config, BOOKS, store)
    (store / "_corpus" / "all.memo").unlink()  # so the per-phase traces decide
    caplog.set_level(logging.DEBUG)
    caplog.clear()
    assert rerun_all(config, store, "--jobs", "2", "-v") == 0
    assert "corpus-stats: inputs unchanged, 5 book(s) reused" in caplog.messages
    assert "report: 5 page(s) reused, 0 rendered" in caplog.messages


def test_all_reads_dedup_index_only_for_dedup_memo(fixture_store, monkeypatch):
    config, store = fixture_store
    loads = []
    real_lines = store_module._numbered_lines

    def counting_lines(path):
        loads.append(Path(path).name)
        return real_lines(path)

    monkeypatch.setattr(store_module, "_numbered_lines", counting_lines)
    # Once, by dedup, for the records it reuses.
    assert rerun_all(config, store) == 0
    assert loads == ["index.jsonl"]
    loads.clear()
    assert rerun_all(config, store, "--force") == 0
    assert loads == []
    # A phase run on its own reads the kept books from the index.
    for phase in ("annotate", "analyze", "corpus-stats", "report"):
        loads.clear()
        assert run("--config", str(config), phase, "--out", str(store)) == 0
        assert loads == ["index.jsonl"], phase


def test_replayed_all_reads_only_the_run_memo(fixture_store, monkeypatch):
    """While its run trace is current, ``all`` decodes no lemma file and
    no other memo, reads no ``<meta>`` and does not read the index."""
    config, store = fixture_store
    assert rerun_all(config, store) == 0
    reads = []

    def reading(real):
        def wrapper(path):
            reads.append(Path(path).relative_to(store).as_posix())
            return real(path)
        return wrapper

    for name in ("_json_object", "_numbered_lines"):
        monkeypatch.setattr(store_module, name,
                            reading(getattr(store_module, name)))
    monkeypatch.setattr(xml_model, "load_head", reading(xml_model.load_head))
    assert rerun_all(config, store) == 0
    assert reads == ["_corpus/all.memo"]


def test_forced_all_full_parses_each_kept_book_once_after_dedup(
        fixture_store, parse_callers):
    config, store = fixture_store
    assert rerun_all(config, store, "--force") == 0
    # Dedup fingerprints every book; annotate and analyze share one parse
    # per kept book, under run_all; corpus-stats and report parse none.
    assert parse_callers == {"run_dedup": 5, "run_all": 5}


def test_every_kept_book_has_lemma_file_matching_its_xml(fixture_store):
    config, store = fixture_store
    kept = kept_book_ids(store)
    assert kept
    for book_id in kept:
        data = (store / book_id / "book.xml").read_bytes()
        book = xml_model.parse(data)
        sidecar = json.loads((store / book_id / "lemmas.json").read_bytes())
        # The trace: the JSON text of the settings analyze reads and the
        # digest of book.xml, digested.
        parts = [getattr(Config.load(config), key)
                 for key in store_module.ANALYSIS_KEYS]
        parts.append(hashlib.sha256(data).hexdigest())
        assert sidecar == {
            "trace": hashlib.sha256(json.dumps(parts).encode()).hexdigest(),
            "lemmas": analytics_book.lemma_sequence(book),
            "payload": json.loads(json.dumps(pipeline.build_book_payload(
                book, Config.load(config))[0]))}
        # book.json is that payload, enriched by report.
        enriched = json.loads((store / book_id / "book.json").read_bytes())
        assert sidecar["payload"] == dict(
            enriched, vocabulary=None, similar=None, placement=None)


def _report_outputs(store):
    """Bytes of every book.json and index.html and the corpus outputs."""
    paths = [*store.glob("*/book.json"), *store.glob("*/index.html"),
             *(store / "_corpus" / name
               for name in ("corpus.json", "lemmas.json", "vectors.bin"))]
    return {str(p.relative_to(store)): p.read_bytes() for p in paths}


def _delete(path):
    path.unlink()


def _truncate(path):
    path.write_bytes(path.read_bytes()[:100])


def _stale(path):
    sidecar = json.loads(path.read_bytes())
    sidecar["trace"] = hashlib.sha256(b"another book").hexdigest()
    sidecar["lemmas"] = ["stale"] * len(sidecar["lemmas"])
    path.write_text(json.dumps(sidecar), encoding="utf-8")


def _edit_xml(path):
    xml = path.with_name("book.xml")
    xml.write_text(xml.read_text(encoding="utf-8").replace(
        "  <body>\n", "  <body>\n<!-- edited by hand -->\n", 1),
        encoding="utf-8")


def _edit_sidecar(path, edit):
    sidecar = json.loads(path.read_bytes())
    edit(sidecar)
    path.write_text(json.dumps(sidecar), encoding="utf-8")


def _no_config(path):  # as an older store wrote it: no trace, no config
    def older(sidecar):
        del sidecar["trace"]
        sidecar["xml_sha256"] = hashlib.sha256(
            path.with_name("book.xml").read_bytes()).hexdigest()
    _edit_sidecar(path, older)


def _no_payload(path):  # as written before the file held the payload
    def drop(sidecar):
        del sidecar["trace"], sidecar["payload"]
    _edit_sidecar(path, drop)


def _other_config(path):  # as written under another timeline_top_k
    other = Config(timeline_top_k=1)
    trace = Traces(False).digest(analysis_parts(
        path.parent.parent, path.parent.name, other))
    _edit_sidecar(path, lambda sidecar: sidecar.update(trace=trace))


@pytest.mark.parametrize("damage", [_delete, _truncate, _stale, _edit_xml,
                                    _no_config, _no_payload, _other_config])
def test_unusable_lemma_file_falls_back_to_parsing(fixture_store, damage,
                                                   parse_callers):
    """A lemma file that is not current is rewritten by one analyze, which
    parses book.xml once; corpus-stats and report parse nothing."""
    config, store = fixture_store
    fresh = _store_bytes(store)
    fresh_outputs = _report_outputs(store)
    damage(store / "pg730" / "lemmas.json")
    assert rerun_all(config, store) == 0
    assert _report_outputs(store) == fresh_outputs
    assert _without_run_memo(_store_bytes(store)) == fresh
    assert parse_callers == {"run_all": 1}
    parse_callers.clear()
    assert rerun_all(config, store) == 0
    assert parse_callers == {}


def _wrong_shape_payload(path):
    _edit_sidecar(path, lambda sidecar: sidecar["payload"].pop("counts"))


def _current_without_payload(path):
    _edit_sidecar(path, lambda sidecar: sidecar.pop("payload"))


def _wrong_shape_lemmas(path):
    _edit_sidecar(path, lambda sidecar: sidecar["lemmas"].append(7))


WRONG_SHAPES = {
    _wrong_shape_payload: "$.payload: missing required key 'counts'",
    _current_without_payload: "$.payload: expected ['object'], got NoneType",
    _wrong_shape_lemmas: "$.lemmas: expected a list of strings"}


@pytest.mark.parametrize("damage", list(WRONG_SHAPES))
def test_current_lemma_file_of_wrong_shape_fails_only_that_book(
        fixture_store, damage, parse_callers):
    """corpus-stats removes the file, so the next run re-analyzes the book."""
    config, store = fixture_store
    fresh = _store_files(store)
    path = store / "pg730" / "lemmas.json"
    damage(path)
    assert rerun_all(config, store) == 1
    failed = [l for l in progress_lines(store) if l["status"] == "error"]
    assert [(l["book"], l["phase"], l["error"]) for l in failed] == [
        ("pg730", "corpus-stats",
         f"{path}: not a book analysis: {WRONG_SHAPES[damage]}"),
        ("pg730", "report", ANALYZE_NEEDED.format("report"))]
    assert parse_callers == {}
    (store / "_corpus" / "progress.jsonl").unlink()
    assert rerun_all(config, store) == 0
    assert parse_callers == {"run_all": 1}
    (store / "_corpus" / "progress.jsonl").unlink()
    assert _without_run_memo(_store_files(store)) == fresh


def test_edited_lemmas_in_xml_win_over_lemma_file(fixture_store, tmp_path):
    config, store = fixture_store
    unsidecared = tmp_path / "without_lemma_files"
    shutil.copytree(store, unsidecared)
    for root in (store, unsidecared):
        xml = root / "pg730" / "book.xml"
        xml.write_text(xml.read_text(encoding="utf-8").replace(
            'lemma="workhouse"', 'lemma="poorhouse"'), encoding="utf-8")
    for path in unsidecared.glob("*/lemmas.json"):
        path.unlink()
    assert rerun_all(config, store) == 0
    assert rerun_all(config, unsidecared) == 0
    edited = _report_outputs(store)
    assert b'"poorhouse"' in edited["_corpus/lemmas.json"]
    assert edited == _report_outputs(unsidecared)


def _only_pg1001_fails(config, store, phase):
    """Runs ``phase`` and returns the one error, which must be pg1001's."""
    assert run("--config", str(config), phase, "--out", str(store)) == 1
    lines = progress_lines(store)
    assert {l["book"]: l["status"] for l in lines} == {
        "pg730": "ok", "pg1001": "error", "pg1002": "ok", "pg1003": "ok",
        "pg1004": "ok"}
    errors = [l["error"] for l in lines if l["status"] == "error"]
    assert len(errors) == 1
    return errors[0]


# corpus-stats and report read no book.json and parse no book.xml: a
# book's payload comes from its lemma file while that is current. So these
# two fail a book through a damaged book.xml, whose lemma file is then
# stale, and check that the book.json left from the last run is unread.
def _damage_pg1001_book_xml(store, content):
    (store / "pg1001" / "book.json").write_text("{", encoding="utf-8")
    (store / "pg1001" / "book.xml").write_bytes(content)
    _stale(store / "pg1001" / "lemmas.json")


ANALYZE_NEEDED = ("phase '{}' requires completed phase 'analyze'; run the "
                  "'analyze' step first")


@pytest.mark.parametrize("phase", ["corpus-stats", "report"])
def test_truncated_book_json_fails_only_that_book(fixture_store, phase,
                                                  parse_callers):
    config, store = fixture_store
    path = store / "pg1001" / "book.xml"
    _damage_pg1001_book_xml(store, path.read_bytes()[:500])
    assert _only_pg1001_fails(config, store, phase) == ANALYZE_NEEDED.format(
        phase)
    assert parse_callers == {}


@pytest.mark.parametrize("phase", ["corpus-stats", "report"])
def test_wrong_shape_book_json_fails_only_that_book(fixture_store, phase,
                                                    parse_callers):
    config, store = fixture_store
    _damage_pg1001_book_xml(store, b"<novel><title>x</title></novel>\n")
    assert _only_pg1001_fails(config, store, phase) == ANALYZE_NEEDED.format(
        phase)
    assert parse_callers == {}


def test_report_over_a_zero_book_corpus_places_no_book(tmp_path, caplog):
    """corpus-stats before analyze leaves a corpus without books, so a
    book analyzed after it has no population to be placed in."""
    raw, store = tmp_path / "raw", tmp_path / "store"
    raw.mkdir()
    shutil.copy(BOOKS / "pg730.txt", raw)
    caplog.set_level(logging.INFO)
    statuses = [run(phase, *(["--in", str(raw)] if phase == "ingest" else []),
                    "--out", str(store))
                for phase in ("ingest", "dedup", "annotate", "corpus-stats",
                              "analyze", "report")]
    assert statuses == [0, 0, 0, 1, 0, 0]
    assert not any(r.exc_info for r in caplog.records)
    page = json.loads((store / "pg730" / "book.json").read_bytes())
    assert page["placement"]["gender_pct"]["percentile_male"] is None
    assert "percentile of the corpus" not in (
        store / "pg730" / "index.html").read_text(encoding="utf-8")


def test_truncated_vectors_fail_report_cleanly(fixture_store, caplog):
    config, store = fixture_store
    path = store / "_corpus" / "vectors.bin"
    path.write_bytes(path.read_bytes()[:40])
    assert run("--config", str(config), "report", "--out", str(store)) == 1
    assert any(r.levelno == logging.ERROR and "report failed" in r.message
               and "vector store" in r.message for r in caplog.records)


@pytest.mark.parametrize("name, content, fragment", [
    ("corpus.json", "{}", "not a bindery.corpus/1 document"),
    ("corpus.json", "[]", "not a bindery.corpus/1 document"),
    ("lemmas.json", '{"total": 5}', "not a corpus lemma model document"),
    ("lemmas.json", '{"total": 5, "common": {"the": "5"}}',
     "not a corpus lemma model document"),
    ("lemmas.json", "[]", "not a corpus lemma model document"),
    ("lemmas.json", "{}", "not a corpus lemma model document"),
    ("corpus.json", "{", "malformed JSON"),
    ("lemmas.json", "x", "malformed JSON"),
], ids=lambda value: value.removeprefix("not a ").removesuffix(" document"))
def test_wrong_shape_corpus_file_fails_report_cleanly(fixture_store, caplog,
                                                      name, content, fragment):
    """A corpus file of the wrong shape, or not JSON at all, fails the
    report with one error line naming it. Rows are named by the file kind
    their message names."""
    config, store = fixture_store
    (store / "_corpus" / name).write_text(content, encoding="utf-8")
    assert run("--config", str(config), "report", "--out", str(store)) == 1
    errors = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert len(errors) == 1 and errors[0].exc_info is None
    assert errors[0].message.startswith("report failed: ")
    assert f"{name}: {fragment}" in errors[0].message


@pytest.mark.parametrize("content", [
    "nonsense = 1\n", "seed = many\n", "no equals sign\n", None,
    "embed_window = 5\n", "dedup_title_author = maybe\n"])
def test_bad_config_is_one_error_line_and_exit_2(tmp_path, caplog, content):
    path = tmp_path / "bad.conf"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    caplog.set_level(logging.INFO)
    assert run("--config", str(path), "dedup",
               "--out", str(tmp_path / "store")) == 2
    assert [r.levelno for r in caplog.records] == [logging.ERROR]
    assert caplog.records[0].message.startswith("bad config: ")
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("variable", [
    "BINDERY_SEEED", "BINDERY_EMBED_WINDOW", "BINDERY_seed", "BINDERY_"])
def test_unknown_config_variable_is_one_error_line_and_exit_2(
        tmp_path, caplog, monkeypatch, variable):
    monkeypatch.setenv(variable, "3")
    caplog.set_level(logging.INFO)
    assert run("dedup", "--out", str(tmp_path / "store")) == 2
    assert [r.message for r in caplog.records] == [
        f"bad config: \"unknown config variable: '{variable}'\""]
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("key", ["minhash_hashes", "shingle_size",
                                 "gender_time_bins", "top2_histogram_bins"])
def test_count_below_one_is_a_bad_config(tmp_path, caplog, monkeypatch, key,
                                         value):
    monkeypatch.setenv(f"BINDERY_{key.upper()}", value)
    caplog.set_level(logging.INFO)
    assert run("all", "--in", str(BOOKS), "--out", str(tmp_path / "store")) == 2
    assert [(r.levelno, r.exc_info) for r in caplog.records] == [
        (logging.ERROR, None)]
    assert caplog.records[0].message == f"bad config: {key} = {value}: below 1"
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("key, value, message", [
    ("min_mentions", "2", "min_mentions = 2: below 3"),
    ("dedup_content_threshold", "-1", "dedup_content_threshold = -1.0: below 0"),
    ("dedup_content_threshold", "1.5", "dedup_content_threshold = 1.5: above 1"),
    ("vocab_list_len", "-1", "vocab_list_len = -1: below 0"),
    ("similar_top_k", "-1", "similar_top_k = -1: below 0"),
    ("rank_share_ranks", "-1", "rank_share_ranks = -1: below 1"),
    ("rank_share_ranks", "0", "rank_share_ranks = 0: below 1"),
    ("embed_dim", "-3", "embed_dim = -3: below 1"),
    ("embed_dim", "0", "embed_dim = 0: below 1"),
    ("embed_epochs", "0", "embed_epochs = 0: below 1"),
    ("embed_learning_rate", "nan", "embed_learning_rate = nan: below 0"),
    ("embed_learning_rate", "-0.1", "embed_learning_rate = -0.1: below 0"),
    ("interaction_window", "-5", "interaction_window = -5: below 0"),
    ("timeline_top_k", "-1", "timeline_top_k = -1: below 0"),
    ("seed", "-1", "seed = -1: below 0"),
    ("embed_negatives", "-1", "embed_negatives = -1: below 0"),
    ("embed_vocab_max", "-1", "embed_vocab_max = -1: below 0"),
    ("vocab_top_common", "-1", "vocab_top_common = -1: below 0"),
    ("lexicon_dir", "/nonexistent-lexicons",
     "lexicon_dir = /nonexistent-lexicons: not a directory"),
])
def test_value_out_of_range_is_a_bad_config(tmp_path, caplog, monkeypatch,
                                            key, value, message):
    monkeypatch.setenv(f"BINDERY_{key.upper()}", value)
    caplog.set_level(logging.INFO)
    assert run("all", "--in", str(BOOKS), "--out", str(tmp_path / "store")) == 2
    assert [(r.levelno, r.exc_info) for r in caplog.records] == [
        (logging.ERROR, None)]
    assert caplog.records[0].message == f"bad config: {message}"
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("flags, message", [
    (("--seed", "-1"), "seed = -1: below 0"),
    (("--seed", "7.5"), "seed = 7.5: invalid literal for int() with base 10: "
                        "'7.5'"),
    (("--jobs", "two"), "jobs = two: invalid literal for int() with base 10: "
                        "'two'"),
])
def test_bad_flag_value_is_a_bad_config(tmp_path, caplog, flags, message):
    """A flag is checked like the variable of its key."""
    config = tmp_path / "c.conf"
    config.write_text("embed_min_count = 1\n", encoding="utf-8")
    caplog.set_level(logging.INFO)
    assert run("--config", str(config), *flags, "all", "--in", str(BOOKS),
               "--out", str(tmp_path / "store")) == 2
    assert [(r.levelno, r.message, r.exc_info) for r in caplog.records] == [
        (logging.ERROR, f"bad config: {message}", None)]
    assert not (tmp_path / "store").exists()


def test_lexicon_file_that_is_not_utf8_is_a_bad_config(tmp_path, caplog,
                                                       monkeypatch):
    lexicons = tmp_path / "lexicons"
    lexicons.mkdir()
    (lexicons / "stopwords.txt").write_bytes("the\ncafé\n".encode("latin-1"))
    monkeypatch.setenv("BINDERY_LEXICON_DIR", str(lexicons))
    caplog.set_level(logging.INFO)
    assert run("all", "--in", str(BOOKS), "--out", str(tmp_path / "store")) == 2
    assert [(r.levelno, r.message, r.exc_info) for r in caplog.records] == [
        (logging.ERROR, f"bad config: lexicon_dir = {lexicons}: stopwords.txt "
         "is not UTF-8 (invalid continuation byte at byte 7)", None)]
    assert not (tmp_path / "store").exists()


def test_values_at_the_ends_of_their_ranges_are_accepted():
    env = {"BINDERY_MIN_MENTIONS": "3", "BINDERY_VOCAB_LIST_LEN": "0",
           "BINDERY_SIMILAR_TOP_K": "0", "BINDERY_RANK_SHARE_RANKS": "1",
           "BINDERY_EMBED_DIM": "1", "BINDERY_EMBED_EPOCHS": "1",
           "BINDERY_EMBED_LEARNING_RATE": "0",
           "BINDERY_INTERACTION_WINDOW": "0", "BINDERY_TIMELINE_TOP_K": "0",
           "BINDERY_SEED": "0", "BINDERY_EMBED_NEGATIVES": "0",
           "BINDERY_EMBED_VOCAB_MAX": "0", "BINDERY_VOCAB_TOP_COMMON": "0"}
    for threshold in ("0", "1"):
        env["BINDERY_DEDUP_CONTENT_THRESHOLD"] = threshold
        config = Config.load(env=env)
        assert config.dedup_content_threshold == float(threshold)
    assert (config.min_mentions, config.vocab_list_len,
            config.similar_top_k) == (3, 0, 0)
    assert (config.rank_share_ranks, config.embed_dim, config.embed_epochs,
            config.embed_learning_rate, config.interaction_window,
            config.timeline_top_k) == (1, 1, 1, 0.0, 0, 0)
    assert (config.seed, config.embed_negatives, config.embed_vocab_max,
            config.vocab_top_common) == (0, 0, 0, 0)


def test_noop_parallel_all_starts_no_pool(fixture_store, monkeypatch):
    config, store = fixture_store
    pools = []

    def no_pool(*args, **kwargs):
        pools.append(kwargs)
        raise RuntimeError("a no-op run started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert rerun_all(config, store, "--jobs", "2") == 0
    assert pools == []


def test_progress_log_has_one_line_per_book_per_phase(raw_dir, smoke_config,
                                                      tmp_path, caplog):
    store = tmp_path / "store"
    caplog.set_level(logging.INFO)
    books = {"pg730", "pg1001", "pg1002"}
    expected = Counter((book, phase) for book in books for phase in PHASES)
    for _ in range(2):  # cold, then every book skipped as up to date
        caplog.clear()
        assert run("--config", str(smoke_config), "all",
                   "--in", str(raw_dir), "--out", str(store)) == 0
        lines = progress_lines(store)
        (store / "_corpus" / "progress.jsonl").unlink()
        assert Counter((l["book"], l["phase"]) for l in lines) == expected
        assert all(l == {"book": l["book"], "phase": l["phase"],
                         "status": "ok", "error": None} for l in lines)
        assert "all: 3 book(s) ok, 0 failed" in caplog.messages


def test_corrupt_body_is_reported_by_first_full_parse(fixture_store, caplog):
    caplog.set_level(logging.INFO)
    config, store = fixture_store
    path = store / "pg1001" / "book.xml"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('<t i="0" o="', '<t i="0" o="x', 1),
                    encoding="utf-8")
    assert rerun_all(config, store) == 1
    lines = progress_lines(store)
    statuses = {(l["book"], l["phase"]): l["status"] for l in lines}
    assert len(statuses) == len(lines) == len(PHASES) * 5
    errors = [l for l in lines if l["status"] == "error"]
    assert [(l["book"], l["phase"]) for l in errors] == [
        ("pg1001", "analyze"), ("pg1001", "corpus-stats"),
        ("pg1001", "report")]
    assert "line" in errors[0]["error"]
    assert [l["error"] for l in errors[1:]] == [
        ANALYZE_NEEDED.format(phase) for phase in ("corpus-stats", "report")]
    assert "all: 4 book(s) ok, 1 failed" in caplog.messages
    for book_id in ("pg730", "pg1002", "pg1003", "pg1004"):
        assert (store / book_id / "index.html").exists()


@pytest.mark.parametrize("command", ["annotate", "all"])
def test_each_failed_book_phase_is_logged_once(fixture_store, caplog, command):
    config, store = fixture_store
    (store / "pg1001" / "book.xml").write_text("garbage", encoding="utf-8")
    argv = ["--in", str(BOOKS)] if command == "all" else []
    assert run("--config", str(config), command, *argv,
               "--out", str(store)) == 1
    failed = [l for l in progress_lines(store) if l["status"] == "error"]
    assert {l["book"] for l in failed} == {"pg1001"}
    assert len(failed) == (1 if command == "annotate" else len(PHASES))
    assert [r.message for r in caplog.records
            if r.levelno == logging.ERROR] == [
        f"pg1001: {l['phase']}: {l['error']}" for l in failed]


def test_all_logs_each_phase_runner_time_at_debug(fixture_store, caplog):
    caplog.set_level(logging.DEBUG)
    config, store = fixture_store
    assert rerun_all(config, store, "-v") == 0
    timings = [re.fullmatch(r"(\S+): \d+\.\d{3} s, (\d+) book\(s\)", r.message)
               for r in caplog.records if r.name == "bindery.pipeline"]
    assert [(m[1], m[2]) for m in timings if m] == [
        ("ingest", "5"), ("dedup", "5"), ("annotate+analyze", "5"),
        ("corpus-stats", "5"), ("report", "5")]
    assert "corpus-stats: inputs unchanged, 5 book(s) reused" in caplog.messages
    assert "report: 5 page(s) reused, 0 rendered" in caplog.messages


PEAK_MEMORY = (r"peak memory: (\d+\.\d) MB, "
               r"largest pool worker: (\d+\.\d) MB")


def test_all_logs_peak_memory_after_the_runner_lines(fixture_store, caplog):
    caplog.set_level(logging.DEBUG)
    config, store = fixture_store
    assert rerun_all(config, store, "-v") == 0
    records = [r for r in caplog.records if r.name == "bindery.pipeline"]
    messages = [r.message for r in records]
    assert re.fullmatch(r"report: \d+\.\d{3} s, 5 book\(s\)", messages[-2])
    peak = re.fullmatch(PEAK_MEMORY, messages[-1])
    assert peak and 1.0 < float(peak[1]) < 100_000.0
    assert records[-1].levelno == logging.DEBUG
    assert sum(m.startswith("peak memory:") for m in messages) == 1


def test_peak_memory_line_gives_the_largest_pool_worker_at_jobs_2(
        raw_dir, smoke_config, tmp_path, caplog):
    caplog.set_level(logging.DEBUG)
    assert run("--config", str(smoke_config), "--jobs", "2", "-v", "all",
               "--in", str(raw_dir), "--out", str(tmp_path / "store")) == 0
    messages = [r.message for r in caplog.records
                if r.name == "bindery.pipeline"]
    peak = re.fullmatch(PEAK_MEMORY, messages[-1])
    assert peak and 1.0 < float(peak[1]) < 100_000.0
    # The pool ran annotate+analyze, so a worker was waited for.
    assert 1.0 < float(peak[2]) < 100_000.0


# -- dedup memo: the records of the index ------------------------------------


def _index_bytes(store):
    return (store / "_corpus" / "index.jsonl").read_bytes()


def _dedup(config, store, *flags):
    return run("--config", str(config), *flags, "dedup", "--out", str(store))


def _assert_memo_matches_full_builds(config, store, parse_callers, *flags):
    """A memo run writes the index that --force and a fresh build write."""
    memo = _index_bytes(store)
    parse_callers.clear()
    assert _dedup(config, store, "--force", *flags) == 0
    assert parse_callers["run_dedup"] == len(store_book_ids(store))
    assert _index_bytes(store) == memo
    (store / "_corpus" / "index.jsonl").unlink()
    assert _dedup(config, store, *flags) == 0
    assert _index_bytes(store) == memo


def test_memo_index_equals_forced_and_fresh_index(fixture_store, parse_callers,
                                                  caplog):
    config, store = fixture_store
    cold = _index_bytes(store)  # written while the books were ingest-stage
    records = [json.loads(line) for line in cold.splitlines()]
    assert all(r["minhash"] == [128, 5, 13] for r in records)
    assert all(re.fullmatch("[0-9a-f]{64}", r["body_sha256"]) for r in records)
    assert all(r["matched_under"] == [0.8, True] for r in records)
    caplog.set_level(logging.DEBUG)
    assert _dedup(config, store, "-v") == 0
    assert parse_callers == {}
    assert ("dedup: 5 fingerprint(s) reused, 0 computed, 0 book(s) compared"
            in caplog.messages)
    assert _index_bytes(store) == cold
    _assert_memo_matches_full_builds(config, store, parse_callers)


def test_memo_index_equals_full_builds_on_generated_books(tmp_path,
                                                          parse_callers):
    store = tmp_path / "store"
    short = 0
    for seed in range(40):
        book = random_book(seed=seed)
        path = store / f"pg{seed}" / "book.xml"
        path.parent.mkdir(parents=True)
        path.write_text(xml_model.serialize(book), encoding="utf-8")
        try:
            dedup.shingle_set(pipeline.body_text_of(book))
        except TooShortError:
            short += 1
    assert 0 < short < 40
    config_path = tmp_path / "empty.conf"
    config_path.write_text("", encoding="utf-8")
    assert _dedup(config_path, store) == 0
    undigested = sum(b"body_sha256" not in line
                     for line in _index_bytes(store).splitlines())
    assert 0 < undigested < 40
    parse_callers.clear()
    assert _dedup(config_path, store) == 0
    assert parse_callers == {"run_dedup": undigested}
    _assert_memo_matches_full_builds(config_path, store, parse_callers)


@pytest.mark.parametrize("setting", ["--seed=99", "minhash_hashes = 64",
                                     "shingle_size = 4"])
def test_changed_minhash_parameters_refingerprint_every_book(
        fixture_store, parse_callers, setting):
    config, store = fixture_store
    flags = []
    if setting.startswith("--"):
        flags.append(setting)
    else:
        changed = store.parent / "changed.conf"
        changed.write_text(config.read_text(encoding="utf-8") + setting + "\n",
                           encoding="utf-8")
        config = changed
    assert _dedup(config, store, *flags) == 0
    assert parse_callers == {"run_dedup": 5}
    parse_callers.clear()
    assert _dedup(config, store, *flags) == 0
    assert parse_callers == {}
    _assert_memo_matches_full_builds(config, store, parse_callers, *flags)


def test_reingested_source_is_the_only_book_refingerprinted(
        fixture_store, parse_callers, tmp_path):
    config, store = fixture_store
    raw = tmp_path / "raw"
    shutil.copytree(BOOKS, raw)
    _edit_pg1002(raw)
    before = {r["id"]: r for r in map(json.loads,
                                       _index_bytes(store).splitlines())}
    assert run("--config", str(config), "--force", "ingest", "--in", str(raw),
               "--out", str(store)) == 0
    assert _dedup(config, store) == 0
    assert parse_callers == {"run_dedup": 1}
    after = {r["id"]: r for r in map(json.loads,
                                      _index_bytes(store).splitlines())}
    assert [b for b in before if before[b] != after[b]] == ["pg1002"]
    assert after["pg1002"]["text_length"] > before["pg1002"]["text_length"]
    _assert_memo_matches_full_builds(config, store, parse_callers)


@pytest.mark.parametrize("edit", [
    {"signature": list(range(64))},
    {"body_sha256": "0" * 64},
    {"minhash": [128, 5, 14]},
])
def test_edited_memo_record_refingerprints_only_its_book(
        fixture_store, parse_callers, edit):
    config, store = fixture_store
    index = store / "_corpus" / "index.jsonl"
    good = index.read_bytes()
    records = [json.loads(line) for line in good.splitlines()]
    for record in records:
        if record["id"] == "pg730":
            record.update(edit)
    index.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert _dedup(config, store) == 0
    assert parse_callers == {"run_dedup": 1}
    assert index.read_bytes() == good


def test_store_without_body_digests_is_fingerprinted_as_before(
        fixture_store, parse_callers):
    config, store = fixture_store
    for path in store.glob("*/book.xml"):
        text = path.read_text(encoding="utf-8")
        path.write_text(re.sub(r"    <body_sha256>\w+</body_sha256>\n", "",
                               text), encoding="utf-8")
    index = store / "_corpus" / "index.jsonl"
    records = [json.loads(line) for line in index.read_text().splitlines()]
    index.write_text("".join(
        json.dumps({k: v for k, v in r.items() if k not in (
                    "body_sha256", "minhash", "matches", "matched_under")},
                   sort_keys=True) + "\n" for r in records))
    old = index.read_bytes()
    for _ in range(2):
        parse_callers.clear()
        assert _dedup(config, store) == 0
        assert parse_callers == {"run_dedup": 5}
        assert index.read_bytes() == old


def test_truncated_index_fails_cleanly_and_dedup_rewrites_it(fixture_store,
                                                             caplog):
    config, store = fixture_store
    index = store / "_corpus" / "index.jsonl"
    good = index.read_bytes()
    index.write_bytes(good[:200])
    assert run("--config", str(config), "annotate", "--out", str(store)) == 1
    errors = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert len(errors) == 1 and errors[0].exc_info is None
    assert errors[0].message.startswith("annotate failed: ")
    assert "index.jsonl" in errors[0].message and "line 1" in errors[0].message
    assert _dedup(config, store) == 0
    assert index.read_bytes() == good
    assert run("--config", str(config), "annotate", "--out", str(store)) == 0


def test_record_of_wrong_shape_fails_only_dedups_reuse(fixture_store,
                                                       parse_callers):
    """The kept set needs only each record's id and representative_of."""
    config, store = fixture_store
    index = store / "_corpus" / "index.jsonl"
    good = index.read_bytes()
    records = [json.loads(line) for line in good.splitlines()]
    records[0]["signature"] = "not a list of integers"
    index.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run("--config", str(config), "annotate", "--out", str(store)) == 0
    assert _dedup(config, store) == 0
    assert parse_callers == {"run_dedup": 5}
    assert index.read_bytes() == good


def test_first_noop_after_cold_all_takes_the_dedup_memo(
        raw_dir, smoke_config, tmp_path, caplog, monkeypatch):
    store = tmp_path / "store"
    assert run("--config", str(smoke_config), "all", "--in", str(raw_dir),
               "--out", str(store)) == 0

    def no_comparison(*args, **kwargs):
        raise AssertionError("a no-op run fingerprinted or compared books")

    for name in ("fingerprint", "estimate_similarity"):
        monkeypatch.setattr(dedup, name, no_comparison)
    caplog.set_level(logging.DEBUG)
    (store / "_corpus" / "all.memo").unlink()  # so the per-phase traces decide
    assert run("--config", str(smoke_config), "-v", "all", "--in",
               str(raw_dir), "--out", str(store)) == 0
    assert ("dedup: 3 fingerprint(s) reused, 0 computed, 0 book(s) compared"
            in caplog.messages)


@pytest.fixture(scope="module")
def dedup_store(tmp_path_factory):
    """The fixture books and a reprint of pg730, ingested and deduplicated."""
    root = tmp_path_factory.mktemp("dedup")
    raw, store = root / "raw", root / "store"
    shutil.copytree(BOOKS, raw)
    shutil.copy(BOOKS / "pg730.txt", raw / "pg7300.txt")
    assert run("ingest", "--in", str(raw), "--out", str(store)) == 0
    assert run("dedup", "--out", str(store)) == 0
    (store / "_corpus" / "progress.jsonl").unlink()
    return raw, store


def _set_header(source, **fields):
    text = source.read_text(encoding="utf-8")
    for name, value in fields.items():
        text = re.sub(rf"^{name.title()}: .*$", f"{name.title()}: {value}",
                      text, count=1, flags=re.MULTILINE)
    source.write_text(text, encoding="utf-8")


def _remove_reprint(raw, store):
    (raw / "pg7300.txt").unlink()
    shutil.rmtree(store / "pg7300")


def _index_in_parent_format(raw, store):
    """The index as written before records kept their matches."""
    index = store / "_corpus" / "index.jsonl"
    records = [json.loads(line) for line in index.read_text().splitlines()]
    index.write_text("".join(json.dumps(
        {k: v for k, v in r.items() if k not in ("matches", "matched_under")},
        sort_keys=True) + "\n" for r in records))


# name -> (change before the re-run, how many books the re-run's dedup
# compares with all the others; None for every book). A change is made to
# the sources and the store, to the environment, or to the run as flags.
DEDUP_MEMO_CASES = {
    "unchanged": (None, 0),
    "source edited": (lambda raw, store: _edit_pg1002(raw), 1),
    "title changed": (lambda raw, store: _set_header(
        raw / "pg1003.txt", title="A Title Changed by Hand"), 1),
    "title and author of another book": (lambda raw, store: _set_header(
        raw / "pg1001.txt", title="Oliver Twist", author="Charles Dickens"),
        1),
    "book added": (lambda raw, store: shutil.copy(raw / "pg1002.txt",
                                                  raw / "9002.txt"), 1),
    "book removed": (_remove_reprint, 0),
    "index.jsonl deleted": (
        lambda raw, store: _delete(store / "_corpus" / "index.jsonl"), None),
    "index.jsonl damaged": (
        lambda raw, store: _truncate(store / "_corpus" / "index.jsonl"), None),
    "index in the parent's format": (_index_in_parent_format, None),
    "seed": ({"BINDERY_SEED": "99"}, None),
    "minhash_hashes": ({"BINDERY_MINHASH_HASHES": "64"}, None),
    "shingle_size": ({"BINDERY_SHINGLE_SIZE": "4"}, None),
    "content threshold": ({"BINDERY_DEDUP_CONTENT_THRESHOLD": "0.5"}, None),
    "dedup_title_author": ({"BINDERY_DEDUP_TITLE_AUTHOR": "false"}, None),
    "--force": (["--force"], None),
}


def _duplicate_lines(caplog):
    return [m for m in caplog.messages if " duplicate(s): " in m]


_COMPARED = re.compile(r"dedup: \d+ fingerprint\(s\) reused, \d+ computed, "
                       r"(\d+) book\(s\) compared")


def _books_compared(caplog):
    [count] = [int(m[1]) for m in map(_COMPARED.fullmatch, caplog.messages)
               if m]
    return count


@pytest.mark.parametrize("case", list(DEDUP_MEMO_CASES))
def test_dedup_memo_runs_match_forced_runs(dedup_store, tmp_path, caplog,
                                           monkeypatch, case):
    """After each change, ingest and dedup leave the store and log the
    duplicates of forced runs, comparing only the books whose records
    cannot be reused, and the next dedup reuses every record."""
    raw, store = tmp_path / "raw", tmp_path / "store"
    shutil.copytree(dedup_store[0], raw)
    shutil.copytree(dedup_store[1], store)
    change, compared = DEDUP_MEMO_CASES[case]
    flags = []
    if isinstance(change, list):
        flags = change
    elif isinstance(change, dict):
        for name, value in change.items():
            monkeypatch.setenv(name, value)
    elif change is not None:
        change(raw, store)
    forced = tmp_path / "forced"
    shutil.copytree(store, forced)
    caplog.set_level(logging.DEBUG)
    duplicates, counts = [], []
    for root, force in ((store, flags), (forced, ["--force"])):
        caplog.clear()
        assert run("-v", *force, "ingest", "--in", str(raw),
                   "--out", str(root)) == 0
        assert run("-v", *force, "dedup", "--out", str(root)) == 0
        duplicates.append(_duplicate_lines(caplog))
        counts.append(_books_compared(caplog))
    books = len(store_book_ids(store))
    assert counts == [books if compared is None else compared, books]
    assert duplicates[0] == duplicates[1]
    assert _store_bytes(store) == _store_bytes(forced)
    caplog.clear()
    assert run("-v", "dedup", "--out", str(store)) == 0
    assert (f"dedup: {books} fingerprint(s) reused, 0 computed, 0 book(s) "
            "compared") in caplog.messages
    assert _duplicate_lines(caplog) == duplicates[0]
    if case == "unchanged":
        assert duplicates[0] == ["dedup: 1 duplicate(s): pg7300->pg730"]


# -- corpus-stats and report memos ---------------------------------------------


def _store_bytes(store):
    return {p.relative_to(store).as_posix(): p.read_bytes()
            for p in sorted(store.rglob("*"))
            if p.is_file() and p.name != "progress.jsonl"}


def _memo_lines(caplog):
    return [r.message for r in caplog.records
            if re.match(r"corpus-stats: inputs|report: \d+ page", r.message)]


def _assert_memo_runs_match_forced(config, store, caplog, flags, expected):
    """corpus-stats and report as a forced run leaves them, with ``expected``
    memo lines.

    The two phases run on ``store`` with their memos and, with --force, on
    a copy; exit statuses, progress lines and store bytes must agree.
    Returns the statuses.
    """
    (store / "_corpus" / "progress.jsonl").unlink(missing_ok=True)
    forced = store.parent / "forced"
    shutil.copytree(store, forced)
    caplog.set_level(logging.DEBUG)
    statuses = []
    for root, force in ((store, ()), (forced, ("--force",))):
        caplog.clear()
        statuses.append([run("--config", str(config), "-v", *flags, *force,
                             phase, "--out", str(root))
                         for phase in ("corpus-stats", "report")])
        if root == store:
            assert _memo_lines(caplog) == expected
    assert statuses[0] == statuses[1]
    logs = [(root / "_corpus" / "progress.jsonl").read_text(
        encoding="utf-8").replace(str(root), "<store>")
        for root in (store, forced)]
    assert logs[0] == logs[1]
    assert _store_bytes(store) == _store_bytes(forced)
    shutil.rmtree(forced)
    return statuses[0]


def _edit_bare_field(path):
    payload = json.loads(path.read_bytes())
    payload["meta"]["title"] = "A Title Edited by Hand"
    path.write_text(json.dumps(payload), encoding="utf-8")


def _damage_memos(corpus_dir):
    (corpus_dir / "corpus-stats.memo").write_text('{"inputs": "', "utf-8")
    (corpus_dir / "report.memo").write_text("[]", encoding="utf-8")


def _delete_memos(corpus_dir):
    for name in ("corpus-stats.memo", "report.memo"):
        (corpus_dir / name).unlink()


def _per_page_memo(path):
    """The report memo in the shape it had before its one trace: a trace
    for each kept book's pages and one for the corpus pages."""
    trace = json.loads(path.read_bytes())["trace"]
    pages = [*kept_book_ids(path.parent.parent), "_corpus"]
    path.write_text(json.dumps(dict.fromkeys(pages, trace)), encoding="utf-8")


# name -> (change to the store, corpus-stats memo hits, pages re-rendered)
# A change is applied to a book, to _corpus/, to the environment, or to the
# run as flags. Without analyze, a book whose lemma file is no longer
# current fails both phases: "all but one" renders every other page, and
# "every book fails" renders none.
MEMO_CASES = {
    "unchanged": (None, True, "none"),
    "jobs": (["--jobs", "2"], True, "none"),
    "book.xml edited": (("book", "lemmas.json", _edit_xml), False,
                        "all but one"),
    "book.json bare field": (("book", "book.json", _edit_bare_field), True,
                             "all"),
    "lemmas.json deleted": (("book", "lemmas.json", _delete), False,
                            "all but one"),
    "lemmas.json damaged": (("book", "lemmas.json", _truncate), False,
                            "all but one"),
    "index.html deleted": (("book", "index.html", _delete), True, "all"),
    "corpus.html deleted": (("corpus", "corpus.html", _delete), True, "all"),
    "corpus.json damaged": (("corpus", "corpus.json", _truncate), False,
                            "none"),
    "vectors.bin damaged": (("corpus", "vectors.bin", _truncate), False,
                            "none"),
    "seed": (["--seed", "99"], False, "all"),
    "config key": ({"BINDERY_SIMILAR_TOP_K": "2"}, False, "all"),
    "analysis key": ({"BINDERY_TIMELINE_TOP_K": "1"}, False,
                     "every book fails"),
    "version": ("__version__", False, "all"),
    "memos damaged": (("corpus", "", _damage_memos), False, "all"),
    "memos deleted": (("corpus", "", _delete_memos), False, "all"),
    "per-page report memo": (("corpus", "report.memo", _per_page_memo), True,
                             "all"),
    "book fails": (("book", "book.xml", lambda p: p.write_text("garbage")),
                   False, "all but one"),
}


def _make_memo_change(change, store, book_id, monkeypatch):
    """Make a ``MEMO_CASES`` change to ``book_id`` of ``store``; returns the
    flags of the re-run."""
    if isinstance(change, list):
        return change
    if isinstance(change, dict):
        for name, value in change.items():
            monkeypatch.setenv(name, value)
    elif change == "__version__":
        monkeypatch.setattr(bindery, change, bindery.__version__ + "+changed")
    elif change is not None:
        where, name, damage = change
        damage((store / book_id if where == "book" else store / "_corpus")
               / name)
    return []


def _check_memo_case(config, store, book_id, case, caplog, monkeypatch):
    change, hit, pages = MEMO_CASES[case]
    flags = _make_memo_change(change, store, book_id, monkeypatch)
    books = len(kept_book_ids(store))
    reused, rendered = {"none": (books, 0), "all": (0, books),
                        "all but one": (0, books - 1),
                        "every book fails": (0, 0)}[pages]
    fails = pages in ("all but one", "every book fails")
    expected = ([f"corpus-stats: inputs unchanged, {books} book(s) reused"]
                if hit else [])
    expected.append(f"report: {reused} page(s) reused, {rendered} rendered")
    statuses = _assert_memo_runs_match_forced(config, store, caplog, flags,
                                              expected)
    assert statuses == ([1, 1] if fails else [0, 0])
    if pages == "every book fails":
        assert {(l["phase"], l["error"]) for l in progress_lines(store)} == {
            (phase, ANALYZE_NEEDED.format(phase))
            for phase in ("corpus-stats", "report")}
    if fails:  # a re-run reports the failures and renders every page again
        rerun = [f"report: 0 page(s) reused, {rendered} rendered"]
        assert _assert_memo_runs_match_forced(
            config, store, caplog, flags, rerun) == statuses


@pytest.mark.parametrize("case", list(MEMO_CASES))
def test_memo_runs_match_forced_runs(fixture_store, caplog, monkeypatch, case):
    config, store = fixture_store
    _check_memo_case(config, store, "pg730", case, caplog, monkeypatch)


def test_mirror_base_reruns_no_corpus_phase(fixture_store, caplog,
                                            monkeypatch, changed_writes):
    """Only fetch reads mirror_base, so no trace covers it: the first
    ``all`` writes only its run memo, which the next ``all`` replays."""
    config, store = fixture_store
    books = len(kept_book_ids(store))
    caplog.set_level(logging.DEBUG)

    def all_under(mirror):
        monkeypatch.setenv("BINDERY_MIRROR_BASE", mirror)
        caplog.clear()
        changed_writes.clear()
        assert run("--config", str(config), "-v", "all", "--in", str(BOOKS),
                   "--out", str(store)) == 0
        return _memo_lines(caplog), +changed_writes

    assert all_under("http://127.0.0.1:9/mirror") == (
        [f"corpus-stats: inputs unchanged, {books} book(s) reused",
         f"report: {books} page(s) reused, 0 rendered"],
        Counter({store / "_corpus" / "all.memo": 1}))
    assert all_under("http://127.0.0.1:9/other") == ([], Counter())
    assert _replayed(caplog)


def test_noop_report_calls_no_writer(fixture_store, changed_writes):
    config, store = fixture_store
    assert run("--config", str(config), "report", "--out", str(store)) == 0
    assert list(changed_writes) == []


def test_per_page_report_memo_is_replaced_once(fixture_store, changed_writes):
    """A memo of the old per-page shape renders every page once, leaves
    each page's bytes and mtime, and is itself the one file rewritten."""
    config, store = fixture_store
    memo = store / "_corpus" / "report.memo"
    _per_page_memo(memo)
    pages = {path: (path.read_bytes(), path.stat().st_mtime_ns)
             for path in sorted(store.rglob("*"))
             if path.is_file() and path != memo}
    for _ in range(2):
        assert run("--config", str(config), "report",
                   "--out", str(store)) == 0
        assert {path: (path.read_bytes(), path.stat().st_mtime_ns)
                for path in pages} == pages
    assert +changed_writes == Counter({memo: 1})
    assert list(json.loads(memo.read_bytes())) == ["trace"]


# -- the run trace of all -----------------------------------------------------


@pytest.fixture(scope="module")
def run_store(tmp_path_factory):
    """Three fixture books, a reprint of pg730 and a page-wise book, through
    one ``all`` under the smoke config."""
    root = tmp_path_factory.mktemp("run")
    raw, store = root / "raw", root / "store"
    raw.mkdir()
    for name in ("pg730.txt", "pg1001.txt", "pg1002.txt"):
        shutil.copy(BOOKS / name, raw)
    shutil.copy(BOOKS / "pg730.txt", raw / "pg7300.txt")
    pages = raw / "uc1.b0001"
    pages.mkdir()
    body = (BOOKS / "pg1003.txt").read_text(encoding="utf-8").split("***")[2]
    half = body.index("\n\n", len(body) // 2)
    (pages / "00000001.txt").write_text(body[:half], encoding="utf-8")
    (pages / "00000002.txt").write_text(body[half:], encoding="utf-8")
    (pages / "manifest.txt").write_text(
        "title: The Glass Orchard\nauthor: Ann Prior\nyear: 1850\n",
        encoding="utf-8")
    config = root / "bindery.conf"
    config.write_text("embed_min_count = 2\nembed_dim = 32\nembed_epochs = 5\n",
                      encoding="utf-8")
    assert run("--config", str(config), "all", "--in", str(raw),
               "--out", str(store)) == 0
    (store / "_corpus" / "progress.jsonl").unlink()
    return config, raw, store


def test_all_records_its_run_trace_and_results(run_store, tmp_path):
    config_path, raw, recorded = run_store
    _assert_run_trace_is_fresh(config_path, raw, recorded)
    store = tmp_path / "store"
    shutil.copytree(recorded, store)
    config = Config.load(config_path)
    results = pipeline.run_all(raw, store, config, Traces(False))
    assert _store_bytes(store) == _store_bytes(recorded)
    assert [r.book_id for r in results if r.duplicate_of] == ["pg7300"]
    assert store_module.replay_run(raw, store, config,
                                   Traces(False)) == results
    assert store_module.replay_run(raw, store, config, Traces(True)) is None
    memo = json.loads((store / "_corpus" / "all.memo").read_bytes())
    kept = ["htuc1.b0001", "pg1001", "pg1002", "pg730"]
    # Ingest takes the sources in name order, the others the stored books.
    assert memo["phases"] == [
        {"phase": "ingest", "books": [*kept[1:], "pg7300", "htuc1.b0001"]},
        {"phase": "dedup", "books": [*kept, "pg7300"]},
        *({"phase": phase, "books": kept} for phase in PHASES[2:])]
    assert memo["duplicates"] == {"pg7300": "pg730"}


def _stray_file(raw, store):
    (store / "pg730" / "notes.txt").write_text("kept by hand\n")


def _edit_page(raw, store):
    page = raw / "uc1.b0001" / "00000002.txt"
    page.write_text(page.read_text(encoding="utf-8") + "\nOne more line.\n",
                    encoding="utf-8")


def _other_value(key):
    """Another valid value of ``key`` than the smoke config's."""
    if key == "page_separator":
        return " "
    if key == "lexicon_dir":  # no lexicon file: each falls back to the bundled
        return str(BOOKS)
    value = getattr(Config(embed_min_count=2, embed_dim=32, embed_epochs=5), key)
    if isinstance(value, bool):
        return str(not value)
    if isinstance(value, float) and value <= 1:
        return str(value + 0.1)
    return str(value + 1)


# name -> (change before the re-run, whether the run trace stays current).
# A change is a MEMO_CASES change to pg730, a change of the sources or the
# store, or one config key set through the environment.
RUN_TRACE_CASES = {
    **{f"memo case {case}": (change, case in ("unchanged", "jobs"))
       for case, (change, _, _) in MEMO_CASES.items()},
    "source added": (lambda raw, store: shutil.copy(BOOKS / "pg1004.txt", raw),
                     False),
    "source removed": (lambda raw, store: (raw / "pg1002.txt").unlink(), False),
    "page edited": (_edit_page, False),
    "stray file": (_stray_file, False),
    "all.memo damaged": (lambda raw, store: _truncate(
        store / "_corpus" / "all.memo"), False),
    **{f"key {key}": ({f"BINDERY_{key.upper()}": _other_value(key)}, False)
       for key in store_module.CORPUS_KEYS},
}


def _run_outcome(config, raw, store, flags, caplog):
    """Exit status, progress lines and INFO-or-above log lines of ``all``
    over ``store``, with the store's path written ``<store>``."""
    caplog.clear()
    status = run("--config", str(config), "-v", *flags, "all", "--in",
                 str(raw), "--out", str(store))
    log_lines = [(r.name, r.levelname, r.message) for r in caplog.records
                 if r.levelno >= logging.INFO]
    text = json.dumps([status, progress_lines(store), log_lines])
    return json.loads(text.replace(str(store), "<store>")), _replayed(caplog)


@pytest.mark.parametrize("case", list(RUN_TRACE_CASES))
def test_run_trace_runs_match_runs_without_it(run_store, tmp_path, caplog,
                                              monkeypatch, case):
    """After each change, ``all`` leaves the store, progress lines, log
    lines and exit status of an ``all`` that has no run memo, which the
    per-phase traces decide; only an unchanged run replays its results."""
    config, recorded_raw, recorded = run_store
    raw, store, without = tmp_path / "raw", tmp_path / "store", tmp_path / "without"
    shutil.copytree(recorded_raw, raw)
    shutil.copytree(recorded, store)
    change, current = RUN_TRACE_CASES[case]
    if callable(change):
        change(raw, store)
        flags = []
    else:
        flags = _make_memo_change(change, store, "pg730", monkeypatch)
    shutil.copytree(store, without)
    (without / "_corpus" / "all.memo").unlink()
    caplog.set_level(logging.DEBUG)
    outcome, replayed = _run_outcome(config, raw, store, flags, caplog)
    assert replayed == current
    assert _run_outcome(config, raw, without, flags, caplog) == (outcome, False)
    assert (_without_run_memo(_store_bytes(store))
            == _without_run_memo(_store_bytes(without)))
    if outcome[0] == 0:
        assert _store_bytes(store) == _store_bytes(without)
        _assert_run_trace_is_fresh(config, raw, store, *flags)


def test_source_added_while_all_runs_is_left_to_the_next_all(
        run_store, tmp_path, monkeypatch, caplog):
    """The run trace covers the sources ingest found, not those found when
    the run ends."""
    config, recorded_raw, recorded = run_store
    raw, store = tmp_path / "raw", tmp_path / "store"
    shutil.copytree(recorded_raw, raw)
    shutil.copytree(recorded, store)
    (store / "_corpus" / "all.memo").unlink()
    real_run_dedup = pipeline.run_dedup

    def adding_a_source(*args):
        shutil.copy(BOOKS / "pg1004.txt", raw)
        return real_run_dedup(*args)

    monkeypatch.setattr(pipeline, "run_dedup", adding_a_source)
    argv = ["--config", str(config), "-v", "all", "--in", str(raw),
            "--out", str(store)]
    assert run(*argv) == 0
    assert "pg1004" not in store_book_ids(store)
    monkeypatch.setattr(pipeline, "run_dedup", real_run_dedup)
    caplog.set_level(logging.DEBUG)
    assert run(*argv) == 0
    assert not _replayed(caplog)
    assert "pg1004" in store_book_ids(store)
    _assert_run_trace_is_fresh(config, raw, store)


def test_all_with_a_missing_in_dir_is_one_error_line_over_a_recorded_store(
        run_store, tmp_path, caplog):
    _, _, recorded = run_store
    store = tmp_path / "store"
    shutil.copytree(recorded, store)
    caplog.set_level(logging.INFO)
    assert run("all", "--in", str(tmp_path / "missing"), "--out",
               str(store)) == 1
    errors = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert len(errors) == 1 and errors[0].exc_info is None
    assert errors[0].message.startswith("all failed: ")


def _edit_pg1002(raw):
    source = raw / "pg1002.txt"
    source.write_text(source.read_text(encoding="utf-8").replace(
        "\nTHE END\n",
        "\nA paragraph the first ingest never saw.\n\nTHE END\n"),
        encoding="utf-8")


# name -> change made before the re-run: environment settings, an edit of
# the sources, or a new bindery version. Each changes the fixture store.
CHANGED_INPUTS = {
    "analysis key": {"BINDERY_TIMELINE_TOP_K": "1"},
    "min_mentions": {"BINDERY_MIN_MENTIONS": "6"},
    "header_max_len": {"BINDERY_HEADER_MAX_LEN": "3"},
    "pronoun window": {"BINDERY_PRONOUN_SENTENCE_WINDOW": "0"},
    "ingest key": {"BINDERY_FRONT_WINDOW_FRAC": "0.01"},
    "source edit": _edit_pg1002,
    "version": "__version__",
}
ANNOTATE_CASES = ("min_mentions", "header_max_len", "pronoun window")


@pytest.mark.parametrize("case", list(CHANGED_INPUTS))
def test_changed_input_leaves_the_store_of_a_cold_run(
        fixture_store, tmp_path, monkeypatch, changed_writes, case):
    """Without --force, ``all`` after the change leaves the bytes a cold
    ``all`` leaves, and rewrites only what the change reaches."""
    config, store = fixture_store
    raw = tmp_path / "raw"
    shutil.copytree(BOOKS, raw)
    before = _store_bytes(store)
    change = CHANGED_INPUTS[case]
    if callable(change):
        change(raw)
    elif change == "__version__":
        monkeypatch.setattr(bindery, change, bindery.__version__ + "+changed")
    else:
        for name, value in change.items():
            monkeypatch.setenv(name, value)
    changed_writes.clear()
    assert run("--config", str(config), "all", "--in", str(raw),
               "--out", str(store)) == 0
    writes = +changed_writes
    assert run("--config", str(config), "all", "--in", str(raw),
               "--out", str(tmp_path / "cold")) == 0
    assert _store_bytes(store) == _store_bytes(tmp_path / "cold")
    assert _store_bytes(store) != before
    if case == "source edit":
        # Other books' pages change with the corpus they are placed in.
        assert {path.relative_to(store).as_posix() for path in writes
                if path.name in ("book.xml", "lemmas.json")
                and path.parent.name != "_corpus"} == {
            "pg1002/book.xml", "pg1002/lemmas.json"}
    if case in ANNOTATE_CASES:
        assert {path: n for path, n in writes.items()
                if path.name == "book.xml"} == {
            store / book_id / "book.xml": 1
            for book_id in kept_book_ids(store)}
    if case == "analysis key":
        pages = json.loads((store / "pg730" / "book.json").read_bytes())
        assert len(pages["timeline"]["characters"]) == 1


def _ingest_each_source(config, store, tmp_path):
    """What ingest reads for one book, for a text and a page-wise source."""
    pages = tmp_path / "raw" / "uc1.b0001"
    pages.mkdir(parents=True)
    body = (BOOKS / "pg1001.txt").read_text(encoding="utf-8").split("***")[2]
    (pages / "00000001.txt").write_text(body, encoding="utf-8")
    shutil.copy(BOOKS / "pg730.txt", pages.parent)
    sources = pipeline.discover_sources(pages.parent)
    assert len({kind for _, _, kind in sources}) == 2
    for _, path, kind in sources:
        pipeline.ingest_to_book(pipeline._read_source(path, kind, config),
                                config)


def _annotate_one(config, store, tmp_path):
    book = pipeline.to_raw_stage(xml_model.load(store / "pg730" / "book.xml"))
    pipeline.annotate_book(book, config)


def _analyze_one(config, store, tmp_path):
    book = xml_model.load(store / "pg730" / "book.xml")
    pipeline.build_book_payload(book, config)


# The keys a trace covers -> what its phase reads for one book.
PHASE_READS = {"INGEST_KEYS": _ingest_each_source,
               "ANNOTATE_KEYS": _annotate_one,
               "ANALYSIS_KEYS": _analyze_one}


def _keys_read(config_path, phase):
    """The config keys ``phase(config)`` reads."""
    names = set(Config.field_names())
    reads = set()

    class RecordingConfig(Config):
        def __getattribute__(self, name):
            if name in names:
                reads.add(name)
            return super().__getattribute__(name)

    config = RecordingConfig(**asdict(Config.load(config_path)))
    reads.clear()
    phase(config)
    return sorted(reads)


@pytest.mark.parametrize("keys", list(PHASE_READS))
def test_trace_keys_are_the_config_keys_their_phase_reads(fixture_store,
                                                          tmp_path, keys):
    config_path, store = fixture_store
    reads = _keys_read(config_path, lambda config: PHASE_READS[keys](
        config, store, tmp_path))
    assert reads == sorted(getattr(store_module, keys))


def test_dedup_reads_the_keys_its_index_records_name(fixture_store):
    """Each record names the values of every key dedup reads: those its
    fingerprint was made with and those its matches were found under."""
    config_path, store = fixture_store
    reads = _keys_read(config_path, lambda config: pipeline.run_dedup(
        store, config, Traces(force=True)))
    assert reads == sorted(["minhash_hashes", "shingle_size", "seed",
                            "dedup_content_threshold", "dedup_title_author"])
    config = Config.load(config_path)
    for line in _index_bytes(store).splitlines():
        record = json.loads(line)
        assert record["minhash"] == [config.minhash_hashes,
                                     config.shingle_size, config.seed]
        assert record["matched_under"] == [config.dedup_content_threshold,
                                           config.dedup_title_author]


@pytest.fixture(scope="module")
def generated_stores(tmp_path_factory):
    """Three stores of six random analyzed books, through report."""
    root = tmp_path_factory.mktemp("generated")
    config = root / "tiny.conf"
    config.write_text("embed_min_count = 1\nembed_dim = 8\nembed_epochs = 2\n",
                      encoding="utf-8")
    stores = []
    for seed in range(3):
        store = root / f"store{seed}"
        rnd = random.Random(seed)
        for i in range(6):
            book = random_book(rnd)
            book.meta.source_id = f"pg{i}"
            book.phases = list(xml_model.PHASES[:xml_model.PHASES.index(
                "characters") + 1])
            path = store / f"pg{i}" / "book.xml"
            path.parent.mkdir(parents=True)
            path.write_text(xml_model.serialize(book), encoding="utf-8")
        for phase in ("analyze", "corpus-stats", "report"):
            assert run("--config", str(config), phase, "--out", str(store)) == 0
        assert (store / "_corpus" / "vectors.bin").exists()
        stores.append(store)
    return config, stores


def test_rerun_without_embeddings_leaves_a_cold_store(generated_stores,
                                                     tmp_path, monkeypatch):
    """A re-run that trains no embeddings drops the similar-books lists.

    The re-run's store, memos included, must be the one a cold run with
    its settings leaves, not one that keeps what the first run enriched.
    """
    config, _ = generated_stores
    store, cold = tmp_path / "store", tmp_path / "cold"

    def run_all(root):
        return run("--config", str(config), "all", "--in", str(BOOKS),
                   "--out", str(root))

    assert run_all(store) == 0
    assert (store / "_corpus" / "vectors.bin").exists()
    monkeypatch.setenv("BINDERY_EMBED_MIN_COUNT", "1000000")
    assert run_all(store) == 0
    assert run_all(cold) == 0
    assert not (cold / "_corpus" / "vectors.bin").exists()
    assert _store_bytes(store) == _store_bytes(cold)
    for path in store.glob("*/book.json"):
        assert json.loads(path.read_bytes())["similar"] is None


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", list(MEMO_CASES))
def test_memo_runs_match_forced_runs_on_generated_stores(
        generated_stores, tmp_path, caplog, monkeypatch, case, seed):
    config, stores = generated_stores
    store = tmp_path / "store"
    shutil.copytree(stores[seed], store)
    _check_memo_case(config, store, "pg0", case, caplog, monkeypatch)


def test_cli_import_leaves_out_urllib():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, bindery.cli; print('urllib.request' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_noop_all_leaves_out_numpy(fixture_store, raw_dir, smoke_config,
                                   tmp_path):
    """Neither the import nor a no-op all loads numpy; a cold all does."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    script = ("import sys, bindery.cli\n"
              "print('numpy' in sys.modules)\n"
              "status = bindery.cli.main(sys.argv[1:])\n"
              "print(status, 'numpy' in sys.modules)\n")

    def all_in_new_process(config, in_dir, store):
        return subprocess.run(
            [sys.executable, "-c", script, "--config", str(config), "all",
             "--in", str(in_dir), "--out", str(store)],
            env=env, capture_output=True, text=True, check=True).stdout.split()

    config, store = fixture_store
    assert all_in_new_process(config, BOOKS, store) == ["False", "0", "False"]
    cold = all_in_new_process(smoke_config, raw_dir, tmp_path / "cold")
    assert cold == ["False", "0", "True"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads through Linux /proc")
def test_cold_all_runs_blas_on_one_thread(smoke_config, tmp_path):
    """With no BLAS thread variable set, a cold all loads numpy and ends
    with one thread in its process; a variable the user sets is kept."""
    script = ("import os, sys\n"
              "from bindery.cli import BLAS_THREAD_VARIABLES, main\n"
              "status = main(sys.argv[1:])\n"
              "print(status, 'numpy' in sys.modules,\n"
              "      len(os.listdir('/proc/self/task')),\n"
              "      *(os.environ[name] for name in BLAS_THREAD_VARIABLES))\n")
    env = {k: v for k, v in os.environ.items()
           if k not in cli.BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)

    def cold_all(store, **given):
        return subprocess.run(
            [sys.executable, "-c", script, "--config", str(smoke_config),
             "all", "--in", str(BOOKS), "--out", str(store)],
            env={**env, **given}, capture_output=True, text=True,
            check=True).stdout.split()

    assert cold_all(tmp_path / "default") == ["0", "True", "1", "1", "1", "1"]
    given = cold_all(tmp_path / "given", OPENBLAS_NUM_THREADS="2")
    assert given[:2] == ["0", "True"] and given[3:] == ["2", "1", "1"]


# What a run that finds nothing to do may load: the CLI, the pipeline, and
# the store with its formats and traces, and for dedup the dedup code, which
# groups the books by their stored matches; not the ingest code, which only
# a book to ingest needs, nor the renderer. An ``all`` whose run trace is
# current needs neither the pipeline nor the XML model.
NOOP_MODULES = ["bindery", "bindery.cli", "bindery.config", "bindery.errors",
                "bindery.pipeline", "bindery.store", "bindery.xml_model"]
REPLAY_MODULES = ["bindery", "bindery.cli", "bindery.config", "bindery.errors",
                  "bindery.store"]
PHASE_MODULES = ["bindery.analytics_book", "bindery.analytics_corpus",
                 "bindery.characters", "bindery.dedup", "bindery.ingest",
                 "bindery.linguistic", "bindery.report",
                 "bindery.segmentation"]
HEAVY_MODULES = ["bindery.lexicons", "concurrent.futures.process", "numpy"]


def modules_run_in_new_process(*argv):
    """Run the CLI on ``argv`` in a new process.

    Returns its exit status, the bindery modules whose code ran, and which
    of ``HEAVY_MODULES`` were imported. A lazily bound module is in
    ``sys.modules`` before its code runs; its ``__dict__`` is read through
    ``object.__getattribute__`` because ``vars()`` would run it, and it
    holds ``__builtins__`` only once the code has run.
    """
    script = (
        "import json, sys, bindery.cli\n"
        "status = bindery.cli.main(sys.argv[1:])\n"
        "ran = sorted(name for name, module in list(sys.modules.items())\n"
        "             if name.split('.')[0] == 'bindery' and '__builtins__'\n"
        "             in object.__getattribute__(module, '__dict__'))\n"
        f"heavy = [name for name in {HEAVY_MODULES!r} if name in sys.modules]\n"
        "print(json.dumps([status, ran, heavy]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("command", ["all", "ingest", "dedup", "second all"])
def test_noop_run_leaves_phase_modules_unrun(fixture_store, command):
    """The fixture store has no run memo, so a first ``all`` asks each
    phase; the second replays the results the first recorded."""
    config, store = fixture_store
    expected = NOOP_MODULES
    if command in ("all", "dedup"):
        expected = sorted([*NOOP_MODULES, "bindery.dedup"])
    if command == "second all":
        assert rerun_all(config, store) == 0
        command, expected = "all", REPLAY_MODULES
    where = ["--in", BOOKS] if command in ("all", "ingest") else []
    status, ran, heavy = modules_run_in_new_process(
        "--config", config, "--jobs", "2", command, *where, "--out", store)
    assert status == 0
    assert ran == expected
    assert heavy == []


def test_cli_import_registers_every_traced_module():
    """``bench/spans.py`` looks each module it traces up in ``sys.modules``
    right after the bench imports ``bindery.cli`` and ``bindery.report``."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    script = ("import json, sys\n"
              f"sys.path.insert(0, {str(bench)!r})\n"
              "import spans\n"
              "import bindery.cli, bindery.report\n"
              "names = ['bindery.' + name for name in\n"
              "         [*spans.TARGETS, *spans.COUNTED]]\n"
              "print(json.dumps([len(names),\n"
              "                  [n for n in names if n not in sys.modules]]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    count, missing = json.loads(out.stdout)
    assert count > 0 and missing == []


def test_pool_forks_after_the_worker_modules_ran(raw_dir, smoke_config,
                                                 tmp_path):
    """A run that starts a pool runs what the workers run before it forks,
    so no worker compiles and runs it again."""
    script = (
        "import json, sys, concurrent.futures, bindery.cli\n"
        "real = concurrent.futures.ProcessPoolExecutor\n"
        "seen = []\n"
        "class Recording(real):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        seen.append(sorted(\n"
        "            name for name in bindery.pipeline.WORKER_MODULES\n"
        "            if '__builtins__' in object.__getattribute__(\n"
        "                sys.modules['bindery.' + name], '__dict__')))\n"
        "        super().__init__(*args, **kwargs)\n"
        "concurrent.futures.ProcessPoolExecutor = Recording\n"
        "status = bindery.cli.main(sys.argv[1:])\n"
        "print(json.dumps([status, seen]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", script, "--config", str(smoke_config),
         "--jobs", "2", "all", "--in", str(raw_dir), "--out",
         str(tmp_path / "store")],
        env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [0, [sorted(pipeline.WORKER_MODULES)]]


def test_cold_all_runs_phase_modules(raw_dir, smoke_config, tmp_path):
    status, ran, heavy = modules_run_in_new_process(
        "--config", smoke_config, "all", "--in", raw_dir,
        "--out", tmp_path / "cold")
    assert status == 0
    assert set(PHASE_MODULES) <= set(ran)
    assert heavy == ["bindery.lexicons", "numpy"]
