"""Self-tests of the benchmark's own code.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import bindery.cli  # noqa: E402,F401
import bindery.report  # noqa: E402,F401
import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

bindery = sys.modules["bindery"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = dict(books=4, words_per_book=500, dup_share=0.5, pagewise_share=0.25)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tree(directory):
    return {p.relative_to(directory).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(directory).rglob("*")) if p.is_file()}


def test_generator_is_deterministic_for_a_seed(tmp_path):
    first = corpus.generate(tmp_path / "a", 7, root=ROOT, **SMALL)
    second = corpus.generate(tmp_path / "b", 7, root=ROOT, **SMALL)
    other = corpus.generate(tmp_path / "c", 8, root=ROOT, **SMALL)
    assert tree(tmp_path / "a") == tree(tmp_path / "b")
    assert first == second
    assert tree(tmp_path / "a") != tree(tmp_path / "c")


def test_generator_plants_what_it_records(tmp_path):
    in_dir = tmp_path / "in"
    truth = corpus.generate(in_dir, 3, root=ROOT, with_fixtures=True, **SMALL)
    sources = {f"ht{p.name}" if p.is_dir() else p.stem for p in in_dir.iterdir()}
    assert sources == set(truth.sections)
    assert all((in_dir / b[2:] / "manifest.txt").is_file()
               for b in truth.sections if b.startswith("ht"))
    assert len(truth.duplicates) == 2
    assert set(truth.duplicates.values()) <= set(truth.kept)
    assert truth.sections["pg730"] == 8


def test_metric_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in metrics)
    assert all(NAME.fullmatch(w["name"]) for w in SPEC["workloads"])
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A small store after its cold run, with the inputs' ground truth."""
    work = tmp_path_factory.mktemp("bench")
    truth = corpus.generate(work / "in", 5, root=ROOT, **SMALL)
    env = run.cli_env()
    env["PYTHONPATH"] = str(ROOT / "src")
    subprocess.run([sys.executable, "-m", "bindery", "all", "--in",
                    str(work / "in"), "--out", str(work / "store")],
                   env=env, check=True, capture_output=True)
    return work / "store", truth


@pytest.fixture
def store(built, tmp_path):
    """A fresh copy of the built store that a test may corrupt."""
    source, truth = built
    copy = tmp_path / "store"
    shutil.copytree(source, copy)
    return copy, truth


def test_outputs_pass_on_a_good_store(store):
    path, truth = store
    outcome = checks.outputs(path, truth, True, bindery)
    assert outcome.problems == []
    assert outcome.recalled == len(truth.duplicates) == 2


def _json_edit(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("corrupt", [
    lambda p, b: (p / b / "book.json").unlink(),
    lambda p, b: (p / b / "book.xml").unlink(),
    lambda p, b: (p / b / "index.html").unlink(),
    lambda p, b: (p / b / "book.json").write_text("{"),
    lambda p, b: _json_edit(p / b / "book.json", lambda d: d.pop("counts")),
    lambda p, b: _json_edit(p / b / "book.json",
                            lambda d: d["counts"].update(sections=99)),
    lambda p, b: _json_edit(p / b / "book.json",
                            lambda d: d.update(phases=d["phases"][:-1])),
], ids=["no-json", "no-xml", "no-html", "bad-json", "schema", "sections",
        "phases"])
def test_outputs_fail_on_a_corrupted_book(store, corrupt):
    path, truth = store
    book = truth.kept[0]
    corrupt(path, book)
    outcome = checks.outputs(path, truth, True, bindery)
    assert book in outcome.failed


def _rewrite_index(path, edit):
    index = path / "_corpus" / "index.jsonl"
    records = [json.loads(line) for line in index.read_text().splitlines()]
    for record in records:
        edit(record)
    index.write_text("".join(json.dumps(r) + "\n" for r in records))


def test_outputs_fail_on_a_false_duplicate(store):
    path, truth = store
    victim = truth.kept[0]
    _rewrite_index(path, lambda r: r.update(representative_of=truth.kept[1])
                   if r["id"] == victim else None)
    outcome = checks.outputs(path, truth, True, bindery)
    assert victim in outcome.failed


def test_missed_duplicate_lowers_recall(store):
    path, truth = store
    missed = sorted(truth.duplicates)[0]
    _rewrite_index(path, lambda r: r.update(representative_of=None)
                   if r["id"] == missed else None)
    outcome = checks.outputs(path, truth, True, bindery)
    assert outcome.recalled == len(truth.duplicates) - 1


def test_outputs_fail_on_a_wrong_kept_set(store):
    path, truth = store
    _json_edit(path / "_corpus" / "corpus.json",
               lambda d: d.update(books=d["books"][1:]))
    assert checks.outputs(path, truth, True, bindery).problems


def test_outputs_fail_on_an_unexpected_book(store):
    path, truth = store
    shutil.copytree(path / truth.kept[0], path / "pg99999")
    assert checks.outputs(path, truth, True, bindery).problems


def test_noop_check_allows_only_the_progress_log(store):
    path, truth = store
    before = checks.snapshot(path)
    with open(path / checks.PROGRESS, "a") as fh:
        fh.write("{}\n")
    assert checks.unchanged(before, checks.snapshot(path)).problems == []
    target = path / truth.kept[0] / "index.html"
    target.write_bytes(target.read_bytes())  # same bytes, new mtime
    outcome = checks.unchanged(before, checks.snapshot(path))
    assert truth.kept[0] in outcome.failed


def test_force_check_fails_on_changed_bytes(store):
    path, truth = store
    cold = checks.snapshot(path)
    assert checks.identical(cold, checks.snapshot(path)).problems == []
    target = path / "_corpus" / "corpus.json"
    target.write_text(target.read_text() + " ")
    assert checks.identical(cold, checks.snapshot(path)).problems


def test_nonzero_exit_fails_every_book(store):
    _, truth = store
    tally = run.Tally()
    tally.add("cold", truth, run.Timing(wall=1.0, status=1), checks.Outcome())
    assert tally.failed == tally.attempted == len(truth.sections)
    assert tally.problems


def test_digest_ignores_only_the_progress_log(store):
    path, truth = store
    before = checks.digest(checks.snapshot(path))
    with open(path / checks.PROGRESS, "a") as fh:
        fh.write("{}\n")
    assert checks.digest(checks.snapshot(path)) == before
    (path / truth.kept[0] / "index.html").write_text("x")
    assert checks.digest(checks.snapshot(path)) != before


def test_traced_run_emits_every_per_layer_metric(built, tmp_path):
    source, truth = built
    tracer = spans.Tracer()
    main = run.InProcess(bindery, tracer)
    in_dir = source.parent / "in"
    with tracer:
        for name in run.RUNS:
            assert main(name, [(["--force"] if name == "force" else [])
                               + ["all", "--in", str(in_dir), "--out",
                                  str(tmp_path / "store")]]).status == 0
    assert bindery.cli.main is not main  # the wrappers are gone
    assert not hasattr(bindery.xml_model.parse, "__wrapped__")
    metrics = tracer.metrics()
    for metric in SPEC["per_layer"]:
        if not metric["name"].endswith("trace_overhead"):
            assert metric["name"] in metrics
    for name in run.RUNS:
        assert abs(tracer.unaccounted(name)) < 1e-6
        assert metrics[f"{name}.pipeline.self_s"] > 0
    assert metrics["cold.segmentation.sections"] == sum(
        truth.sections[b] for b in truth.kept)
    assert metrics["noop.report.write_if_changed.writes"] == 0


def test_self_time_subtracts_covered_child_time():
    tracer = spans.Tracer()
    tracer.spans = [spans.Span("cli.main", 0.0, 10.0, None, "cold"),
                    spans.Span("pipeline.run_dedup", 1.0, 5.0, 0, "cold"),
                    spans.Span("dedup.fingerprint", 2.0, 3.0, 1, "cold"),
                    spans.Span("xml_model.parse", 6.0, 7.0, 0, "cold")]
    assert tracer.self_times() == [5.0, 3.0, 1.0, 1.0]
    assert tracer.metrics()["cold.pipeline.self_s"] == 8.0
    assert tracer.unaccounted("cold") == 0.0


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "novel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
