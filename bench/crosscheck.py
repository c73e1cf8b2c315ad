#!/usr/bin/env python3
"""One large novel, timed through the CLI and traced, for a baseline check.

Run from the root of a checkout:

    python3 bench/crosscheck.py --words 160000

This is a note-taking aid, not a gate: it builds one novel of about
``--words`` words plus its reprint and the fixture books, makes one
cold/noop/force iteration through the CLI and one traced in-process
iteration, and prints the CLI wall times beside the traced per-phase
seconds so they can be compared with a baseline measured by hand.
"""

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

PHASES = ("pipeline.run_ingest", "pipeline.run_dedup", "pipeline.run_annotate",
          "pipeline.run_analyze", "pipeline.run_corpus_stats",
          "pipeline.run_report", "segmentation.segment",
          "linguistic.annotate_paragraph", "characters.identify_characters",
          "linguistic.attribute_quotes", "xml_model.serialize",
          "xml_model.parse", "pipeline.build_book_payload",
          "dedup.fingerprint", "analytics_book.train_embeddings", "cli.main")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--words", type=int, default=160000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    bindery = run.load_bindery()
    novel = run.WORKLOADS["novel"]
    workload = run.Workload({**novel.corpus, "words_per_book": args.words},
                            novel.commands, novel.annotated)
    work = run.WORK / f"crosscheck-{args.words}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run.quiet_logging(work)
    tally = run.Tally()
    cli = run.Subprocesses(work / "cli.log", time.monotonic() + 3600)
    _, timings, _, truth = run.iteration(workload, args.seed, work, cli,
                                         bindery, tally)
    tracer = spans.Tracer()
    with tracer:
        run.iteration(workload, args.seed, work, run.InProcess(bindery, tracer),
                      bindery, tally, jobs=1)
    metrics = tracer.metrics()
    print(json.dumps({
        "words": truth.words, "problems": tally.problems[:20],
        "cli_s": {r: round(timings[r].wall, 2) for r in run.RUNS},
        "traced_s": {r: {p: round(metrics[f"{r}.{p}.s"], 2) for p in PHASES}
                     for r in run.RUNS},
    }, indent=1))
    return 1 if tally.problems else 0


if __name__ == "__main__":
    sys.exit(main())
