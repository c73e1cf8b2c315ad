"""Command-line entry point.

Subcommands mirror the pipeline phases: fetch, ingest, dedup, annotate,
analyze, corpus-stats, report, and all. Phase ordering is enforced through
the stamp list inside each book's XML; outputs whose recorded traces are
current are skipped unless --force. Human logs go to stderr; one JSON line
per book per phase goes to the progress log under the store.
"""

import argparse
import json
import logging
import sys
from pathlib import Path

from . import pipeline
from .config import Config
from .errors import BinderyError
from .ingest import fetch_gutenberg

log = logging.getLogger("bindery")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bindery",
        description="Clean, segment, and annotate novels; compute book and "
                    "corpus analytics; emit static reports.")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--jobs", type=int, help="parallel workers per phase")
    parser.add_argument("--force", action="store_true",
                        help="redo phases even when traces are current")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    fetch = sub.add_parser("fetch", help="download Gutenberg texts by id")
    fetch.add_argument("--ids", required=True,
                       help="comma-separated Gutenberg ids, e.g. 730,1342")
    fetch.add_argument("--out", required=True, help="destination directory")
    fetch.add_argument("--mirror", help="mirror base URL (overrides config)")

    for name, needs_in in (("ingest", True), ("dedup", False),
                           ("annotate", False), ("analyze", False),
                           ("corpus-stats", False), ("report", False),
                           ("all", True)):
        cmd = sub.add_parser(name, help=f"run the {name} phase")
        if needs_in:
            cmd.add_argument("--in", dest="in_dir", required=True,
                             help="directory of raw book sources")
        cmd.add_argument("--out", required=True, help="store directory")
    return parser


def _configure(args):
    config = Config.load(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.jobs is not None:
        config.jobs = args.jobs
    return config


def _write_progress(store, results):
    path = Path(store) / pipeline.CORPUS_DIR / pipeline.PROGRESS_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        for result in results:
            fh.write(json.dumps({
                "book": result.book_id,
                "phase": result.phase,
                "status": "ok" if result.ok else "error",
                "error": result.error,
            }, sort_keys=True) + "\n")


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = _configure(args)
    except (KeyError, ValueError, OSError) as exc:
        log.error("bad config: %s", exc)
        return 2

    if args.command == "fetch":
        mirror = args.mirror or config.mirror_base
        failures = 0
        for raw_id in args.ids.split(","):
            try:
                path = fetch_gutenberg(int(raw_id.strip()), mirror, args.out)
                log.info("fetched %s", path)
            except (BinderyError, ValueError) as exc:
                log.error("fetch %s failed: %s", raw_id.strip(), exc)
                failures += 1
        return 1 if failures else 0

    store = args.out
    runners = {
        "ingest": lambda: pipeline.run_ingest(args.in_dir, store, config,
                                              force=args.force),
        "dedup": lambda: pipeline.run_dedup(store, config,
                                            force=args.force),
        "annotate": lambda: pipeline.run_annotate(store, config,
                                                  force=args.force),
        "analyze": lambda: pipeline.run_analyze(store, config,
                                                force=args.force),
        "corpus-stats": lambda: pipeline.run_corpus_stats(store, config,
                                                          force=args.force),
        "report": lambda: pipeline.run_report(store, config, force=args.force),
        "all": lambda: pipeline.run_all(args.in_dir, store, config,
                                        force=args.force),
    }
    try:
        results = runners[args.command]()
    except BinderyError as exc:
        log.error("%s failed: %s", args.command, exc)
        return 1
    _write_progress(store, results)
    failed = [r for r in results if not r.ok]
    failed_books = {r.book_id for r in failed}
    ok_books = {r.book_id for r in results} - failed_books
    log.info("%s: %d book(s) ok, %d failed", args.command, len(ok_books),
             len(failed_books))
    for result in failed:
        log.error("%s: %s: %s", result.book_id, result.phase, result.error)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
