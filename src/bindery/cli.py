"""Command-line entry point.

Subcommands mirror the pipeline phases: fetch, ingest, dedup, annotate,
analyze, corpus-stats, report, and all. Phase ordering is enforced through
the stamp list inside each book's XML; outputs whose recorded traces are
current are skipped unless --force. An ``all`` whose run trace is current
replays the results it recorded and runs no phase code. Human logs go to
stderr; one JSON line per book per phase goes to the progress log under
the store.
"""

import argparse
import logging
import os
import sys
from pathlib import Path

from . import pipeline
from .config import ENV_PREFIX, Config
from .errors import BinderyError
from .store import Traces, append_progress, kept_book_ids, replay_run

log = logging.getLogger("bindery")

# bindery's parallelism is its --jobs worker processes, and its BLAS calls
# are small mat-vecs, so each process runs BLAS on one thread: extra BLAS
# threads only spin. A value set in the environment wins.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")
# The phase subcommands: ``pipeline.run_<name>`` runs each. ingest and all
# read --in and make the store; dedup takes it whole, the rest its kept books.
COMMANDS = ("ingest", "dedup", "annotate", "analyze", "corpus-stats", "report",
            "all")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bindery",
        description="Clean, segment, and annotate novels; compute book and "
                    "corpus analytics; emit static reports.")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", help="override the run seed")
    parser.add_argument("--jobs", help="parallel workers per phase")
    parser.add_argument("--force", action="store_true",
                        help="redo phases even when traces are current")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    fetch = sub.add_parser("fetch", help="download Gutenberg texts by id")
    fetch.add_argument("--ids", required=True,
                       help="comma-separated Gutenberg ids, e.g. 730,1342")
    fetch.add_argument("--out", required=True, help="destination directory")
    fetch.add_argument("--mirror", dest="mirror_base", help="mirror base URL")

    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} phase")
        if name in ("ingest", "all"):
            cmd.add_argument("--in", dest="in_dir", required=True,
                             help="directory of raw book sources")
        cmd.add_argument("--out", required=True, help="store directory")
    return parser


def run_phase(args, store, config, traces):
    """The results of ``pipeline.run_<command>`` over ``store``."""
    # Looked up now, not at import: a tracer may have swapped the function.
    runner = getattr(pipeline, "run_" + args.command.replace("-", "_"))
    if hasattr(args, "in_dir"):
        return runner(args.in_dir, store, config, traces)
    if args.command == "dedup":
        return runner(store, config, traces)
    return runner(store, config, traces, kept_book_ids(store))


def main(argv=None):
    # numpy is imported lazily, after this, and reads them when it loads.
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    # --seed, --jobs and --mirror enter as the variables of their keys.
    flags = {ENV_PREFIX + key.upper(): flag for key, flag in vars(args).items()
             if key in ("seed", "jobs", "mirror_base") and flag is not None}
    try:
        config = Config.load(args.config, {**os.environ, **flags})
    except (KeyError, ValueError, OSError) as exc:
        log.error("bad config: %s", exc)
        return 2

    if args.command == "fetch":
        from .ingest import fetch_gutenberg  # loaded only by the runs that use it
        failures = 0
        for raw_id in args.ids.split(","):
            try:
                path = fetch_gutenberg(int(raw_id.strip()), config.mirror_base,
                                       args.out)
                log.info("fetched %s", path)
            except (BinderyError, ValueError) as exc:
                log.error("fetch %s failed: %s", raw_id.strip(), exc)
                failures += 1
        return 1 if failures else 0

    store = args.out
    if not hasattr(args, "in_dir") and not Path(store).is_dir():
        log.error("%s failed: no store at %s", args.command, store)
        return 1
    traces = Traces(force=args.force)
    try:
        results = (replay_run(args.in_dir, store, config, traces)
                   if args.command == "all" else None)
        if results is None:
            results = run_phase(args, store, config, traces)
    except (BinderyError, OSError) as exc:
        log.error("%s failed: %s", args.command, exc)
        return 1
    append_progress(store, results)
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
