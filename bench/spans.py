"""In-process span tracing of bindery's public functions.

The tracer wraps functions from the outside: it swaps each target for a
wrapper in every loaded ``bindery`` module that refers to it, so no
program code changes. A span records name, start, end, parent span and
run id; spans stay in memory until ``write`` saves them. Counters are
recorded at the same boundaries, so ratios are measured where the work
happens.

Pool workers started by ``--jobs N`` would keep their spans in their own
memory, so the traced run always uses one job.
"""

import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

ORCHESTRATION = ("cli.main", "pipeline.run_")


def _quotes_attributed(args, kwargs, result):
    quotes = args[0] if args else kwargs["quotes"]
    return {"linguistic.attribute_quotes.quotes": len(quotes),
            "linguistic.attribute_quotes.attributed":
                sum(q.speaker_id is not None for q in quotes)}


def _tokens(args, kwargs, result):
    start = args[1] if len(args) > 1 else kwargs["start_index"]
    return {"linguistic.tokens": result - start}


def _embed_lemmas(args, kwargs, result):
    streams = args[0] if args else kwargs["streams"]
    return {"analytics_book.embed_lemmas": sum(map(len, streams.values()))}


# module -> function -> counter over (args, kwargs, result), or None
TARGETS = {
    "cli": {"main": None},
    "pipeline": {
        **{f"run_{phase}": None for phase in
           ("ingest", "dedup", "annotate", "analyze", "corpus_stats", "report")},
        "ingest_to_book": None, "body_text_of": None, "to_raw_stage": None,
        "build_book_payload": None, "enrich_book_payload": None,
        "build_corpus_stats": None},
    "ingest": {"read_gutenberg": None, "read_hathi_pagewise": None},
    "segmentation": {
        "segment": lambda a, k, r: {"segmentation.sections": len(r)}},
    "linguistic": {
        "annotate_paragraph": _tokens,
        "extract_quotes": lambda a, k, r: {"linguistic.quotes": len(r)},
        "attribute_quotes": _quotes_attributed},
    "characters": {
        "identify_characters": lambda a, k, r: {"characters.records": len(r[0])},
        "attach_pronoun_counts": None, "build_occurrence_timeline": None,
        "build_interaction_network": None},
    "xml_model": {
        "parse": lambda a, k, r: {"xml_model.parse.mb": len(a[0]) / 1e6},
        "serialize": lambda a, k, r: {"xml_model.serialize.mb": len(r) / 1e6}},
    "dedup": {
        "fingerprint": None,
        "dedup_corpus": lambda a, k, r: {
            "dedup.duplicates": sum(e.is_duplicate for e in r.entries)}},
    "analytics_book": {
        "train_embeddings": _embed_lemmas, "readability_suite": None,
        "pos_distribution": None, "most_similar": None, "lemma_counts": None,
        "lemma_stream": None},
    "report": {
        "emit_book_report": None, "emit_corpus_report": None,
        "write_if_changed": lambda a, k, r: {"report.write_if_changed.writes": int(r)}},
}
# Called once per pair of books: counted, not spanned, to keep the cost low.
COUNTED = {"dedup": ["estimate_similarity"]}
COUNTERS = ["segmentation.sections", "linguistic.tokens", "linguistic.quotes",
            "linguistic.attribute_quotes.quotes",
            "linguistic.attribute_quotes.attributed", "characters.records",
            "xml_model.parse.mb", "xml_model.serialize.mb", "dedup.duplicates",
            "dedup.estimate_similarity.calls", "analytics_book.embed_lemmas",
            "report.write_if_changed.writes"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    """Spans and counters of one traced process, grouped by run id."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)  # (run, counter) -> value
        self.run = None
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.run)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[self.run, key] += value
            return result
        traced.__wrapped__ = fn
        return traced

    def count_calls(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[self.run, f"{name}.calls"] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def install(self):
        """Swap every target for its wrapper in all loaded bindery modules."""
        modules = [m for n, m in sys.modules.items()
                   if n == "bindery" or n.startswith("bindery.")]
        replace = {}
        for module_name, functions in TARGETS.items():
            module = sys.modules[f"bindery.{module_name}"]
            for fn_name, counter in functions.items():
                original = getattr(module, fn_name)
                replace[id(original)] = self.wrap(
                    f"{module_name}.{fn_name}", original, counter)
        for module_name, functions in COUNTED.items():
            module = sys.modules[f"bindery.{module_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                replace[id(original)] = self.count_calls(
                    f"{module_name}.{fn_name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replace and callable(value):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replace[id(value)])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(span)}) + "\n")

    def self_times(self):
        """Span index -> duration minus the time its child spans cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        result = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for start, end in sorted(children[index]):
                start = max(start, cursor)
                if end > start:
                    covered += end - start
                    cursor = end
            result.append(span.end - span.start - covered)
        return result

    def metrics(self):
        """Flat per-layer metrics named ``<run>.<module>.<function>.<stat>``.

        ``s`` is inclusive seconds, ``calls`` a count, and
        ``<run>.pipeline.self_s`` the self time of the CLI entry and the
        phase runners: orchestration, stamp checks and waiting. Every
        traced function and counter gets a zero entry for each run, so a
        layer that did not run still has its metrics.
        """
        runs = sorted({s.run for s in self.spans})
        out = {}
        for run in runs:
            for module_name, functions in TARGETS.items():
                for fn_name in functions:
                    out[f"{run}.{module_name}.{fn_name}.s"] = 0.0
                    out[f"{run}.{module_name}.{fn_name}.calls"] = 0
            out[f"{run}.pipeline.self_s"] = 0.0
            for key in COUNTERS:
                out[f"{run}.{key}"] = 0
        for span, own in zip(self.spans, self.self_times()):
            out[f"{span.run}.{span.name}.s"] += span.end - span.start
            out[f"{span.run}.{span.name}.calls"] += 1
            if span.name.startswith(ORCHESTRATION):
                out[f"{span.run}.pipeline.self_s"] += own
        for (run, key), value in self.counts.items():
            out[f"{run}.{key}"] = value
        for run in runs:
            quotes = out.get(f"{run}.linguistic.attribute_quotes.quotes", 0)
            attributed = out.get(f"{run}.linguistic.attribute_quotes.attributed", 0)
            out[f"{run}.linguistic.quotes_attributed"] = (
                attributed / quotes if quotes else 0.0)
        return out

    def unaccounted(self, run):
        """``cli.main`` seconds of ``run`` not covered by any self time.

        Every span of a run nests under ``cli.main`` on one thread, so the
        self times of all spans partition the entry point's time; a
        non-zero result means the span tree is broken.
        """
        total = 0.0
        for span, own in zip(self.spans, self.self_times()):
            if span.run != run:
                continue
            if span.name == "cli.main":
                total += span.end - span.start
            total -= own
        return total
