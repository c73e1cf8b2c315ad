"""Flat key-value run configuration.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
Every key can be overridden by an environment variable named
``BINDERY_<KEY>`` (upper-cased key). Unknown keys in a config file, and
``BINDERY_*`` variables that name no key, are an error so typos do not
silently fall back to defaults. A loaded config is frozen: a variant is
made with ``dataclasses.replace``.
"""

import os
from dataclasses import dataclass, fields
from pathlib import Path


ENV_PREFIX = "BINDERY_"
# The range of each bounded key, (lowest, highest or None). Counts below 1
# divide by zero, index past the end, make every book a duplicate or leave
# the vectors zero-wide or untrained; xml_model.validate needs 3 mentions of
# each character; a threshold is a share; a negative list length or vocabulary
# size slices from the end; a negative window drops every edge; numpy's
# generator takes no negative seed nor the trainer a negative sample count;
# and a negative or NaN learning rate trains away from the data or into NaN.
RANGES = {"shingle_size": (1, None), "minhash_hashes": (1, None),
          "top2_histogram_bins": (1, None), "gender_time_bins": (1, None),
          "rank_share_ranks": (1, None), "embed_dim": (1, None),
          "embed_epochs": (1, None), "min_mentions": (3, None),
          "dedup_content_threshold": (0, 1), "embed_learning_rate": (0, None),
          "interaction_window": (0, None), "vocab_list_len": (0, None),
          "similar_top_k": (0, None), "timeline_top_k": (0, None),
          "seed": (0, None), "embed_negatives": (0, None),
          "embed_vocab_max": (0, None), "vocab_top_common": (0, None)}


@dataclass(frozen=True)
class Config:
    # Reproducibility
    seed: int = 13

    # Dedup (content fingerprints)
    shingle_size: int = 5
    minhash_hashes: int = 128
    dedup_content_threshold: float = 0.8
    dedup_title_author: bool = True

    # Ingest heuristics
    front_window_frac: float = 0.05
    front_short_line_len: int = 25
    front_short_line_ratio: float = 0.30
    page_separator: str = "\n"
    mirror_base: str = "https://www.gutenberg.org/cache/epub"

    # Segmentation
    header_max_len: int = 60
    numbering_gap_tolerance: int = 1

    # Characters
    min_mentions: int = 3
    pronoun_sentence_window: int = 2
    interaction_window: int = 30
    interaction_min_co: int = 5
    timeline_top_k: int = 10

    # Book analytics
    vocab_top_common: int = 10000
    vocab_list_len: int = 20
    embed_dim: int = 100
    embed_epochs: int = 10
    embed_min_count: int = 100
    embed_vocab_max: int = 200000
    embed_negatives: int = 5
    embed_learning_rate: float = 0.025
    similar_top_k: int = 10

    # Corpus analytics
    rank_share_ranks: int = 9
    top2_outlier_threshold: float = 10.0
    top2_histogram_bins: int = 20
    gender_time_bins: int = 10

    # Execution
    jobs: int = 1
    lexicon_dir: str = ""  # empty = bundled data files

    @classmethod
    def field_names(cls):
        return [f.name for f in fields(cls)]

    @classmethod
    def load(cls, path=None, env=None):
        """Build a config from defaults, an optional file, then env overrides."""
        defaults = {f.name: f.default for f in fields(cls)}
        raw_values = _read_config_file(path) if path is not None else {}
        env = os.environ if env is None else env
        variables = {ENV_PREFIX + name.upper(): name for name in defaults}
        for env_key, raw in env.items():
            if env_key.startswith(ENV_PREFIX):
                if env_key not in variables:
                    raise KeyError(f"unknown config variable: {env_key!r}")
                raw_values[variables[env_key]] = raw
        values = {}
        for key, raw in raw_values.items():
            if key not in defaults:
                raise KeyError(f"unknown config key: {key!r}")
            try:
                values[key] = _coerce(defaults[key], raw)
            except ValueError as exc:
                raise ValueError(f"{key} = {raw}: {exc}") from exc
        config = cls(**values)
        for key, (lowest, highest) in RANGES.items():
            value = getattr(config, key)
            if not value >= lowest:  # so NaN is out of range too
                raise ValueError(f"{key} = {value}: below {lowest}")
            if highest is not None and value > highest:
                raise ValueError(f"{key} = {value}: above {highest}")
        if config.lexicon_dir:
            _check_lexicon_dir(config.lexicon_dir)
        return config


def _check_lexicon_dir(lexicon_dir):
    """Fail on a directory that is not one, or on a lexicon file in it that
    the loaders could not decode."""
    if not os.path.isdir(lexicon_dir):
        raise ValueError(f"lexicon_dir = {lexicon_dir}: not a directory")
    from . import lexicons  # loaded only by the runs that set the key
    for name in lexicons.FILES.values():
        path = Path(lexicon_dir) / name
        if path.exists():
            try:
                path.read_bytes().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"lexicon_dir = {lexicon_dir}: {name} is not "
                                 f"UTF-8 ({exc.reason} at byte {exc.start})")


def _read_config_file(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            values[key.strip()] = raw.strip()
    return values


def _coerce(default, raw):
    if isinstance(default, bool):
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected boolean, got {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw
