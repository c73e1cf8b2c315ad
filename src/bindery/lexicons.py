"""Loaders for the bundled lexicon data files.

Each lexicon ships as a plain-text file under ``bindery/data`` (one entry
per line, ``#`` comments, tab-separated columns where a value is attached).
An alternative directory can be supplied to override any of them; files
missing from the override directory fall back to the bundled copy.
"""

from functools import lru_cache
from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"
# The data file each loader below reads, by the loader's name.
FILES = {"abbreviations": "abbreviations.txt",
         "speech_verbs": "speech_verbs.txt",
         "lemma_exceptions": "lemma_exceptions.txt",
         "honorifics": "honorifics.tsv",
         "first_name_genders": "first_names.tsv",
         "section_keywords": "section_keywords.txt",
         "dale_familiar_words": "dale_familiar_words.txt",
         "spache_familiar_words": "spache_familiar_words.txt",
         "stopwords": "stopwords.txt"}


def _read_lines(loader, lexicon_dir):
    """The entries of ``loader``'s file, from ``lexicon_dir`` if it has one."""
    path = Path(lexicon_dir or DATA_DIR) / FILES[loader]
    if not path.exists():
        path = DATA_DIR / FILES[loader]
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append(line)
    return out


@lru_cache(maxsize=None)
def abbreviations(lexicon_dir=""):
    """Tokens kept whole by the tokenizer, e.g. 'Mr.'."""
    return frozenset(_read_lines("abbreviations", lexicon_dir))


@lru_cache(maxsize=None)
def speech_verbs(lexicon_dir=""):
    return frozenset(_read_lines("speech_verbs", lexicon_dir))


@lru_cache(maxsize=None)
def lemma_exceptions(lexicon_dir=""):
    table = {}
    for line in _read_lines("lemma_exceptions", lexicon_dir):
        form, _, lemma = line.partition("\t")
        table[form.strip().lower()] = lemma.strip().lower()
    return table


@lru_cache(maxsize=None)
def honorifics(lexicon_dir=""):
    """Map of lowercase honorific (period stripped) to gender."""
    table = {}
    for line in _read_lines("honorifics", lexicon_dir):
        form, _, gender = line.partition("\t")
        table[form.strip().lower()] = gender.strip()
    return table


@lru_cache(maxsize=None)
def first_name_genders(lexicon_dir=""):
    table = {}
    for line in _read_lines("first_name_genders", lexicon_dir):
        name, _, gender = line.partition("\t")
        table[name.strip().lower()] = gender.strip()
    return table


@lru_cache(maxsize=None)
def section_keywords(lexicon_dir=""):
    """Map of lowercase header keyword to section kind."""
    table = {}
    for line in _read_lines("section_keywords", lexicon_dir):
        keyword, _, kind = line.partition("\t")
        table[keyword.strip().lower()] = kind.strip()
    return table


@lru_cache(maxsize=None)
def dale_familiar_words(lexicon_dir=""):
    return frozenset(_read_lines("dale_familiar_words", lexicon_dir))


@lru_cache(maxsize=None)
def spache_familiar_words(lexicon_dir=""):
    return frozenset(_read_lines("spache_familiar_words", lexicon_dir))


@lru_cache(maxsize=None)
def stopwords(lexicon_dir=""):
    return frozenset(_read_lines("stopwords", lexicon_dir))
