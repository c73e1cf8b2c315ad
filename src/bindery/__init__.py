"""Literary corpus processing: clean, segment, and annotate novels into a
standard XML format, identify characters, and compute book- and corpus-level
analytics with static JSON/HTML/SVG reports."""

import importlib.util
import sys

__version__ = "0.1.0"

from .config import Config  # noqa: E402

__all__ = ["AnnotatedBook", "Config", "parse", "serialize", "__version__"]


def _lazy(name):
    """Register ``bindery.<name>``, its code run on first attribute access.

    This is the "Implementing lazy imports" recipe of the importlib docs.
    The module is in ``sys.modules`` and set on the package at once, like
    an imported one, but a run that never uses it never compiles or runs
    it. A lazy load is not thread-safe; bindery uses these modules from
    its main thread only (pool workers are processes).
    """
    qualified = f"{__name__}.{name}"
    spec = importlib.util.find_spec(qualified)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[qualified] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__name__], name, module)


# The annotation model, the orchestration, the phase modules and the
# renderer: a run whose run trace is current reaches none of them.
for _name in ("xml_model", "pipeline", "ingest", "dedup", "segmentation",
              "linguistic", "characters", "analytics_book",
              "analytics_corpus", "report"):
    _lazy(_name)
del _name


def __getattr__(name):
    """``AnnotatedBook``, ``parse`` and ``serialize``, from ``xml_model``
    when first asked for, so importing the package does not run it."""
    if name in ("AnnotatedBook", "parse", "serialize"):
        from . import xml_model
        return getattr(xml_model, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
