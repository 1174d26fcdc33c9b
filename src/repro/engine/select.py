"""Ambient engine selection for the cluster simulation entry points.

``run_sweeps`` (and its shims ``run_cluster`` and
``run_cluster_checkpointed``) accept an ``engine="object"|"batched"``
keyword; both engines run in-process.  When the caller passes ``None``
(the default), the ambient default configured here is used: the batched
core.  Tests use :func:`default_engine` to re-run an entire pipeline on
the per-object oracle without threading a knob through every call site
(the golden-report and evaluation differential suites do exactly that).

This module is dependency-free on purpose: it sits below both
``repro.sim`` and ``repro.engine.batched`` in the import graph, so
either side can import it without creating a cycle.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import ConfigError

#: Engines the cluster entry points understand.
ENGINES = ("object", "batched")

_DEFAULT_ENGINE = "batched"


def resolve_engine(engine: Optional[str]) -> str:
    """Validate ``engine`` and resolve ``None`` to the ambient default."""
    if engine is None:
        return _DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown engine {engine!r}: expected one of {ENGINES}"
        )
    return engine


@contextmanager
def default_engine(name: str) -> Iterator[None]:
    """Temporarily set the ambient engine used when ``engine=None``."""
    global _DEFAULT_ENGINE
    if name not in ENGINES:
        raise ConfigError(
            f"unknown engine {name!r}: expected one of {ENGINES}"
        )
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = name
    try:
        yield
    finally:
        _DEFAULT_ENGINE = previous
