"""Content-addressed on-disk cache for backbone link summaries.

Synthesising the full corpus (~2,000 wavelengths x 2.5 years at 15-minute
cadence) takes minutes; the figure benchmarks and ``examples/`` rerun it
for every invocation.  Since the corpus is fully determined by the
:class:`~repro.telemetry.dataset.BackboneConfig`, the modulation table
and the synthesis code itself, the reduction to
:class:`~repro.telemetry.stats.LinkSummary` records can be cached
content-addressed: the key is a stable hash over all three, so any
change to a knob *or to the generator code* transparently invalidates
old entries — there is no way to read a stale result.

Layout: one JSON document per key under the cache root,
``<root>/summaries-<key>.json`` (the format of
:mod:`repro.telemetry.io`).  The root defaults to ``~/.cache/repro`` and
is overridable via ``REPRO_CACHE_DIR``; ``REPRO_NO_CACHE=1`` (or the
CLI's ``--no-cache``) disables reads and writes entirely.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.fingerprint import fingerprint_modules, import_closure
from repro.optics.modulation import ModulationTable
from repro.telemetry.io import load_summaries, save_summaries
from repro.telemetry.stats import LinkSummary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.dataset import BackboneConfig

#: Environment variable overriding the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Set to 1/true/yes to disable the cache entirely.
NO_CACHE_ENV = "REPRO_NO_CACHE"

_SCHEMA = 1
_PREFIX = "summaries-"


def cache_enabled(override: bool | None = None) -> bool:
    """Resolve the cache on/off switch.

    ``override`` (a CLI/API argument) wins when given; otherwise the
    cache is on unless ``REPRO_NO_CACHE`` is set to a truthy value.
    """
    if override is not None:
        return bool(override)
    return os.environ.get(NO_CACHE_ENV, "").lower() not in ("1", "true", "yes")


def cache_dir() -> Path:
    """The cache root (not created until first write)."""
    env = os.environ.get(CACHE_DIR_ENV, "")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro").expanduser()


def code_fingerprint() -> str:
    """Hash of the source files that determine synthesis output.

    The modules are the static import closure of
    :mod:`repro.telemetry.dataset` (:func:`repro.fingerprint.import_closure`):
    editing any module in the synthesis chain (trace generation, event
    processes, summary statistics, the optical budget, the modulation
    ladder) changes this digest and therefore every cache key.
    """
    return fingerprint_modules(import_closure("repro.telemetry.dataset"))


def _table_signature(table: ModulationTable) -> list[list[float | str]]:
    return [
        [f.capacity_gbps, f.required_snr_db, f.bits_per_symbol, f.name]
        for f in table
    ]


def dataset_key(config: "BackboneConfig", table: ModulationTable) -> str:
    """Stable content hash for one (config, modulation table) corpus."""
    payload = {
        "schema": _SCHEMA,
        "code": code_fingerprint(),
        "config": dataclasses.asdict(config),
        "table": _table_signature(table),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def _entry_path(key: str) -> Path:
    return cache_dir() / f"{_PREFIX}{key}.json"


def load(key: str) -> list[LinkSummary] | None:
    """Return the cached summaries for ``key``, or None on a miss.

    A corrupt or unreadable entry counts as a miss (and is removed so it
    cannot shadow a future write).
    """
    path = _entry_path(key)
    if not path.is_file():
        return None
    try:
        return load_summaries(path)
    except Exception:
        path.unlink(missing_ok=True)
        return None


def store(key: str, summaries: Sequence[LinkSummary]) -> Path:
    """Atomically write one cache entry; returns its path."""
    path = _entry_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    os.close(fd)
    tmp = Path(tmp_name)
    try:
        save_summaries(tmp, summaries)
        tmp.replace(path)  # atomic on POSIX; readers never see partials
    finally:
        tmp.unlink(missing_ok=True)
    return path


def clear() -> int:
    """Delete every cache entry; returns the number removed."""
    root = cache_dir()
    if not root.is_dir():
        return 0
    removed = 0
    for entry in root.glob(f"{_PREFIX}*.json"):
        entry.unlink(missing_ok=True)
        removed += 1
    return removed
