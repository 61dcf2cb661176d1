"""Content-addressed artifact store for sweep runs.

One sweep run owns one directory::

    <run_dir>/
      sweep.json            the sweep definition (re-expandable)
      manifest.jsonl        one line per completed point, append-only
      artifacts/<key>.json  one artifact per completed point
      obs/<key>/...         per-point trace artifacts (traced runs only:
                            trace.json, span_tree.json, events.jsonl,
                            metrics.prom — see :mod:`repro.obs.export`)

Artifacts are keyed by :func:`repro.experiments.registry.spec_key` —
resolved parameters plus the experiment's code fingerprint — so a run
directory can be resumed after a kill: points whose artifact already
exists (and still matches the current code) are skipped, and points
invalidated by a code edit are transparently re-run under a new key.

The manifest is the run's journal: ``status`` is ``fresh`` (executed
this session), ``reused`` (artifact already present) or ``failed``.
Writes are atomic (tmp file + rename) and append-only, so a SIGKILL
mid-sweep never leaves a half-written artifact that a resume could
trust.

Run directories live under a sweep root — ``REPRO_SWEEP_DIR`` or
``~/.cache/repro/sweeps`` — named ``<sweep-name>-<hash8>`` where the
hash covers the sweep definition, so re-running the same spec file
lands in (and therefore resumes) the same directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.experiments.spec import Sweep
from repro.obs.metrics import timestamp_unix

#: Environment variable overriding the sweep-run root directory.
SWEEP_DIR_ENV = "REPRO_SWEEP_DIR"

_SCHEMA = 1
_ARTIFACT_DIR = "artifacts"
_OBS_DIR = "obs"


def sweep_root() -> Path:
    """The directory run directories are created under."""
    env = os.environ.get(SWEEP_DIR_ENV, "")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro/sweeps").expanduser()


def sweep_id(sweep: Sweep) -> str:
    """Short stable hash of the sweep *definition* (not its code)."""
    return hashlib.sha256(sweep.canonical_json().encode("utf-8")).hexdigest()[:8]


def run_dir_for(sweep: Sweep, root: Path | None = None) -> Path:
    """The canonical run directory for a sweep definition."""
    safe = sweep.name.replace("/", "_")
    return (root if root is not None else sweep_root()) / f"{safe}-{sweep_id(sweep)}"


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    os.close(fd)
    tmp = Path(tmp_name)
    try:
        tmp.write_text(text)
        tmp.replace(path)  # atomic on POSIX; readers never see partials
    finally:
        tmp.unlink(missing_ok=True)


@dataclass(frozen=True)
class ManifestEntry:
    """One journal line of a run."""

    name: str
    key: str
    status: str  # "fresh" | "reused" | "failed"
    elapsed_s: float = 0.0
    error: str | None = None
    #: run-dir-relative path of the point's trace artifacts (traced only)
    obs: str | None = None

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "key": self.key,
            "status": self.status,
            "elapsed_s": self.elapsed_s,
            "ts": timestamp_unix(),
        }
        if self.error:
            payload["error"] = self.error
        if self.obs:
            payload["obs"] = self.obs
        return payload


class RunStore:
    """Filesystem API of one run directory."""

    def __init__(self, run_dir: str | Path):
        self.run_dir = Path(run_dir)
        self.sweep_path = self.run_dir / "sweep.json"
        self.manifest_path = self.run_dir / "manifest.jsonl"
        self.artifacts_dir = self.run_dir / _ARTIFACT_DIR
        self.obs_dir = self.run_dir / _OBS_DIR

    # -- lifecycle ---------------------------------------------------------

    def initialise(self, sweep: Sweep) -> None:
        """Create the directory and pin the sweep definition.

        Re-initialising with a *different* definition is refused — a run
        directory records exactly one sweep; resuming must not silently
        change what the manifest means.
        """
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.artifacts_dir.mkdir(exist_ok=True)
        payload = {"schema": _SCHEMA, "sweep": sweep.to_payload()}
        if self.sweep_path.is_file():
            existing = json.loads(self.sweep_path.read_text())
            if existing.get("sweep") != payload["sweep"]:
                raise ValueError(
                    f"{self.run_dir} already holds a different sweep "
                    f"({existing.get('sweep', {}).get('name')!r}); "
                    f"use a fresh run directory"
                )
            return
        _atomic_write(
            self.sweep_path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

    def load_sweep(self) -> Sweep:
        payload = json.loads(self.sweep_path.read_text())
        return Sweep.from_payload(payload["sweep"])

    def exists(self) -> bool:
        return self.sweep_path.is_file()

    # -- artifacts ---------------------------------------------------------

    def artifact_path(self, key: str) -> Path:
        return self.artifacts_dir / f"{key}.json"

    def has_artifact(self, key: str) -> bool:
        return self.load_artifact(key) is not None

    def load_artifact(self, key: str) -> dict[str, Any] | None:
        """The stored artifact for ``key``, or None on a miss.

        A corrupt entry (killed mid-write outside the atomic path,
        manual tampering) counts as a miss and is removed so it cannot
        shadow a future write.
        """
        path = self.artifact_path(key)
        if not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text())
            if payload["schema"] != _SCHEMA or payload["key"] != key:
                raise ValueError("artifact does not match its key")
            return payload
        except Exception:
            path.unlink(missing_ok=True)
            return None

    def save_artifact(self, key: str, payload: dict[str, Any]) -> Path:
        path = self.artifact_path(key)
        payload = {**payload, "schema": _SCHEMA, "key": key}
        _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    def artifacts(self) -> list[dict[str, Any]]:
        """Every readable artifact, sorted by spec name."""
        out = []
        for path in sorted(self.artifacts_dir.glob("*.json")):
            artifact = self.load_artifact(path.stem)
            if artifact is not None:
                out.append(artifact)
        out.sort(key=lambda a: a.get("spec", {}).get("name", ""))
        return out

    # -- trace artifacts ----------------------------------------------------

    def obs_dir_for(self, key: str) -> Path:
        """Where one traced point's observability artifacts live."""
        return self.obs_dir / key

    def save_obs(
        self,
        key: str,
        trace_payload: Mapping[str, Any] | None = None,
        metrics_payload: Mapping[str, Any] | None = None,
    ) -> Path | None:
        """Write one traced point's artifact set under ``obs/<key>/``.

        ``trace_payload`` / ``metrics_payload`` are the plain-JSON
        forms shipped back from the worker
        (:meth:`repro.obs.trace.Tracer.to_payload` /
        :meth:`repro.obs.metrics.MetricsRegistry.to_payload`).  Returns the
        directory, or ``None`` when there was nothing to write.
        """
        from repro.obs.export import export_run
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        tracer = (
            Tracer.from_payload(trace_payload)
            if trace_payload is not None
            else None
        )
        registry = (
            MetricsRegistry.from_payload(metrics_payload)
            if metrics_payload is not None
            else None
        )
        if tracer is None and registry is None:
            return None
        out = self.obs_dir_for(key)
        export_run(out, tracer, registry)
        return out

    # -- manifest ----------------------------------------------------------

    def append_manifest(self, entry: ManifestEntry) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry.to_payload(), sort_keys=True)
        with self.manifest_path.open("a") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def manifest(self) -> list[dict[str, Any]]:
        """Every parseable journal line, in append order.

        A torn final line (the process died mid-append) is skipped — the
        artifact, not the manifest, is the source of truth for resume.
        """
        if not self.manifest_path.is_file():
            return []
        entries = []
        for line in self.manifest_path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        return entries


def list_runs(root: Path | None = None) -> list[dict[str, Any]]:
    """Summaries of every run directory under the sweep root."""
    root = root if root is not None else sweep_root()
    if not root.is_dir():
        return []
    out = []
    for child in sorted(root.iterdir()):
        store = RunStore(child)
        if not store.exists():
            continue
        try:
            sweep = store.load_sweep()
        except Exception:
            continue
        manifest = store.manifest()
        out.append(
            {
                "run": child.name,
                "path": str(child),
                "sweep": sweep.name,
                "experiment": sweep.experiment,
                "n_points": sweep.n_points,
                "n_artifacts": len(store.artifacts()),
                "n_manifest": len(manifest),
            }
        )
    return out


def resolve_run_dir(ref: str, root: Path | None = None) -> Path:
    """Turn a CLI run reference (path or run-dir name) into a directory."""
    path = Path(ref).expanduser()
    if RunStore(path).exists():
        return path
    root = root if root is not None else sweep_root()
    candidate = root / ref
    if RunStore(candidate).exists():
        return candidate
    raise FileNotFoundError(
        f"no sweep run at {ref!r} (looked for sweep.json there and under {root})"
    )
