"""JSONL telemetry and run manifests.

Output conventions:

* paths ending in ``.jsonl`` get one JSON object per line, *appended* —
  the accumulating-log style a fleet of runs writes into one file;
* any other path gets a single pretty-printed JSON document,
  overwritten — the one-shot artifact style.

Both forms carry the same :class:`~repro.observability.manifest.RunManifest`
payload, so ``--metrics-out run.json`` and ``--metrics-out runs.jsonl``
differ only in framing.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Union

from .manifest import RunManifest


class JsonlWriter:
    """Append-mode JSONL sink (one record per line)."""

    def __init__(self, path: str) -> None:
        self._path = path
        self._count = 0

    @property
    def records_written(self) -> int:
        return self._count

    def write(self, record: Dict[str, Any]) -> None:
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
        self._count += 1

    def write_all(self, records: Iterable[Dict[str, Any]]) -> int:
        with open(self._path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
                self._count += 1
        return self._count


def write_manifest(
    manifest: Union[RunManifest, Dict[str, Any]], path: str
) -> Dict[str, Any]:
    """Write a manifest to ``path`` (JSONL append or JSON overwrite).

    Returns the serialized payload for callers that also want it.
    """
    payload = (
        manifest.to_dict() if isinstance(manifest, RunManifest) else manifest
    )
    if path.endswith(".jsonl"):
        JsonlWriter(path).write(payload)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return payload

