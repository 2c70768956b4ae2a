"""Content-hash keyed incremental cache for ``repro-lint``.

One JSON file (``.repro-lint-cache/files.json``) maps each logical path
to the sha256 of its source (salted with the engine schema, the active
node-rule ids and the Python minor version — any of those changing must
invalidate everything) plus the three things a warm run needs:

* the file's raw node-rule findings (pre-suppression, so suppressed
  counts still come out right when replayed);
* its :class:`~repro.analysis.project.FileSummary`, so the project-level
  flow rules can recombine cross-file facts without touching the AST;
* its suppression tables (file/line/span), applied at run time.

A warm run over an unchanged tree therefore re-parses **zero** files:
node findings replay from the cache and the flow rules recompute from
summaries alone (cheap dict work). Editing one file invalidates exactly
that file — its digest changes, nothing else's does.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List, Optional

#: Bump when the cached payload shape or summary semantics change.
SCHEMA_VERSION = 5

#: Default cache directory, resolved against the working directory.
DEFAULT_CACHE_DIR = ".repro-lint-cache"


def rules_salt(rule_ids) -> str:
    """Digest salt covering everything besides file content."""
    return "|".join(
        [f"schema={SCHEMA_VERSION}", f"py={sys.version_info[0]}.{sys.version_info[1]}"]
        + sorted(rule_ids)
    )


class AnalysisCache:
    """Load-once / save-once cache over one lint invocation."""

    def __init__(self, root: str = DEFAULT_CACHE_DIR) -> None:
        self.root = root
        self.path = os.path.join(root, "files.json")
        self._entries: Dict[str, Dict] = {}
        self._dirty = False
        self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        try:
            with open(self.path, "r") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return
        if data.get("schema") == SCHEMA_VERSION:
            entries = data.get("files")
            if isinstance(entries, dict):
                self._entries = entries

    def save(self) -> None:
        if not self._dirty:
            return
        os.makedirs(self.root, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(
                {"schema": SCHEMA_VERSION, "files": self._entries},
                handle,
                sort_keys=True,
            )
        os.replace(tmp, self.path)
        self._dirty = False

    # ------------------------------------------------------------------
    @staticmethod
    def digest(source: str, salt: str) -> str:
        return hashlib.sha256(
            (salt + "\0" + source).encode("utf-8", "surrogatepass")
        ).hexdigest()

    def lookup(self, logical: str, digest: str) -> Optional[Dict]:
        entry = self._entries.get(logical)
        if entry is not None and entry.get("digest") == digest:
            return entry
        return None

    def store(
        self,
        logical: str,
        digest: str,
        findings: List[Dict],
        summary: Dict,
        suppress: Dict,
    ) -> None:
        self._entries[logical] = {
            "digest": digest,
            "findings": findings,
            "summary": summary,
            "suppress": suppress,
        }
        self._dirty = True
