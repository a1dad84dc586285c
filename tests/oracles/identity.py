"""Oracle of a campaign point's identity (``injection/store.py``).

:func:`asdict_canonical_task` is ``canonical_task`` as it was written
on ``dataclasses.asdict``, which deep-copies every leaf; the store now
walks the fields through a per-class name cache instead.  The two must
give equal dicts, hence equal JSON, equal task keys and equal store and
wire bytes (:func:`asdict_task_key`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict

from repro.injection.spec import InjectionTask
from repro.injection.store import KEY_VERSION


def asdict_canonical_task(task: InjectionTask) -> Dict[str, object]:
    """The task's canonical dict through ``dataclasses.asdict``."""
    d = dataclasses.asdict(task)
    d["tags"] = sorted([list(kv) for kv in task.tags])
    return d


def asdict_task_key(task: InjectionTask) -> str:
    """The task key hashed from :func:`asdict_canonical_task`."""
    blob = json.dumps({"v": KEY_VERSION, "task": asdict_canonical_task(task)},
                      sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]
