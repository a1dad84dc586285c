"""Persistent campaign checkpoint store (append-only JSONL).

Long sweeps die — machines reboot, jobs hit walltime, laptops sleep.
The store turns a campaign into a resumable computation: every finished
chunk and every completed point is appended as one JSON line keyed by a
stable hash of the task spec, so ``Campaign.run(resume=store)`` skips
completed points, continues partially-sampled ones at the next chunk
boundary, and — because chunk streams are seeded deterministically —
produces bit-identical counts to an uninterrupted run with the same
settings (adaptive stopping decisions happen at fixed shot watermarks
independent of chunking or worker count, so resume adaptive sweeps
with the same policy).

The format is deliberately dumb: one self-describing JSON object per
line, tolerant of a torn final line after a crash, diffable, and
mergeable with ``cat``.

One writer per run: records are appended only by the process that owns
a point's :class:`~repro.parallel.plan.TaskPlan` (the scheduler's
parent process, or the service head), each chunk as the plan's
frontier advances over it and flushed at once — so the file holds, per
point, the canonical prefix that was banked, in stream order, and a
hard kill loses only chunks that had not reached the frontier.
Workers and remote runners never open the store.  Combining the
stores of several hosts is :meth:`CampaignStore.merge`.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import warnings
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from .results import SIM_BLOCK, ChunkResult, ChunkTally, InjectionResult
from .spec import InjectionTask, task_from_dict

#: Bump when the canonical task serialization changes shape.
#: v2: InjectionTask grew the ``backend`` field (frame sampling PR) —
#: the backend selects the random stream, so it must shape the key.
#: v3: FaultSpec grew ``strike_round``/``intensity`` and InjectionTask
#: ``recovery`` (detection PR) — the burst scenario and decode policy
#: both change a point's counts, so they must shape the key.
#: v4: InjectionTask grew the ``sampler`` spec (rare-event importance
#: sampling PR) — the sampling measure selects the random stream and
#: the estimator, so it must shape the key.
#: v5: the ``decoder`` field became a ``DecoderSpec`` (batched-decoding
#: PR) — hook edges and the weighting mode change a point's counted
#: errors, so the full decoder configuration must shape the key (and
#: the serialized form changed from a string to a dict).
KEY_VERSION = 5


#: Leaf types ``dataclasses.asdict`` hands to ``copy.deepcopy``, which
#: returns each of them unchanged.
_ATOMIC = frozenset({str, int, float, bool, type(None)})
#: Field names per dataclass, looked up once per class.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _plain(obj: object) -> object:
    """``dataclasses.asdict``'s value walk without its per-leaf
    ``deepcopy`` and per-node ``fields()`` call.  A task holds only
    dataclasses, tuples, lists and atomic leaves: dataclasses become
    dicts of their fields, tuples and lists are rebuilt, leaves of an
    exact atomic type are used as they are, and anything else is
    deep-copied, as ``asdict`` copies a leaf."""
    cls = type(obj)
    if cls in _ATOMIC:
        return obj
    if cls is tuple or cls is list:
        return cls([v if type(v) in _ATOMIC else _plain(v) for v in obj])
    names = _FIELD_NAMES.get(cls)
    if names is None and dataclasses.is_dataclass(cls):
        names = _FIELD_NAMES[cls] = tuple(
            f.name for f in dataclasses.fields(cls))
    if names is None:
        return copy.deepcopy(obj)
    out = {}
    for name in names:
        value = getattr(obj, name)
        out[name] = value if type(value) in _ATOMIC else _plain(value)
    return out


def canonical_task(task: InjectionTask) -> Dict[str, object]:
    """A plain, deterministic dict capturing the full task identity:
    ``dataclasses.asdict(task)`` with the tags sorted into lists."""
    d = _plain(task)
    d["tags"] = sorted([list(kv) for kv in task.tags])
    return d


#: Entries :func:`_identity` keeps.
_IDENTITIES = 8192

#: Each key's memoised canonical dict and the task it was made from
#: (as many as :func:`_identity` keeps): see :func:`task_from_wire`.
_WIRED: Dict[str, Tuple[Dict[str, object], InjectionTask]] = {}


@lru_cache(maxsize=_IDENTITIES)
def _identity(task: InjectionTask) -> Tuple[str, Dict[str, object]]:
    """A task's ``(key, canonical dict)``, worked out once per task: a
    run asks for a point's key at the resume check, at plan
    construction, for every lease it ships and for its done record,
    and the walk over the nested spec is the cost of each.  Tasks are
    frozen and hashable; the dict is shared, so it is only ever read
    (serialised, or rebuilt into a task by ``task_from_dict``)."""
    canonical = canonical_task(task)
    blob = json.dumps({"v": KEY_VERSION, "task": canonical},
                      sort_keys=True, separators=(",", ":"), default=str)
    key = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]
    _WIRED[key] = canonical, task
    if len(_WIRED) > _IDENTITIES:
        del _WIRED[next(iter(_WIRED))]
    return key, canonical


def task_from_wire(key: str, canonical: Dict[str, object]
                   ) -> InjectionTask:
    """The task a wire lease names by ``key`` and canonical dict.  A
    lease executed in the process that made it (the service head's
    in-process slot) carries the very dict :func:`_identity` memoised
    for its task, and gets that task back; any other dict (one that
    crossed a pipe or HTTP) is rebuilt by :func:`task_from_dict`, which
    hashes to the same key."""
    known = _WIRED.get(key) if isinstance(key, str) else None
    if known is not None and known[0] is canonical:
        return known[1]
    return task_from_dict(canonical)


def task_key(task: InjectionTask) -> str:
    """Stable content hash identifying one campaign point.

    Every spec field participates — including seed and shot budget —
    so a key never aliases two points that could sample differently.
    """
    return _identity(task)[0]


class CampaignStore:
    """JSONL-backed chunk/result checkpoint for one or more campaigns.

    Record kinds:

    ``{"kind": "chunk", "key": k, "start": s, "shots": n, ...counts}``
        one finished streaming chunk of point ``k``;
    ``{"kind": "done", "key": k, ...aggregate, "task": {...}}``
        point ``k`` completed (fixed budget exhausted or adaptive
        target met).  The embedded task dict is informational — results
        are reconstructed against the in-memory task, whose key must
        match.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = os.fspath(path)
        self._chunks: Dict[str, List[ChunkResult]] = {}
        self._done: Dict[str, Dict[str, object]] = {}
        self._fh = None
        if os.path.exists(self.path):
            self._load()

    @classmethod
    def coerce(cls, obj: Union["CampaignStore", str, os.PathLike, None]
               ) -> Optional["CampaignStore"]:
        if obj is None or isinstance(obj, CampaignStore):
            return obj
        return cls(obj)

    # -- reading -------------------------------------------------------
    @staticmethod
    def _iter_records(path: Union[str, os.PathLike]):
        """Yield the parseable JSON records of one store file.

        Torn final lines (crash mid-write) and undecodable bytes (a
        shard truncated inside a multi-byte sequence, or a wrong file
        passed as a shard) terminate the scan with a warning instead of
        raising — everything parsed up to that point is kept.
        """
        with open(path, "r", encoding="utf-8") as fh:
            try:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn final line from a crash mid-write
                    if isinstance(rec, dict):
                        yield rec
            except UnicodeDecodeError:
                warnings.warn(
                    f"store file {os.fspath(path)!r} contains undecodable "
                    f"bytes; keeping the records read so far",
                    RuntimeWarning, stacklevel=2)
                obs.event("store.undecodable_bytes")

    def _load(self) -> None:
        for rec in self._iter_records(self.path):
            kind = rec.get("kind")
            try:
                if kind == "chunk":
                    self._chunks.setdefault(rec["key"], []).append(
                        ChunkResult.from_row(rec))
                elif kind == "done" and "key" in rec:
                    self._done[rec["key"]] = rec
            except (KeyError, TypeError, ValueError):
                warnings.warn(
                    f"skipping malformed {kind!r} record in {self.path!r}",
                    RuntimeWarning, stacklevel=2)
                obs.event("store.malformed_record")

    def done_record(self, key: str) -> Optional[Dict[str, object]]:
        return self._done.get(key)

    def chunks_for(self, key: str) -> List[ChunkResult]:
        return sorted(self._chunks.get(key, ()), key=lambda c: c.start)

    def partial(self, key: str) -> Tuple:
        """Aggregate the resumable chunk prefix recorded for ``key``.

        Returns ``(shots, errors, raw_errors, corrections, elapsed_s,
        num_chunks, weights)`` — ``weights`` is the accumulated
        ``(wsum, wsq, esum, esq)`` moments when any banked chunk was
        importance-weighted, else ``None``.  Chunks after a gap or
        overlap (e.g. from a mangled merge) are discarded rather than
        double-counted, and the prefix is trimmed back to the last
        ``SIM_BLOCK`` boundary: a point that *completed* on a partial
        final block (shots not a block multiple) is reused via its done
        record, but execution can only be extended from an aligned
        position — the truncated block's counts are dropped and
        resampled at full size when a later run raises the ceiling.
        """
        tally = ChunkTally()
        aligned = tally.prior()
        for chunk in self.chunks_for(key):
            if chunk.start != tally.shots:
                break
            tally.add(chunk)
            if tally.shots % SIM_BLOCK == 0:
                aligned = tally.prior()
        return aligned

    def result_for(self, task: InjectionTask, key: Optional[str] = None
                   ) -> Optional[InjectionResult]:
        """Reconstruct a completed point's result, or ``None``.  Pass
        the task's ``key`` when already at hand to skip re-hashing it."""
        rec = self._done.get(task_key(task) if key is None else key)
        if rec is None:
            return None
        weights = None
        if "wsum" in rec:
            weights = (float(rec["wsum"]), float(rec["wsq"]),
                       float(rec["esum"]), float(rec["esq"]))
        return InjectionResult(
            task=task,
            shots=int(rec["shots"]),
            errors=int(rec["errors"]),
            raw_errors=int(rec["raw_errors"]),
            corrections_applied=int(rec["corrections"]),
            swap_count=int(rec.get("swap_count", 0)),
            elapsed_s=float(rec.get("elapsed_s", 0.0)),
            chunks=int(rec.get("chunks", 1)),
            weights=weights,
        )

    def __len__(self) -> int:
        return len(self._done)

    # -- lookup --------------------------------------------------------
    def keys(self) -> List[str]:
        """Every task key with any record (done or chunk), sorted."""
        return sorted(set(self._done) | set(self._chunks))

    def find_keys(self, prefix: str = "") -> List[str]:
        """Keys matching a (possibly empty) hex prefix, sorted."""
        return [k for k in self.keys() if k.startswith(prefix)]

    def key_stats(self, key: str) -> Dict[str, object]:
        """Cached state of one key: status, counts, rate and CI.

        ``status`` is ``"done"`` (a completed point), ``"partial"``
        (banked chunks only — the resumable prefix's counts are
        reported) or ``"absent"``.  This is the content-addressed
        cache-hit path shared by ``repro store lookup`` and the
        campaign service: a popular point is a dictionary read here,
        never a simulation.
        """
        from .results import wilson_interval

        rec = self._done.get(key)
        chunks = self._chunks.get(key, ())
        row: Dict[str, object] = {
            "key": key,
            "chunk_records": len(chunks),
        }
        if rec is not None:
            row["status"] = "done"
            row["shots"] = int(rec["shots"])
            row["errors"] = int(rec["errors"])
            row["raw_errors"] = int(rec["raw_errors"])
            row["corrections"] = int(rec["corrections"])
            if rec.get("label") is not None:
                row["label"] = rec["label"]
            if rec.get("seed") is not None:
                row["seed"] = rec["seed"]
        else:
            shots, errors, raw, corr, _, _, _ = self.partial(key)
            row["status"] = "partial" if chunks else "absent"
            row["shots"] = shots
            row["errors"] = errors
            row["raw_errors"] = raw
            row["corrections"] = corr
        shots, errors = int(row["shots"]), int(row["errors"])
        if shots:
            lo, hi = wilson_interval(errors, shots)
            row["ler"] = errors / shots
            row["ler_lo"] = lo
            row["ler_hi"] = hi
        return row

    def lookup(self, task: InjectionTask) -> Dict[str, object]:
        """Cached state of one task spec (:func:`task_key` resolution).

        Like :meth:`key_stats` but weighted-sampler aware: a completed
        importance-sampled point reports its self-normalized weighted
        LER and weighted-Wilson CI (the estimates :meth:`result_for`
        would reconstruct), not the raw failure fraction.
        """
        key = task_key(task)
        row = self.key_stats(key)
        row["label"] = task.label
        row["target_shots"] = task.shots
        result = self.result_for(task, key)
        if result is not None and result.weighted:
            lo, hi = result.confidence_interval
            row["ler"] = result.logical_error_rate
            row["ler_lo"] = lo
            row["ler_hi"] = hi
            row["ess"] = result.weight_stats.ess
        return row

    def stats(self) -> Dict[str, object]:
        """Whole-store summary (``repro store stats``)."""
        chunk_records = sum(len(c) for c in self._chunks.values())
        return {
            "path": self.path,
            "keys": len(self.keys()),
            "done": len(self._done),
            "partial": len(set(self._chunks) - set(self._done)),
            "chunk_records": chunk_records,
            "done_shots": sum(int(r["shots"])
                              for r in self._done.values()),
            "done_errors": sum(int(r["errors"])
                               for r in self._done.values()),
        }

    # -- writing -------------------------------------------------------
    def _append(self, rec: Dict[str, object]) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(rec, sort_keys=True, default=str) + "\n")
        self._fh.flush()

    def append_chunk(self, key: str, chunk: ChunkResult) -> None:
        rec = {"kind": "chunk", "key": key}
        rec.update(chunk.to_row())
        self._append(rec)
        self._chunks.setdefault(key, []).append(chunk)

    def mark_done(self, key: str, result: InjectionResult) -> None:
        rec = {
            "kind": "done", "key": key,
            "shots": result.shots, "errors": result.errors,
            "raw_errors": result.raw_errors,
            "corrections": result.corrections_applied,
            "swap_count": result.swap_count,
            "elapsed_s": result.elapsed_s,
            "chunks": result.chunks,
            "seed": result.task.seed,
            "label": result.task.label,
            "task": _identity(result.task)[1],
        }
        if result.weights is not None:
            rec["wsum"], rec["wsq"], rec["esum"], rec["esq"] = result.weights
        self._append(rec)
        self._done[key] = rec

    # -- merging -------------------------------------------------------
    @classmethod
    def merge(cls, out_path: Union[str, os.PathLike],
              in_paths: Sequence[Union[str, os.PathLike]]
              ) -> Dict[str, int]:
        """Merge sharded stores into one resumable store at ``out_path``.

        The sharded-campaign workflow: each host runs its slice of a
        sweep against its own JSONL store, then the shards are merged
        into a single store any host can resume from.  An existing
        ``out_path`` is treated as an implicit first input, so merging
        is incremental; the file is replaced atomically.

        Dedup rules (canonical blocks make true duplicates bit-identical):

        * ``done`` records deduplicate by task key, keeping the record
          with the most shots (an adaptive early stop never shadows a
          richer fixed-budget result) — first seen wins ties;
        * ``chunk`` records deduplicate by ``(key, start)``, first seen
          wins.

        A duplicate of either kind with *different* counts at the same
        shot coverage (two shards that somehow diverged, e.g. different
        code versions) is counted in ``conflicting_chunks`` /
        ``conflicting_done`` so the operator can investigate instead of
        silently trusting one shard.  Duplicates covering different
        spans — the same point resumed under different ``chunk_shots``,
        or an adaptive stop next to a fixed-budget completion — are
        consistent data, deduplicated without a conflict flag.

        Unusable shards degrade gracefully instead of failing the whole
        merge: a missing, empty or unreadable shard is skipped with a
        warning (counted in ``skipped_inputs``), a malformed record —
        wrong types, missing ``key``/``start`` — is dropped with a
        warning (counted in ``malformed_records``), and a shard
        truncated mid-byte keeps its parseable prefix.  Losing one
        host's partial shard must not take down the merge the other
        hosts' results depend on.

        Returns a stats dict: ``inputs``, ``skipped_inputs``,
        ``malformed_records``, ``done``, ``chunks``, ``duplicate_done``,
        ``duplicate_chunks``, ``conflicting_done``,
        ``conflicting_chunks``.
        """
        with obs.span("merge"):
            return cls._merge(out_path, in_paths)

    @classmethod
    def _merge(cls, out_path: Union[str, os.PathLike],
               in_paths: Sequence[Union[str, os.PathLike]]
               ) -> Dict[str, int]:
        out_path = os.fspath(out_path)
        paths = [os.fspath(p) for p in in_paths]
        resolved = {os.path.realpath(p) for p in paths}
        if os.path.exists(out_path) \
                and os.path.realpath(out_path) not in resolved:
            paths.insert(0, out_path)

        done: Dict[str, Dict[str, object]] = {}
        chunks: Dict[Tuple[str, int], Dict[str, object]] = {}
        order: List[Tuple[str, object]] = []  # ("chunk", ck) / ("done", key)
        stats = {"inputs": len(paths), "skipped_inputs": 0,
                 "malformed_records": 0, "duplicate_done": 0,
                 "duplicate_chunks": 0, "conflicting_done": 0,
                 "conflicting_chunks": 0}
        count_fields = ("errors", "raw_errors", "corrections")
        for path in paths:
            try:
                records = list(cls._iter_records(path))
            except OSError as exc:
                warnings.warn(f"skipping unreadable store shard {path!r}: "
                              f"{exc}", RuntimeWarning, stacklevel=2)
                obs.event("store.skipped_shard")
                stats["skipped_inputs"] += 1
                continue
            if not records:
                warnings.warn(f"store shard {path!r} holds no usable "
                              f"records; skipping", RuntimeWarning,
                              stacklevel=2)
                obs.event("store.skipped_shard")
                stats["skipped_inputs"] += 1
                continue
            for rec in records:
                kind = rec.get("kind")
                if kind == "done":
                    key = rec.get("key")
                    if not isinstance(key, str):
                        stats["malformed_records"] += 1
                        warnings.warn(
                            f"dropping done record without a key in "
                            f"{path!r}", RuntimeWarning, stacklevel=2)
                        obs.event("store.malformed_record")
                        continue
                    prev = done.get(key)
                    if prev is None:
                        done[key] = rec
                        order.append(("done", key))
                    else:
                        stats["duplicate_done"] += 1
                        if prev.get("shots") == rec.get("shots") and any(
                                prev.get(f) != rec.get(f)
                                for f in count_fields):
                            stats["conflicting_done"] += 1
                        if int(rec.get("shots", 0)) > int(
                                prev.get("shots", 0)):
                            done[key] = rec
                elif kind == "chunk":
                    try:
                        ck = (rec["key"], int(rec["start"]))
                    except (KeyError, TypeError, ValueError):
                        stats["malformed_records"] += 1
                        warnings.warn(
                            f"dropping malformed chunk record in {path!r}",
                            RuntimeWarning, stacklevel=2)
                        obs.event("store.malformed_record")
                        continue
                    prev = chunks.get(ck)
                    if prev is None:
                        chunks[ck] = rec
                        order.append(("chunk", ck))
                    else:
                        stats["duplicate_chunks"] += 1
                        if prev.get("shots") == rec.get("shots") and any(
                                prev.get(f) != rec.get(f)
                                for f in count_fields):
                            stats["conflicting_chunks"] += 1
        stats["done"] = len(done)
        stats["chunks"] = len(chunks)

        tmp_path = out_path + ".merge-tmp"
        with open(tmp_path, "w", encoding="utf-8") as fh:
            for kind, ref in order:
                rec = chunks[ref] if kind == "chunk" else done[ref]
                fh.write(json.dumps(rec, sort_keys=True, default=str) + "\n")
        os.replace(tmp_path, out_path)
        return stats

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
