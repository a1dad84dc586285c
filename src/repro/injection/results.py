"""Campaign result containers and aggregation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..rare.stats import WeightStats, wilson_from_rate
from .spec import InjectionTask

#: Canonical simulation block: the batch size every shot is actually
#: simulated at.  Part of the reproducibility contract — changing it
#: changes every sampled stream (keep it fixed; tune *chunk* size for
#: scheduling instead).  Lives here, next to :class:`ChunkResult`, so
#: both the engine and the store can see it without an import cycle.
SIM_BLOCK = 512


def wilson_interval(errors: int, shots: int, z: float = 1.96
                    ) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because campaign points
    frequently sit at very low (or very high) error counts.
    """
    if shots <= 0:
        return (0.0, 1.0)
    # Shared float core (repro.rare.stats): the weighted ESS-based
    # interval evaluates the identical expression, so weighted and
    # unweighted decisions agree bit-for-bit at unit weights.
    return wilson_from_rate(errors / shots, shots, z)


#: One block's (or an accumulated prefix's) importance-weight moments.
WeightMoments = Tuple[float, float, float, float]


def fold_moments(acc: WeightMoments, blocks: Sequence[WeightMoments]
                 ) -> WeightMoments:
    """Left-fold per-block weight moments onto an accumulator.

    Weighted counts are floats, and float addition is not associative —
    so the engine defines ONE canonical reduction: a strict left fold
    over the canonical simulation blocks in stream order.  Chunks store
    their moments per block (not pre-summed) precisely so that every
    aggregator — serial streaming, store resume, the parallel
    scheduler's contiguous frontier — performs this same fold and lands
    on bit-identical weighted counts whatever the chunk grouping or
    worker count.
    """
    wsum, wsq, esum, esq = acc
    for b in blocks:
        wsum += b[0]
        wsq += b[1]
        esum += b[2]
        esq += b[3]
    return (wsum, wsq, esum, esq)


#: The empty prior: nothing banked yet.
ZERO_PRIOR = (0, 0, 0, 0, 0.0, 0, None)

#: Zero weight-moment accumulator ``(wsum, wsq, esum, esq)``.
ZERO_MOMENTS: WeightMoments = (0.0, 0.0, 0.0, 0.0)


def normalize_prior(prior) -> Tuple[int, int, int, int, float, int,
                                    Optional[WeightMoments]]:
    """Coerce a banked-counts prior into its canonical 7-tuple.

    Priors are ``(shots, errors, raw_errors, corrections, elapsed_s,
    chunks)`` with an optional seventh element holding the accumulated
    importance-weight moments ``(wsum, wsq, esum, esq)`` (or ``None``
    for plain-MC history).  The 6-tuple form predates weighted
    sampling and stays accepted everywhere a prior is.
    """
    if len(prior) == 6:
        return (*tuple(prior), None)
    if len(prior) == 7:
        return tuple(prior)
    raise ValueError(f"malformed prior {prior!r}")


@dataclass(frozen=True)
class ChunkResult:
    """Counts from one contiguous chunk of a task's shot budget.

    Chunks are the engine's streaming/checkpoint unit: they aggregate a
    whole number of canonical simulation blocks, so a chunk's counts
    depend only on the task spec and its ``[start, start+shots)`` range
    — never on how the surrounding run was scheduled or interrupted.
    """

    start: int
    shots: int
    errors: int
    raw_errors: int
    corrections_applied: int
    elapsed_s: float = 0.0
    #: Per-canonical-block importance-weight moments, in block order —
    #: one ``(wsum, wsq, esum, esq)`` tuple per simulation block the
    #: chunk covers (see :func:`fold_moments` for why they are kept
    #: unsummed).  ``None`` for plain MC (unit weights, derivable from
    #: the counts), keeping legacy rows/stores valid.
    block_weights: Optional[Tuple[WeightMoments, ...]] = None

    @property
    def end(self) -> int:
        return self.start + self.shots

    @property
    def weighted(self) -> bool:
        return self.block_weights is not None

    def fold_weights(self, acc: WeightMoments) -> WeightMoments:
        """Fold this chunk's block moments onto a running accumulator
        (unit-weight moments for MC chunks)."""
        if self.block_weights is None:
            return fold_moments(acc, [(float(self.shots),
                                       float(self.shots),
                                       float(self.errors),
                                       float(self.errors))])
        return fold_moments(acc, self.block_weights)

    def to_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "start": self.start, "shots": self.shots,
            "errors": self.errors, "raw_errors": self.raw_errors,
            "corrections": self.corrections_applied,
            "elapsed_s": self.elapsed_s}
        if self.block_weights is not None:
            row["weights"] = [list(b) for b in self.block_weights]
        return row

    @classmethod
    def from_row(cls, row: Dict[str, object]) -> "ChunkResult":
        weights = None
        if row.get("weights") is not None:
            weights = tuple(tuple(float(v) for v in b)
                            for b in row["weights"])
        return cls(start=int(row["start"]), shots=int(row["shots"]),
                   errors=int(row["errors"]),
                   raw_errors=int(row["raw_errors"]),
                   corrections_applied=int(row["corrections"]),
                   elapsed_s=float(row.get("elapsed_s", 0.0)),
                   block_weights=weights)


class ChunkTally:
    """Running counts over a contiguous run of a task's chunks.

    The one place chunk counts are folded: the scheduler's contiguous
    frontier (:class:`repro.parallel.plan.TaskPlan`, and through it
    ``run_task``, store replay and the service) and the store's
    resumable prefix (:meth:`CampaignStore.partial`) all advance by
    :meth:`add`, in stream order, so every route lands on bit-identical
    counts and weight moments.  Deciding *which* chunk may be folded
    next (contiguity, watermarks, duplicates) is the caller's job.
    """

    def __init__(self, prior=ZERO_PRIOR, weighted: bool = False) -> None:
        (self.shots, self.errors, self.raw_errors, self.corrections,
         self.elapsed_s, self.chunks, weights) = normalize_prior(prior)
        #: Whether the stream is importance-weighted (the moments are
        #: folded either way; MC chunks contribute unit weights).
        self.weighted = weighted or weights is not None
        self.weights: WeightMoments = weights or ZERO_MOMENTS

    def add(self, chunk: ChunkResult) -> None:
        self.shots += chunk.shots
        self.errors += chunk.errors
        self.raw_errors += chunk.raw_errors
        self.corrections += chunk.corrections_applied
        self.elapsed_s += chunk.elapsed_s
        self.chunks += 1
        self.weights = chunk.fold_weights(self.weights)
        self.weighted = self.weighted or chunk.weighted

    def prior(self) -> Tuple:
        """The counts so far, in the canonical 7-tuple prior form."""
        return (self.shots, self.errors, self.raw_errors, self.corrections,
                self.elapsed_s, self.chunks,
                self.weights if self.weighted else None)


@dataclass
class InjectionResult:
    """Outcome of one campaign point."""

    task: InjectionTask
    shots: int
    errors: int
    raw_errors: int            # readout wrong before decoding
    corrections_applied: int   # shots where the decoder flipped readout
    swap_count: int = 0
    elapsed_s: float = 0.0
    chunks: int = 1            # streaming chunks the counts aggregate
    #: Importance-weight moments for rare-event samplers (None for MC).
    weights: Optional[Tuple[float, float, float, float]] = None

    @property
    def weighted(self) -> bool:
        return self.weights is not None

    @property
    def weight_stats(self) -> WeightStats:
        if self.weights is None:
            return WeightStats.from_counts(self.shots, self.errors)
        wsum, wsq, esum, esq = self.weights
        return WeightStats(shots=self.shots, wsum=wsum, wsq=wsq,
                           esum=esum, esq=esq,
                           iid=self.task.sampler.kind != "split")

    @property
    def logical_error_rate(self) -> float:
        """Point LER: the self-normalized weighted estimate for
        rare-event samplers, the plain rate otherwise."""
        if self.weighted:
            return self.weight_stats.estimate("sn")
        return self.errors / self.shots if self.shots else 0.0

    @property
    def raw_error_rate(self) -> float:
        return self.raw_errors / self.shots if self.shots else 0.0

    @property
    def confidence_interval(self) -> Tuple[float, float]:
        if self.weighted:
            return self.weight_stats.wilson_interval()
        return wilson_interval(self.errors, self.shots)

    def to_row(self) -> Dict[str, object]:
        lo, hi = self.confidence_interval
        row: Dict[str, object] = {
            "code": self.task.code.label,
            "arch": self.task.arch.label if self.task.arch else "-",
            "fault": self.task.fault.kind,
            "p": self.task.intrinsic_p,
            "decoder": self.task.decoder.label,
            "shots": self.shots,
            "errors": self.errors,
            "ler": self.logical_error_rate,
            "ler_lo": lo,
            "ler_hi": hi,
            "raw_ler": self.raw_error_rate,
            "swaps": self.swap_count,
            "seed": self.task.seed,
            "backend": self.task.backend,
            "recovery": self.task.recovery,
            "sampler": self.task.sampler.label,
        }
        if self.weighted:
            stats = self.weight_stats
            row["ess"] = stats.ess
            row["ler_ht"] = stats.estimate("ht")
        row.update(dict(self.task.tags))
        return row


class ResultSet:
    """Ordered collection of :class:`InjectionResult` with helpers."""

    def __init__(self, results: Optional[Iterable[InjectionResult]] = None
                 ) -> None:
        self.results: List[InjectionResult] = list(results or [])

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, idx):
        return self.results[idx]

    # ------------------------------------------------------------------
    def filter(self, predicate: Callable[[InjectionResult], bool]
               ) -> "ResultSet":
        return ResultSet(r for r in self.results if predicate(r))

    def filter_tags(self, **tags: object) -> "ResultSet":
        want = {k: str(v) for k, v in tags.items()}

        def match(r: InjectionResult) -> bool:
            have = dict(r.task.tags)
            return all(have.get(k) == v for k, v in want.items())

        return self.filter(match)

    def rates(self) -> np.ndarray:
        return np.array([r.logical_error_rate for r in self.results])

    def median_rate(self) -> float:
        rates = self.rates()
        return float(np.median(rates)) if rates.size else float("nan")

    def pooled_rate(self) -> float:
        """Error rate pooling shots across all points."""
        shots = sum(r.shots for r in self.results)
        errors = sum(r.errors for r in self.results)
        return errors / shots if shots else float("nan")

    def total_shots(self) -> int:
        """Shots spent across the whole set (adaptive-run budget line)."""
        return sum(r.shots for r in self.results)

    # ------------------------------------------------------------------
    def to_rows(self) -> List[Dict[str, object]]:
        return [r.to_row() for r in self.results]
