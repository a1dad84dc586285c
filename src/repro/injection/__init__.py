"""Quantum fault-injection toolkit (the paper's §III contribution)."""

from .adaptive import DECISION_SHOTS, AdaptivePolicy
from .campaign import (
    DEFAULT_CHUNK_SHOTS,
    SIM_BLOCK,
    WIDE_BLOCKS,
    Campaign,
    iter_task_chunks,
    run_task,
)
from ..rare.sampler import SamplerSpec
from .results import ChunkResult, InjectionResult, ResultSet, wilson_interval
from .spec import ArchSpec, CodeSpec, FaultSpec, InjectionTask
from .store import CampaignStore, task_key
from .sweep import build_sweep, sweep_size

__all__ = [
    "AdaptivePolicy",
    "Campaign",
    "DECISION_SHOTS",
    "CampaignStore",
    "ChunkResult",
    "DEFAULT_CHUNK_SHOTS",
    "SIM_BLOCK",
    "WIDE_BLOCKS",
    "build_sweep",
    "sweep_size",
    "iter_task_chunks",
    "run_task",
    "task_key",
    "InjectionResult",
    "ResultSet",
    "wilson_interval",
    "ArchSpec",
    "CodeSpec",
    "FaultSpec",
    "InjectionTask",
    "SamplerSpec",
]
