"""Declarative decoder specifications.

A :class:`DecoderSpec` names everything about how a campaign point
decodes its syndromes — mirroring :class:`~repro.rare.sampler.
SamplerSpec` for the sampling side:

``kind``
    ``"mwpm"`` (the paper's minimum-weight perfect matcher, default) or
    ``"union-find"`` (the almost-linear-time alternative).
``weighting``
    ``"weighted"`` (default) — decoders consume per-edge graph weights:
    MWPM through its shortest-path tables (as it always has), union-find
    through weighted cluster growth, where low-weight (likely) edges
    complete before unit edges.  ``"uniform"`` pins the legacy
    half-step union-find growth that reacts only to fully erased edges.
    On unit-weight graphs the two settings decode bit-identically.
``cache``
    Enable the syndrome-dedup decode cache: each distinct detector
    pattern is decoded once per decoder instance and the correction
    parity is replayed on every later hit — exact, since the decode is
    a pure function of (pattern, graph).  Disable only to measure the
    cache itself; results are bit-identical either way.
``hook_edges``
    Add correlated *hook* edges to the detector graph: space-time
    diagonal mechanisms from mid-round data errors that flip one
    plaquette this round and its partner next round.  Off by default
    (the seed graphs have no hooks, and the flag changes decode
    results, so it participates in the task identity).

The spec is a frozen dataclass — it pickles cheaply, hashes (so the
worker-side ``lru_cache`` of prepared decoders keys on it), and
participates in the campaign store's task key: a different decoding
configuration counts different errors, so it must shape the key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Union

#: Recognised decoder kinds (canonical names).
DECODER_KINDS = ("mwpm", "union-find")

#: Accepted aliases, normalised at construction so specs (and the task
#: keys derived from them) never depend on caller spelling.
_KIND_ALIASES = {
    "mwpm": "mwpm",
    "matching": "mwpm",
    "union-find": "union-find",
    "unionfind": "union-find",
    "uf": "union-find",
}

#: Recognised weighting modes.
WEIGHTING_MODES = ("weighted", "uniform")

#: Burst-recovery policy names (``InjectionTask.recovery``), kept here
#: so that building a task loads no :mod:`repro.detect` module, whose
#: ``RecoveryPolicy`` implements each.
RECOVERY_POLICIES = ("static", "reweight", "discard_window")

#: ``kind:modifier`` string grammar (CLI / sweep specs): comma-separated
#: modifiers after the colon.
_MODIFIERS = ("hooks", "nocache", "uniform")


@dataclass(frozen=True)
class DecoderSpec:
    """How a campaign point decodes its syndrome batches.

    Parameters
    ----------
    kind:
        ``"mwpm"`` (default) or ``"union-find"`` (aliases ``"uf"``,
        ``"unionfind"`` normalise).
    weighting:
        ``"weighted"`` (default) or ``"uniform"`` — see the module
        docstring.  Only union-find growth distinguishes the two;
        MWPM's matching is weight-aware in both modes.
    cache:
        Syndrome-dedup decode cache on/off (default on; exact either
        way).
    hook_edges:
        Build the detector graph with correlated hook edges (default
        off — changes decode results, so it is part of task identity).
    """

    kind: str = "mwpm"
    weighting: str = "weighted"
    cache: bool = True
    hook_edges: bool = False

    def __post_init__(self) -> None:
        canonical = _KIND_ALIASES.get(str(self.kind))
        if canonical is None:
            # KeyError, matching decoder_for's historical registry-miss
            # contract (unknown kinds are lookup failures, not values).
            raise KeyError(f"unknown decoder {self.kind!r}; expected one "
                           f"of {DECODER_KINDS}")
        object.__setattr__(self, "kind", canonical)
        if self.weighting not in WEIGHTING_MODES:
            raise ValueError(
                f"unknown weighting mode {self.weighting!r}; expected "
                f"one of {WEIGHTING_MODES}")

    @property
    def label(self) -> str:
        """Short identifier used in result rows and reports."""
        mods = []
        if self.hook_edges:
            mods.append("hooks")
        if self.weighting != "weighted":
            mods.append("uniform")
        if not self.cache:
            mods.append("nocache")
        return self.kind + (":" + ",".join(mods) if mods else "")


def as_decoder(obj: Union["DecoderSpec", str, Mapping[str, Any], None]
               ) -> DecoderSpec:
    """Coerce a sweep-spec / CLI decoder description into a spec.

    Accepts a ready :class:`DecoderSpec`, ``None`` (defaults), a kind
    string with optional modifiers (``"mwpm"``, ``"uf"``,
    ``"union-find:hooks"``, ``"mwpm:hooks,nocache"``), or a JSON
    mapping ``{"kind": "union-find", "hook_edges": true, ...}``.
    """
    if obj is None:
        return DecoderSpec()
    if isinstance(obj, DecoderSpec):
        return obj
    if isinstance(obj, str):
        kind, _, arg = obj.partition(":")
        kwargs: dict = {}
        for mod in filter(None, (m.strip() for m in arg.split(","))):
            if mod == "hooks":
                kwargs["hook_edges"] = True
            elif mod == "nocache":
                kwargs["cache"] = False
            elif mod == "uniform":
                kwargs["weighting"] = "uniform"
            else:
                raise ValueError(
                    f"unknown decoder modifier {mod!r}; expected one of "
                    f"{_MODIFIERS}")
        return DecoderSpec(kind=kind, **kwargs)
    if isinstance(obj, Mapping):
        return DecoderSpec(**{str(k): v for k, v in obj.items()})
    raise ValueError(f"cannot parse decoder spec {obj!r}")
