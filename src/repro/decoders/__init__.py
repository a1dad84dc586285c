"""Syndrome decoders: detector graph, MWPM (paper default), union-find.

The canonical decode entry point is ``decode_batch`` over a
:class:`SyndromeBatch` — a block's records as packed words, which uint8
record rows are packed into on entry; decoder configuration is carried
by :class:`DecoderSpec` (kind, weighting, decode cache, hook edges) and
built by :func:`decoder_for`.
"""

from typing import Union

from .base import DecodeResult, Decoder
from .batch import (DecodeCache, SyndromeBatch, pack_pattern_columns,
                    prepare_packed_inputs)
from .detector_graph import (BOUNDARY, ERASED_WEIGHT, DetectorEdge,
                             DetectorGraph)
from .matching import MWPMDecoder
from .spec import DECODER_KINDS, DecoderSpec, as_decoder
from .unionfind import UnionFindDecoder


def decoder_for(experiment, kind: Union[str, DecoderSpec, None] = "mwpm",
                basis: str | None = None, use_final_data: bool = True):
    """Build a decoder bound to an experiment's detector graph.

    Parameters
    ----------
    experiment:
        A :class:`~repro.codes.base.MemoryExperiment`.
    kind:
        A :class:`DecoderSpec`, or anything :func:`~repro.decoders.
        spec.as_decoder` coerces (``"mwpm"`` — the paper default —
        ``"union-find"``, ``"mwpm:hooks,nocache"``, a mapping, ...).
    basis:
        Decode basis; defaults to the experiment's memory basis.
    use_final_data:
        ``True`` (default) reconstructs a final syndrome round from the
        transversal data measurement and reads the logical parity from
        the data bits (qtcodes-style); ``False`` trusts the dedicated
        readout ancilla of Figs. 1-2 and leaves post-round errors
        undetectable (kept as the readout-path ablation).
    """
    spec = as_decoder(kind)
    basis = basis or experiment.basis
    if use_final_data and (experiment.data_cbits is None
                           or basis != experiment.basis):
        use_final_data = False
    rounds = experiment.rounds + (1 if use_final_data else 0)
    graph = DetectorGraph(experiment.code, rounds, basis=basis,
                          hook_edges=spec.hook_edges)
    if spec.kind == "mwpm":
        return MWPMDecoder(graph, use_final_data=use_final_data,
                           cache_decodes=spec.cache)
    return UnionFindDecoder(graph, use_final_data=use_final_data,
                            cache_decodes=spec.cache,
                            weighted_growth=spec.weighting == "weighted")


__all__ = [
    "Decoder",
    "DecodeResult",
    "DecodeCache",
    "DecoderSpec",
    "DECODER_KINDS",
    "DetectorGraph",
    "DetectorEdge",
    "BOUNDARY",
    "ERASED_WEIGHT",
    "MWPMDecoder",
    "SyndromeBatch",
    "UnionFindDecoder",
    "as_decoder",
    "decoder_for",
    "pack_pattern_columns",
    "prepare_packed_inputs",
]
