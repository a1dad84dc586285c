"""Per-figure experiment generators (paper §V).

Each module regenerates one figure's data series:

* :mod:`.fig3_temporal` — temporal decay T(t) and its step sampling.
* :mod:`.fig4_spatial` — spatial damping field S(d).
* :mod:`.fig5_landscape` — intrinsic-noise x radiation LER surface.
* :mod:`.fig6_distance` — single-erasure criticality by code distance.
* :mod:`.fig7_spread` — spreading fault vs multi-qubit erasure.
* :mod:`.fig8_architecture` — per-qubit criticality across topologies.
* :mod:`.fig_detect` — strike-detection ROC and recovery-policy LER.
* :mod:`.headline` — Observation I-VIII paper-vs-measured checks.

Figs. 3-4 are analytic tables.  Every campaign figure is a task
list plus an analysis — ``build_campaign(shots, ...)`` returns a
:class:`~repro.injection.Campaign`, ``analyze(results)`` turns its
:class:`~repro.injection.results.ResultSet` into the figure's series —
and :data:`FIGURES` adds ``report(data)``, the tables ``repro <name>``
prints::

    data = fig6_distance.analyze(
        fig6_distance.build_campaign(shots=200).run(workers=2))
"""

from . import (
    fig3_temporal,
    fig4_spatial,
    fig5_landscape,
    fig6_distance,
    fig7_spread,
    fig8_architecture,
    fig_detect,
    headline,
)

#: The figures ``repro fig5`` ... ``repro fig8`` and ``repro headline``
#: run, by command name; ``headline``'s campaign spans Figs. 5-8.
FIGURES = {
    "fig5": fig5_landscape,
    "fig6": fig6_distance,
    "fig7": fig7_spread,
    "fig8": fig8_architecture,
    "headline": headline,
}

__all__ = [
    "FIGURES",
    "fig3_temporal",
    "fig4_spatial",
    "fig5_landscape",
    "fig6_distance",
    "fig7_spread",
    "fig8_architecture",
    "fig_detect",
    "headline",
]
