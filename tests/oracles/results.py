"""What two runs of a campaign must agree on.

A point's deterministic payload is its counts — shots, errors, raw
errors, corrections — plus, for an importance-weighted point, its four
weight moments.  Timing and bookkeeping are excluded.  Two runs of the
same campaign are equal iff their :func:`counts` (and, when weighted,
their :func:`payload`) are.
"""

from repro.injection.results import ResultSet


def counts(result):
    """``(shots, errors, raw_errors, corrections)`` of one
    :class:`~repro.injection.results.InjectionResult`; of a
    :class:`~repro.injection.results.ResultSet`, the list of its points'
    counts in task order."""
    if isinstance(result, ResultSet):
        return [counts(r) for r in result]
    return (result.shots, result.errors, result.raw_errors,
            result.corrections_applied)


def payload(result):
    """:func:`counts` plus, for a weighted point, the weight moments
    ``(wsum, wsq, esum, esq)``; of a ``ResultSet``, one per point."""
    if isinstance(result, ResultSet):
        return [payload(r) for r in result]
    if result.weights is None:
        return counts(result)
    return counts(result) + tuple(result.weights)
