"""Rare-event sampler benchmark: shots-to-target vs plain Monte Carlo.

The acceptance claim of the ``repro.rare`` subsystem (ISSUE 5): on a
d=5 rotated-code point whose true logical error rate sits at ~1e-5
(deep below what a CI-scale plain-MC budget can resolve), the tilted
importance sampler must reach a 20% relative confidence-interval
target with **>= 10x fewer simulated shots** than plain MC would need.

The bench runs the tilted estimator under the adaptive policy until
the weighted CI meets the target, then compares the shots actually
spent against the analytic plain-MC requirement
``z^2 (1-p) / (rel^2 p)`` at the measured rate — running the actual
multi-million-shot MC comparison would defeat the point of the
subsystem.  Both numbers land in the bench's ``extra_info``
(pytest-benchmark's ``--benchmark-json`` row).

The speedup ratio is a property of the sampled streams (deterministic
given the seed), not of the host's wall-clock, so the acceptance bar
holds on contended CI runners too; ``REPRO_BENCH_LAX`` is not needed.
"""

import time

from repro.injection import CodeSpec, InjectionTask
from repro.injection.adaptive import AdaptivePolicy
from repro.injection.campaign import run_task
from repro.rare.sampler import SamplerSpec
from repro.rare.stats import mc_required_shots

#: Target relative CI half-width (the ISSUE's acceptance target).
TARGET_REL = 0.2
#: Shot ceiling for the tilted run (far above the expected stop shot,
#: so the adaptive policy — not the budget — ends the run).
CEILING = 262_144
#: Acceptance bar: tilted shots-to-target at least this many times
#: below plain MC's.
MIN_SPEEDUP = 10.0


def _deep_task():
    """d=5 rotated code, p=2e-4 intrinsic, data readout: true LER
    ~1e-5 (the regime Figs. 5-6 cannot reach with plain MC)."""
    return InjectionTask(
        code=CodeSpec("xxzz", (5, 5)), intrinsic_p=2e-4, rounds=2,
        readout="data", shots=CEILING, seed=11,
        sampler=SamplerSpec(kind="tilt", tilt=16.0,
                            target_rel=TARGET_REL))


def test_tilt_variance_reduction(benchmark, capsys):
    """Tilted estimator reaches the 20% CI target >= 10x cheaper."""
    policy = AdaptivePolicy(rel_halfwidth=TARGET_REL)

    t0 = time.perf_counter()
    result = benchmark.pedantic(
        lambda: run_task(_deep_task(), adaptive=policy),
        rounds=1, iterations=1)
    elapsed = time.perf_counter() - t0

    stats = result.weight_stats
    rate = result.logical_error_rate
    lo, hi = result.confidence_interval
    assert rate > 0, "deep point produced no weighted failures"
    rel = (hi - lo) / (2 * rate)
    assert result.shots < CEILING, \
        "adaptive policy never reached the CI target below the ceiling"
    assert rel <= TARGET_REL * 1.05, \
        f"stopped CI is too wide: rel {rel:.3f} > {TARGET_REL}"
    assert rate < 1e-4, \
        f"operating point drifted out of the deep tail: LER {rate:.3g}"

    mc_shots = mc_required_shots(rate, TARGET_REL)
    speedup = mc_shots / result.shots
    assert speedup >= MIN_SPEEDUP, \
        f"variance reduction {speedup:.1f}x < {MIN_SPEEDUP}x " \
        f"({result.shots} tilted shots vs {mc_shots:,.0f} MC shots)"

    benchmark.extra_info["shots"] = result.shots
    benchmark.extra_info["ler"] = rate
    benchmark.extra_info["rel_ci"] = rel
    benchmark.extra_info["ess"] = stats.ess
    benchmark.extra_info["design_ess"] = stats.design_ess
    benchmark.extra_info["mc_shots_required"] = mc_shots
    benchmark.extra_info["var_reduction"] = speedup
    with capsys.disabled():
        print(f"\n[rare] d=5 p=2e-4: LER {rate:.3g} "
              f"[{lo:.3g}, {hi:.3g}] in {result.shots:,} tilted shots "
              f"({elapsed:.1f}s); plain MC needs ~{mc_shots:,.0f} "
              f"-> {speedup:.1f}x")
