"""Figure 8: breakdown of execution time by operation.

Paper shape: sharing configurations spend far less time reading base
streams in absolute terms; in-memory join time is a thin slice
everywhere (wide-area latency dominates); probing persists because
score-less relations cannot be streamed usefully.

One honest divergence: the paper's shared
configurations show a *larger probe fraction* than ATC-CQ, whereas ours
show a smaller one -- our shared probe caches are scoped per plan
graph, so in the shared configurations most repeat probes are free
cache hits, while the no-sharing baseline re-pays them per conjunctive
query.  The underlying claim ("we cache tuples from random probes, we
can expect the rate of probing to decrease") is reproduced; the
fraction flips because the caching is more effective at our scale.
"""

from repro.common.config import SharingMode
from repro.experiments import figure8
from repro.experiments.harness import quick_scale


def test_figure8(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: figure8.run(quick_scale()), rounds=1, iterations=1,
    )
    save_result("figure8", result.table().render())

    for mode, fractions in result.fractions.items():
        total = sum(fractions.values())
        assert abs(total - 1.0) < 1e-6 or total == 0.0

    # Absolute stream-read time: sharing slashes it vs the baseline.
    cq_stream_abs = result.absolute[SharingMode.ATC_CQ]["stream"]
    full_stream_abs = result.absolute[SharingMode.ATC_FULL]["stream"]
    assert full_stream_abs < cq_stream_abs

    # The baseline pays for probing over and over (private caches).
    cq_ra = result.fractions[SharingMode.ATC_CQ]["random_access"]
    assert cq_ra > 0.0

    # Latency dominates CPU: join time is a small slice everywhere.
    for mode, fractions in result.fractions.items():
        assert fractions["join"] <= fractions["stream"] + 1e-9
        assert fractions["join"] < 0.5
