"""Fig. 6: relative completion time of each BigKernel pipeline stage.

Shape checks: address generation is the cheapest stage (paper: "usually
less than 20%"), and computation is the slowest stage for most apps (the
paper's conclusion that the bottleneck migrated from PCIe to the GPU).
"""

from repro.bench import fig6
from repro.bench.paper_data import ADDR_GEN_MAX_FRACTION
from repro.runtime.pipeline import FORWARD_STAGES


def test_fig6(benchmark, settings, matrix):
    fig = benchmark.pedantic(
        lambda: fig6(settings, matrix=matrix), rounds=1, iterations=1
    )
    print("\n" + fig.text)

    for app, stages in fig.series.items():
        assert set(stages) == set(FORWARD_STAGES)
        assert max(stages.values()) == 1.0

    # addr-gen cheapest for the patterned apps
    cheap = sum(
        1 for s in fig.series.values() if s["addr_gen"] <= ADDR_GEN_MAX_FRACTION
    )
    assert cheap >= 6

    # computation is the slowest stage for most apps
    dominant = sum(
        1 for s in fig.series.values() if s["compute"] == max(s.values())
    )
    assert dominant >= 4
