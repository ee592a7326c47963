"""Bench for Fig. 10 — strong/weak scaling from the cost model."""

from repro.bench.experiments import fig10_scaling


def test_fig10_scaling_model(benchmark, bench_config, report):
    result = benchmark.pedantic(
        lambda: fig10_scaling.run(bench_config), rounds=1, iterations=1
    )
    report(result)
    for arch in ("cpu-snb", "mic-knc"):
        series = [
            r["gteps"]
            for r in result.rows
            if r["panel"] == "strong"
            and r["arch"] == arch
            and r["edgefactor"] == 16
        ]
        assert series[-1] > series[0]
