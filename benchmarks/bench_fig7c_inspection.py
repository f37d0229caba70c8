"""Figure 7c — preprocessing with bias inspection enabled.

The NoBiasIntroducedFor check measures sensitive-column ratios after every
operator.  In the paper n inspection steps imply n re-executions of the
first operation in the non-materialised SQL modes (§6.3), which is why
materialisation matters most there; here every histogram is an arm of one
statement that runs each table expression once (DESIGN.md §6).
"""

import pytest

from harness import ALL_BACKENDS, bench_sizes, print_table, run_once

PIPELINES = ["healthcare", "compas", "adult_simple", "adult_complex"]


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_inspection_benchmark(benchmark, pipeline, backend):
    size = bench_sizes()[-1]

    def run():
        run_once(pipeline, size, "sklearn", backend, with_inspection=True)

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_report_fig7c(capsys):
    rows = []
    for pipeline in PIPELINES:
        for size in bench_sizes():
            row = [pipeline, size]
            for backend in ALL_BACKENDS:
                outcome = run_once(
                    pipeline, size, "sklearn", backend, with_inspection=True
                )
                row.append(outcome.seconds)
            rows.append(row)
    with capsys.disabled():
        print_table(
            "Figure 7c: preprocessing + inspection, runtime (s)",
            ["pipeline", "tuples"] + ALL_BACKENDS,
            rows,
        )
