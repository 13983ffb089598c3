"""Extension bench: cooperative CPU+GPU split execution.

Not a paper artefact — the Introduction's Valero-Lara motivation turned
into a capability: predict the optimal static split of each kernel's
parallel band and quantify the cooperative win over the best single
device.
"""

from repro.analysis import ProgramAttributeDatabase
from repro.calibrate import fit_model_calibration
from repro.machines import PLATFORM_P9_V100
from repro.models import predict_split
from repro.polybench import all_kernel_cases
from repro.util import render_table


def _predict_splits():
    cal = fit_model_calibration(PLATFORM_P9_V100)
    db = ProgramAttributeDatabase()
    return [
        predict_split(
            db.compile_region(case.region).bind(case.env),
            PLATFORM_P9_V100,
            calibration=cal,
        )
        for case in all_kernel_cases("benchmark")
    ]


def test_split_extension(benchmark):
    results = benchmark.pedantic(_predict_splits, rounds=1, iterations=1)
    rows = [
        [
            s.region_name,
            f"{s.gpu_fraction:.0%}",
            f"{s.speedup_over_best_single:.2f}x",
            "yes" if s.worthwhile else "no",
        ]
        for s in results
    ]
    print()
    print(
        render_table(
            ["kernel", "best GPU share", "vs best single device", "worth it"],
            rows,
            title="Cooperative split predictions (POWER9+V100, benchmark)",
        )
    )
    assert len(results) == 24
    for s in results:
        # splitting can never be predicted worse than the best single device
        assert s.makespan_seconds <= min(
            s.cpu_only_seconds, s.gpu_only_seconds
        ) + 1e-12
        assert 0.0 <= s.gpu_fraction <= 1.0
    # cooperation should pay off for at least a few boundary kernels
    assert sum(s.worthwhile for s in results) >= 3
