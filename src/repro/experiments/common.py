"""Shared measurement infrastructure for the experiment harness.

Runs the Polybench suite on a platform ("measuring" with the simulators)
and through the analytical predictor, with memoization so that the
table/figure modules and the pytest benchmarks can share results.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Mapping

from ..analysis import ProgramAttributeDatabase, RegionAttributes
from ..calibrate import ModelCalibration, fit_model_calibration
from ..machines import PLATFORM_P8_K80, PLATFORM_P9_V100, Platform, platform_by_name
from ..models import SelectionPrediction, predict_both
from ..parallel import (
    SweepEngine,
    current_cache,
    register_prefork_warmup,
    shutdown_pools,
)
from ..polybench import MODES, KernelCase, all_kernel_cases
from ..sim import simulate_cpu, simulate_gpu_kernel, simulate_transfers

__all__ = ["KernelMeasurement", "measure_suite", "predict_suite", "clear_caches"]


def _resolve_platform(platform: "Platform | str") -> Platform:
    """Accept a Platform, a registry key ('p9-v100') or a display name."""
    if isinstance(platform, Platform):
        return platform
    for known in (PLATFORM_P8_K80, PLATFORM_P9_V100):
        if platform == known.name:
            return known
    return platform_by_name(platform)


@dataclass(frozen=True)
class KernelMeasurement:
    """Measured (simulated) CPU and GPU times for one kernel case."""

    case: KernelCase
    cpu_seconds: float
    gpu_kernel_seconds: float
    gpu_transfer_seconds: float

    @property
    def gpu_seconds(self) -> float:
        return self.gpu_kernel_seconds + self.gpu_transfer_seconds

    @property
    def true_speedup(self) -> float:
        """Actual GPU-offloading speedup (host time / device time)."""
        return self.cpu_seconds / self.gpu_seconds

    @property
    def oracle_seconds(self) -> float:
        return min(self.cpu_seconds, self.gpu_seconds)


_MEASURE_CACHE: dict[tuple, list[KernelMeasurement]] = {}
_PREDICT_CACHE: dict[tuple, list[SelectionPrediction]] = {}
_DB_CACHE: dict[str, tuple[ProgramAttributeDatabase, list[KernelCase]]] = {}
_CAL_CACHE: dict[tuple, ModelCalibration] = {}


def clear_caches(*, persistent: bool = True) -> None:
    """Drop all experiment memoization (for tests).

    With ``persistent=True`` (the default) the active persistent
    :class:`~repro.parallel.AnalysisCache` — when one is enabled — is
    cleared too, and every persistent worker pool is shut down (a worker
    over that cache's directory keeps the entries it read or wrote in
    memory), so a post-clear sweep genuinely recomputes everything
    instead of replaying stored entries.  ``persistent=False`` drops
    only the in-process memos and leaves both the disk entries and the
    warm worker pools in place — the warm-run configuration the
    benchmarks time.
    """
    _MEASURE_CACHE.clear()
    _PREDICT_CACHE.clear()
    _DB_CACHE.clear()
    _CAL_CACHE.clear()
    if persistent:
        shutdown_pools()
        cache = current_cache()
        if cache.enabled:
            cache.clear()


def _database(mode: str) -> tuple[ProgramAttributeDatabase, list[KernelCase]]:
    """The compiled suite and one dataset's cases over its regions.

    Both datasets share one database: ``BenchmarkSpec.kernels`` builds a
    benchmark's regions without the mode, so each region is compiled once
    and the test and benchmark cases bind their sizes to the same region
    objects, whose records (IPDA result, lowered loop nests) serve both.
    """
    if not _DB_CACHE:
        raw = {each: all_kernel_cases(each) for each in MODES}
        db = ProgramAttributeDatabase()
        for case in raw[MODES[0]]:
            db.compile_region(case.region)
        # regions must come from the compiled database so attribute
        # lookups hit; memoize the rebound cases alongside the database —
        # the sweep tasks look their case up here, so the suite IR must
        # not be rebuilt per call
        for each, cases in raw.items():
            _DB_CACHE[each] = (
                db,
                [
                    dataclasses.replace(c, region=db.lookup(c.name).region)
                    for c in cases
                ],
            )
    if mode not in _DB_CACHE:
        raise KeyError(f"mode must be one of {MODES}, got {mode!r}")
    db, cases = _DB_CACHE[mode]
    return db, list(cases)


def _prefork_warmup() -> None:
    """Build the suite database in the parent before workers fork.

    Workers inherit the compiled attribute database copy-on-write, so
    no worker process ever recompiles the suite — on a small machine the
    per-worker rebuilds would otherwise serialize into the largest
    fixed cost of a parallel sweep.
    """
    _database(MODES[0])


register_prefork_warmup(_prefork_warmup)


def _calibration(plat: Platform, num_threads: int | None) -> ModelCalibration:
    cal_key = (plat.name, num_threads)
    if cal_key not in _CAL_CACHE:
        _CAL_CACHE[cal_key] = fit_model_calibration(
            plat, num_threads=num_threads
        )
    return _CAL_CACHE[cal_key]


# -- result-level caching ---------------------------------------------------
#
# The compiled record holds each region's static products, so what a
# sweep pays per case is simulation and model evaluation.  Both are
# deterministic pure functions of (canonical region IR, env, platform,
# knobs), so the persistent cache stores the sweep results themselves:
# ``sim.measure`` stores the three measured seconds, ``model.predict``
# stores an encoded :class:`SelectionPrediction` tree.  A warm cache
# directory replays entire sweeps, in process or in workers; without an
# active cache both take the uncached branch.


def _codec_types() -> dict:
    from ..codegen import CPUPlan, GPULaunchPlan, OMPSchedule
    from ..models import CPUPrediction, GPUPrediction, TransferEstimate

    return {
        cls.__name__: cls
        for cls in (
            SelectionPrediction,
            CPUPrediction,
            GPUPrediction,
            CPUPlan,
            GPULaunchPlan,
            TransferEstimate,
            OMPSchedule,
        )
    }


def _encode_tree(obj):
    """A JSON-able encoding of a prediction tree (dataclasses + enums)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            "@dc",
            type(obj).__name__,
            [_encode_tree(getattr(obj, f.name)) for f in dataclasses.fields(obj)],
        ]
    if isinstance(obj, enum.Enum):
        return ["@enum", type(obj).__name__, obj.name]
    if isinstance(obj, (list, tuple)):
        return [
            "@seq",
            "tuple" if isinstance(obj, tuple) else "list",
            [_encode_tree(v) for v in obj],
        ]
    return obj


def _decode_tree(obj, types: dict):
    if isinstance(obj, list) and obj and obj[0] == "@dc":
        cls = types[obj[1]]
        fields = dataclasses.fields(cls)
        return cls(
            **{
                f.name: _decode_tree(v, types)
                for f, v in zip(fields, obj[2])
            }
        )
    if isinstance(obj, list) and obj and obj[0] == "@enum":
        return types[obj[1]][obj[2]]
    if isinstance(obj, list) and obj and obj[0] == "@seq":
        seq = [_decode_tree(v, types) for v in obj[2]]
        return tuple(seq) if obj[1] == "tuple" else seq
    return obj


def _simulate_case(
    attrs: RegionAttributes,
    env: Mapping[str, int],
    plat: Platform,
    num_threads: int | None,
) -> list[float]:
    cpu = simulate_cpu(attrs, plat.host, env, num_threads=num_threads)
    gpu = simulate_gpu_kernel(attrs, plat.gpu, env)
    xfer = simulate_transfers(attrs.region, plat.bus, env)
    return [cpu.seconds, gpu.seconds, xfer.total_seconds]


def _measure_case(
    attrs: RegionAttributes,
    case: KernelCase,
    plat: Platform,
    num_threads: int | None,
) -> KernelMeasurement:
    cache = current_cache()
    if not cache.enabled:
        numbers = _simulate_case(attrs, case.env, plat, num_threads)
    else:
        from ..ir import region_to_text

        numbers = cache.get_or_compute(
            "sim.measure",
            {
                "region": region_to_text(case.region),
                "env": dict(case.env),
                "threads": num_threads,
            },
            plat,
            lambda: _simulate_case(attrs, case.env, plat, num_threads),
            validate=lambda v: isinstance(v, list) and len(v) == 3,
        )
    return KernelMeasurement(
        case=case,
        cpu_seconds=numbers[0],
        gpu_kernel_seconds=numbers[1],
        gpu_transfer_seconds=numbers[2],
    )


def _predict_case(
    db: ProgramAttributeDatabase,
    name: str,
    env,
    plat: Platform,
    num_threads: int | None,
    calibration: ModelCalibration,
) -> SelectionPrediction:
    cache = current_cache()
    if not cache.enabled:
        return predict_both(
            db.lookup(name).bind(env),
            plat,
            num_threads=num_threads,
            calibration=calibration,
        )
    from ..ir import region_to_text

    loadout = db.lookup(name)
    value = cache.get_or_compute(
        "model.predict",
        {
            "region": region_to_text(loadout.region),
            "env": dict(env),
            "threads": num_threads,
            "calibration": calibration,
            # every sweep predicts with runtime trip counts; the field
            # keeps the key bytes of entries written when it was an option
            "use_runtime_tripcounts": True,
        },
        plat,
        lambda: _encode_tree(
            predict_both(
                loadout.bind(env),
                plat,
                num_threads=num_threads,
                calibration=calibration,
            )
        ),
        validate=lambda v: isinstance(v, list) and v and v[0] == "@dc",
    )
    return _decode_tree(value, _codec_types())


def _measure_task(task: tuple) -> tuple[float, float, float]:
    """Sweep task: simulate one suite case, returning only the numbers.

    A task names its case by position in the dataset: the compiled
    database (built once per process, and inherited by forked workers)
    holds the regions, so a worker ships back three floats and
    :func:`measure_suite` pairs them with its own :class:`KernelCase`.
    """
    plat_name, mode, index, num_threads = task
    db, cases = _database(mode)
    case = cases[index]
    m = _measure_case(
        db.lookup(case.name), case, _resolve_platform(plat_name), num_threads
    )
    return (m.cpu_seconds, m.gpu_kernel_seconds, m.gpu_transfer_seconds)


def _predict_task(task: tuple) -> SelectionPrediction:
    """Sweep task: run the analytical predictor over one suite case.

    The fitted :class:`ModelCalibration` travels with the task (it is a
    tiny frozen dataclass): :func:`predict_suite` fits once and every
    task reuses it, in process or in a worker.
    """
    plat_name, mode, index, num_threads, calibration = task
    db, cases = _database(mode)
    case = cases[index]
    return _predict_case(
        db,
        case.name,
        case.env,
        _resolve_platform(plat_name),
        num_threads,
        calibration,
    )


def measure_suite(
    platform: Platform | str,
    mode: str,
    *,
    num_threads: int | None = None,
    jobs: int | None = None,
) -> list[KernelMeasurement]:
    """Simulate every suite kernel on both devices of a platform.

    The cases run through :class:`SweepEngine`: ``jobs`` (default:
    ``$REPRO_JOBS``, else 1) fans case chunks over the persistent
    warm-worker pool, one chunk per worker, and ``jobs <= 1`` runs the
    same tasks in process.  Results always come back in
    case-declaration order and are bit-identical at every ``jobs``,
    which is why ``jobs`` is excluded from the memo key.
    """
    plat = _resolve_platform(platform)
    key = (plat.name, mode, num_threads)
    if key in _MEASURE_CACHE:
        return _MEASURE_CACHE[key]
    _, cases = _database(mode)
    numbers = SweepEngine(jobs).map(
        _measure_task,
        [(plat.name, mode, i, num_threads) for i in range(len(cases))],
        labels=[case.name for case in cases],
    )
    out = _MEASURE_CACHE[key] = [
        KernelMeasurement(
            case=case,
            cpu_seconds=n[0],
            gpu_kernel_seconds=n[1],
            gpu_transfer_seconds=n[2],
        )
        for case, n in zip(cases, numbers)
    ]
    return out


def predict_suite(
    platform: Platform | str,
    mode: str,
    *,
    num_threads: int | None = None,
    jobs: int | None = None,
) -> list[SelectionPrediction]:
    """Run the calibrated analytical predictor over every suite kernel.

    ``jobs`` works exactly like :func:`measure_suite`'s: declaration
    order, bit-identical results, excluded from the memo key.
    """
    plat = _resolve_platform(platform)
    key = (plat.name, mode, num_threads)
    if key in _PREDICT_CACHE:
        return _PREDICT_CACHE[key]
    _, cases = _database(mode)
    # fitted once here; the calibration ships with each task
    calibration = _calibration(plat, num_threads)
    out = _PREDICT_CACHE[key] = SweepEngine(jobs).map(
        _predict_task,
        [
            (plat.name, mode, i, num_threads, calibration)
            for i in range(len(cases))
        ],
        labels=[case.name for case in cases],
    )
    return out
