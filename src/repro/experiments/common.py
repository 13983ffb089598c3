"""Shared measurement infrastructure for the experiment harness.

Runs the Polybench suite on a platform ("measuring" with the simulators)
and through the analytical predictor, with memoization so that the
table/figure modules and the pytest benchmarks can share results.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

from ..analysis import ProgramAttributeDatabase
from ..calibrate import ModelCalibration, fit_model_calibration
from ..machines import PLATFORM_P8_K80, PLATFORM_P9_V100, Platform, platform_by_name
from ..models import SelectionPrediction, predict_both
from ..parallel import (
    SweepEngine,
    current_cache,
    register_prefork_warmup,
    shutdown_pools,
)
from ..polybench import KernelCase, all_kernel_cases
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
    cleared too, and every persistent worker pool is shut down (workers
    hold their own warm in-memory caches), so a post-clear sweep
    genuinely recomputes everything instead of replaying stored entries.
    ``persistent=False`` drops only the in-process memos and leaves both
    the disk entries and the warm worker pools in place — the warm-run
    configuration the benchmarks time.
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
    if mode not in _DB_CACHE:
        raw = all_kernel_cases(mode)
        db = ProgramAttributeDatabase()
        for case in raw:
            db.compile_region(case.region)
        # regions must come from the compiled database so attribute
        # lookups hit; memoize the rebound cases alongside the database —
        # per-task callers (_case_by_name) hit this on every case, so the
        # suite IR must not be rebuilt per call
        cases = [
            KernelCase(
                benchmark=c.benchmark,
                mode=c.mode,
                region=db.lookup(c.name).region,
                env=c.env,
                scalars=c.scalars,
            )
            for c in raw
        ]
        _DB_CACHE[mode] = (db, cases)
    db, cases = _DB_CACHE[mode]
    return db, list(cases)


def _prefork_warmup() -> None:
    """Build both mode databases in the parent before workers fork.

    Workers inherit the compiled attribute databases copy-on-write, so
    no worker process ever recompiles the suite — on a small machine the
    per-worker rebuilds would otherwise serialize into the largest
    fixed cost of a parallel sweep.
    """
    for mode in ("test", "benchmark"):
        _database(mode)


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
# The three analysis kinds (loadout/IPDA/MCA) cover the *static* pieces
# of a sweep, but a fully warm sweep still pays simulation and model
# evaluation per case.  Both are deterministic pure functions of
# (canonical region IR, env, platform, knobs), so the sweep results
# themselves are cacheable under the same content-addressing rules:
# ``sim.measure`` stores the three measured seconds, ``model.predict``
# stores an encoded :class:`SelectionPrediction` tree.  These entries
# ship between warm workers like any others, which is what lets a warm
# pool replay entire sweeps instead of recomputing them.


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
    case: KernelCase, plat: Platform, num_threads: int | None
) -> list[float]:
    cpu = simulate_cpu(
        case.region, plat.host, case.env, num_threads=num_threads
    )
    gpu = simulate_gpu_kernel(case.region, plat.gpu, case.env)
    xfer = simulate_transfers(case.region, plat.bus, case.env)
    return [cpu.seconds, gpu.seconds, xfer.total_seconds]


def _measure_case(
    case: KernelCase, plat: Platform, num_threads: int | None
) -> KernelMeasurement:
    cache = current_cache()
    if not cache.enabled:
        numbers = _simulate_case(case, plat, num_threads)
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
            lambda: _simulate_case(case, plat, num_threads),
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
    calibration: ModelCalibration | None,
    use_runtime_tripcounts: bool,
) -> SelectionPrediction:
    cache = current_cache()
    if not cache.enabled:
        return predict_both(
            db.lookup(name).bind(env),
            plat,
            num_threads=num_threads,
            calibration=calibration,
            use_runtime_tripcounts=use_runtime_tripcounts,
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
            "use_runtime_tripcounts": use_runtime_tripcounts,
        },
        plat,
        lambda: _encode_tree(
            predict_both(
                loadout.bind(env),
                plat,
                num_threads=num_threads,
                calibration=calibration,
                use_runtime_tripcounts=use_runtime_tripcounts,
            )
        ),
        validate=lambda v: isinstance(v, list) and v and v[0] == "@dc",
    )
    return _decode_tree(value, _codec_types())


def _case_by_name(mode: str, name: str) -> KernelCase:
    """The (process-local) database's case for a shipped case name."""
    _, cases = _database(mode)
    for case in cases:
        if case.name == name:
            return case
    raise KeyError(f"unknown suite case {name!r} in mode {mode!r}")


def _measure_task(task: tuple) -> tuple[float, float, float]:
    """Worker task: simulate one suite case, returning only the numbers.

    Chunks ship only case *names* and env bindings; the worker holds the
    compiled attribute database (built once per process, then warm for
    every later chunk of any sweep) and regions compare by identity, so
    the parent reattaches its own :class:`KernelCase` objects while the
    worker ships back three floats.
    """
    plat_name, mode, name, env, num_threads = task
    plat = _resolve_platform(plat_name)
    case = _case_by_name(mode, name)
    case = KernelCase(
        benchmark=case.benchmark,
        mode=case.mode,
        region=case.region,
        env=env,
        scalars=case.scalars,
    )
    m = _measure_case(case, plat, num_threads)
    return (m.cpu_seconds, m.gpu_kernel_seconds, m.gpu_transfer_seconds)


def _predict_task(task: tuple) -> SelectionPrediction:
    """Worker task: run the analytical predictor over one suite case.

    The fitted :class:`ModelCalibration` travels with the chunk (it is a
    tiny frozen dataclass): the parent fits once and every worker reuses
    it, instead of each worker process refitting per platform.
    """
    plat_name, mode, name, env, num_threads, calibration, use_rt = task
    plat = _resolve_platform(plat_name)
    db, _ = _database(mode)
    return _predict_case(db, name, env, plat, num_threads, calibration, use_rt)


def measure_suite(
    platform: Platform | str,
    mode: str,
    *,
    num_threads: int | None = None,
    jobs: int | None = None,
) -> list[KernelMeasurement]:
    """Simulate every suite kernel on both devices of a platform.

    ``jobs`` (default: ``$REPRO_JOBS``, else 1) fans case chunks over
    the persistent warm-worker pool, one chunk per worker; results
    always come back in case-declaration order and are bit-identical to
    the sequential sweep.  ``jobs`` is excluded from the memo key for
    exactly that reason.
    """
    plat = _resolve_platform(platform)
    key = (plat.name, mode, num_threads)
    if key in _MEASURE_CACHE:
        return _MEASURE_CACHE[key]
    _, cases = _database(mode)
    engine = SweepEngine(jobs)
    if engine.parallel:
        numbers = engine.map(
            _measure_task,
            [
                (plat.name, mode, case.name, dict(case.env), num_threads)
                for case in cases
            ],
            labels=[case.name for case in cases],
        )
        out = [
            KernelMeasurement(
                case=case,
                cpu_seconds=n[0],
                gpu_kernel_seconds=n[1],
                gpu_transfer_seconds=n[2],
            )
            for case, n in zip(cases, numbers)
        ]
    else:
        out = [_measure_case(case, plat, num_threads) for case in cases]
    _MEASURE_CACHE[key] = out
    return out


def predict_suite(
    platform: Platform | str,
    mode: str,
    *,
    num_threads: int | None = None,
    calibrated: bool = True,
    use_runtime_tripcounts: bool = True,
    jobs: int | None = None,
) -> list[SelectionPrediction]:
    """Run the analytical predictor over every suite kernel.

    ``jobs`` parallelizes exactly like :func:`measure_suite`:
    declaration order, bit-identical results, excluded from the memo key.
    """
    plat = _resolve_platform(platform)
    key = (plat.name, mode, num_threads, calibrated, use_runtime_tripcounts)
    if key in _PREDICT_CACHE:
        return _PREDICT_CACHE[key]
    db, cases = _database(mode)
    engine = SweepEngine(jobs)
    if engine.parallel:
        # Fit once in the parent; the tiny frozen calibration dataclass
        # ships with each chunk so no worker ever refits.
        calibration = _calibration(plat, num_threads) if calibrated else None
        out = engine.map(
            _predict_task,
            [
                (plat.name, mode, case.name, dict(case.env), num_threads,
                 calibration, use_runtime_tripcounts)
                for case in cases
            ],
            labels=[case.name for case in cases],
        )
    else:
        calibration = _calibration(plat, num_threads) if calibrated else None
        out = [
            _predict_case(
                db,
                case.name,
                case.env,
                plat,
                num_threads,
                calibration,
                use_runtime_tripcounts,
            )
            for case in cases
        ]
    _PREDICT_CACHE[key] = out
    return out
