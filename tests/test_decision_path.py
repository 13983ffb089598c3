"""The runtime decision path does per-launch work only.

The compiled record (``RegionAttributes``) keeps every product that
depends on the region alone: the IPDA result, the trip plan and the
loadout's monomials, the reduction count, the access groups and, per
host CPU, the lowered loop nest.  ``bind``, ``predict_both`` and the
simulators take the record whole and only evaluate.  These tests pin
that the shortcuts change no number (against a direct walk of the IR
too), that the lowering memo tells apart same-name CPU descriptors, that
a cold suite sweep runs each static analysis once per compiled region
and rebuilds no region product per case, and that a fresh process
imports only the layers its entry point runs.
"""

import collections
import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    PAPER_BRANCH_PROBABILITY,
    PAPER_LOOP_TRIPS,
    AccessWeight,
    InstructionLoadout,
    ProgramAttributeDatabase,
    TripPlan,
    extract_loadout,
    nest_trips,
    paper_trip_abstraction,
)
from repro.calibrate.kernels import build_dot_rows, build_triad
from repro.experiments import run_crossgen
from repro.experiments.common import (
    _database,
    clear_caches,
    measure_suite,
    predict_suite,
)
from repro.ipda import analyze_region
from repro.ir import (
    Bin,
    Cmp,
    ConstV,
    If,
    Load,
    LocalAssign,
    LocalDef,
    LocalRef,
    Loop,
    ReduceStore,
    ScalarArg,
    Select,
    Store,
    Un,
    count_reductions,
    region_to_text,
)
from repro.ir.dataflow import analyze_transfers
from repro.ir.nodes import Array
from repro.machines import PLATFORM_P8_K80, PLATFORM_P9_V100, POWER9
from repro.mca import find_band_level, lower_region, vectorized_access_indices
from repro.models import predict_both, predict_cpu_time
from repro.polybench import MODES, SUITE, benchmark_by_name
from repro.sim import simulate_cpu, simulate_gpu_kernel
from repro.ir.region import evaluate_transfer_bytes
from repro.symbolic import EvalError, Expr

from .kernels import build_guarded, build_triangular

PLATFORMS = (PLATFORM_P8_K80, PLATFORM_P9_V100)
SRC = Path(__file__).resolve().parent.parent / "src"

#: what the benchmark workloads import before their first operation
SWEEP_IMPORTS = "from repro.experiments import measure_suite, predict_suite\n"
DECIDE_IMPORTS = """\
from repro import models
from repro.analysis import ProgramAttributeDatabase
from repro.calibrate import fit_model_calibration
from repro.machines import platform_by_name
from repro.polybench import SUITE
"""
REPLAY_IMPORTS = """\
from repro.machines import platform_by_name
from repro.replay import MemoizedPolicy, ReplayConfig, ReplayEngine, generate_requests
from repro.runtime import ExecutionMemo
"""
#: every name each of those packages exports, every experiment's included
EVERYTHING_IMPORTS = "".join(
    f"from repro.{package} import *\n"
    for package in (
        "models", "analysis", "calibrate", "polybench", "replay", "runtime", "experiments"
    )
)
#: every experiment module but the suite sweep's own
OTHER_EXPERIMENTS = tuple(
    f"repro.experiments.{path.stem}"
    for path in sorted((SRC / "repro" / "experiments").glob("*.py"))
    if path.stem not in ("__init__", "common")
)
#: what neither a cold sweep nor a decision runs: numpy costs ~14 MB of
#: RSS and only the functional executor needs it; the rest are the other
#: experiments, the replay stack, the process pool, the analyses only
#: a report or a probe command renders, and the IR parser, block-size
#: tuning and sign lattice that only tests and the lint passes use
UNUSED_BY_SWEEPS = (
    "numpy",
    "multiprocessing",
    "concurrent.futures.process",
    *OTHER_EXPERIMENTS,
    "repro.replay",
    "repro.runtime",
    "repro.obs.export",
    "repro.calibrate.epcc",
    "repro.calibrate.tlb",
    "repro.calibrate.gpu_microbench",
    "repro.mca.report",
    "repro.mca.timeline",
    "repro.models.split",
    "repro.ir.parser",
    "repro.codegen.tuning",
    "repro.symbolic.signs",
)
#: a decision reads no persistent cache, so it loads no sweep engine
UNUSED_BY_DECISIONS = (*UNUSED_BY_SWEEPS, "repro.parallel")
UNUSED_BY_REPLAYS = tuple(
    m for m in UNUSED_BY_DECISIONS if m not in ("repro.replay", "repro.runtime")
)


def _environments(spec, rng):
    """The test and benchmark datasets plus one odd-sized launch shape."""
    odd = {p: round(2.0 ** rng.uniform(6, 12)) for p in spec.env("test")}
    return (spec.env("test"), spec.env("benchmark"), odd)


def _records():
    db = ProgramAttributeDatabase()
    rng = random.Random(13)
    for spec in SUITE:
        for region in spec.build():
            yield db.compile_region(region), _environments(spec, rng)


#: the calibration fit's two microkernels at the sizes it simulates them
CALIBRATION_CASES = (
    (build_triad, {"n": 1 << 22}),
    (build_dot_rows, {"n": 4096, "m": 4096}),
)


def _simulated_cases():
    """Each suite region at both datasets, then the calibration kernels."""
    db = ProgramAttributeDatabase()
    for spec in SUITE:
        for region in spec.build():
            attrs = db.compile_region(region)
            for mode in MODES:
                yield attrs, spec.env(mode)
    for build, env in CALIBRATION_CASES:
        yield db.compile_region(build()), env


def _ops(level):
    yield from level.leaf_ops
    for sub in level.sub_loops:
        yield from _ops(sub)
    for then_lv, else_lv in level.sub_branches:
        yield from _ops(then_lv)
        yield from _ops(else_lv)


class TestLoweringMemo:
    def test_predict_both_equals_from_scratch_prediction(self):
        checked = 0
        for attrs, envs in _records():
            for platform in PLATFORMS:
                for env in envs:
                    bound = attrs.bind(env)
                    fresh = predict_cpu_time(
                        attrs.region,
                        bound.loadout,
                        bound.parallel_iterations,
                        platform.host,
                        env=dict(env),
                    )
                    assert predict_both(bound, platform).cpu == fresh, (
                        attrs.region.name,
                        platform.name,
                    )
                    checked += 1
        assert checked == 24 * 2 * 3

    def test_same_name_descriptors_get_their_own_lowering(self):
        no_fma = dataclasses.replace(POWER9, has_fma=False)
        assert no_fma.name == POWER9.name and no_fma != POWER9
        attrs = ProgramAttributeDatabase().compile_region(
            benchmark_by_name("gemm").build()[0]
        )
        fused = attrs.band_level(POWER9)
        unfused = attrs.band_level(no_fma)
        assert any(op.opcode in ("fma", "vfma") for op in _ops(fused))
        assert not any(op.opcode in ("fma", "vfma") for op in _ops(unfused))
        # each descriptor keeps its own level on later launches
        assert attrs.band_level(POWER9) is fused
        assert attrs.band_level(no_fma) is unfused

        env = benchmark_by_name("gemm").env("test")
        bound = attrs.bind(env)
        for host in (POWER9, no_fma, POWER9):
            platform = dataclasses.replace(PLATFORM_P9_V100, host=host)
            fresh = predict_cpu_time(
                attrs.region,
                bound.loadout,
                bound.parallel_iterations,
                host,
                env=dict(env),
            )
            assert predict_both(bound, platform).cpu == fresh
            # the simulator prices the same per-descriptor tree
            assert find_band_level(attrs.lowered(host)) is attrs.band_level(host)
            assert simulate_cpu(attrs, host, env) == simulate_cpu(
                attrs.region, host, env
            )
        assert attrs.lowered(POWER9) is not attrs.lowered(no_fma)

    def test_memo_is_not_part_of_record_identity(self):
        attrs = ProgramAttributeDatabase().compile_region(
            benchmark_by_name("gemm").build()[0]
        )
        before = repr(attrs)
        twin = dataclasses.replace(attrs)
        attrs.band_level(POWER9)
        assert repr(attrs) == before
        assert attrs == twin


class TestSimulatorsOnTheRecord:
    def test_simulators_on_the_record_equal_from_scratch(self):
        checked = 0
        for attrs, env in _simulated_cases():
            for platform in PLATFORMS:
                host, gpu = platform.host, platform.gpu
                where = (attrs.region.name, platform.name, env)
                assert simulate_cpu(attrs, host, env) == simulate_cpu(
                    attrs.region, host, env
                ), where
                assert simulate_gpu_kernel(attrs, gpu, env) == (
                    simulate_gpu_kernel(attrs.region, gpu, env)
                ), where
                checked += 1
        assert checked == (24 * len(MODES) + len(CALIBRATION_CASES)) * 2

    @staticmethod
    def _static_analyses(run) -> collections.Counter:
        """IPDA and lowering calls made by ``run()`` from cold caches."""
        watched = {
            analyze_region.__code__: "analyze_region",
            lower_region.__code__: "lower_region",
        }
        calls = collections.Counter()

        def count(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                calls[watched[frame.f_code]] += 1

        clear_caches()
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            run()
        finally:
            sys.setprofile(previous)
            clear_caches()
        return calls

    def test_cold_sweep_runs_each_static_analysis_once_per_region(self):
        def sweep():
            for platform in PLATFORMS:
                for mode in MODES:
                    measure_suite(platform, mode, jobs=1)
                    predict_suite(platform, mode, jobs=1)

        calls = self._static_analyses(sweep)
        # the 24 suite regions once, plus each platform's calibration fit
        # compiling its two kernels; lowered once per region and host CPU
        fits = len(PLATFORMS) * len(CALIBRATION_CASES)
        assert calls == {
            "analyze_region": 24 + fits,
            "lower_region": 24 * len(PLATFORMS) + fits,
        }

    def test_cold_crossgen_runs_each_static_analysis_once_per_region(self):
        calls = self._static_analyses(lambda: run_crossgen("test"))
        # the three generations share one POWER9 host
        assert calls == {"analyze_region": 24, "lower_region": 24}

    def test_both_datasets_share_one_compiled_region_per_kernel(self):
        for spec in SUITE:
            test, bench = spec.kernels("test"), spec.kernels("benchmark")
            assert [region_to_text(c.region) for c in test] == [
                region_to_text(c.region) for c in bench
            ], spec.name
        db, test_cases = _database("test")
        bench_db, bench_cases = _database("benchmark")
        assert bench_db is db and len(db) == 24
        assert [c.name for c in bench_cases] == [c.name for c in test_cases]
        for t, b in zip(test_cases, bench_cases):
            assert (t.mode, b.mode) == ("test", "benchmark")
            assert t.region is b.region is db.lookup(t.name).region


class TestDecisionWork:
    def test_predict_both_runs_no_ipda(self, monkeypatch):
        import repro.models.cpu_model as cpu_model

        spec = benchmark_by_name("atax")
        attrs = ProgramAttributeDatabase().compile_region(spec.build()[0])
        bound = attrs.bind(spec.env("test"))

        def forbidden(region):
            raise AssertionError("IPDA re-run at decision time")

        monkeypatch.setattr(cpu_model, "analyze_region", forbidden)
        assert predict_both(bound, PLATFORM_P9_V100).cpu.seconds > 0

    def test_simulate_cpu_runs_ipda_once(self, monkeypatch):
        import repro.sim.cpu_sim as cpu_sim

        calls = []
        original = cpu_sim.analyze_region

        def counting(region):
            calls.append(region.name)
            return original(region)

        monkeypatch.setattr(cpu_sim, "analyze_region", counting)
        spec = benchmark_by_name("gemm")
        simulate_cpu(spec.build()[0], POWER9, spec.env("test"))
        assert len(calls) == 1


# -- the algorithms the compiled products replace, as direct IR walks ---------


def _walked_trips(region, env, default=None):
    """Nest-aware trips by walking the nest, binding enclosing midpoints."""
    table: list[tuple[Loop, float]] = []

    def walk(stmts, mids):
        for s in stmts:
            if isinstance(s, Loop):
                bindings = {**env, **mids}
                try:
                    trips = max(0.0, float(s.count.evaluate(bindings)))
                    mid = float(s.start.evaluate(bindings)) + trips / 2.0
                except EvalError:
                    if default is None:
                        raise
                    trips = float(default)
                    mid = float(default) / 2.0
                table.append((s, trips))
                walk(s.body, {**mids, s.var.name: mid})
            elif isinstance(s, If):
                walk(s.then_body, mids)
                walk(s.else_body, mids)

    walk(region.body, {})
    return lambda loop: next(t for lp, t in table if lp is loop)


def _walked_loadout(region, trip_of, p=PAPER_BRANCH_PROBABILITY):
    """The per-work-item loadout, counted by walking below the band."""
    n = collections.defaultdict(float)
    weights: list[AccessWeight] = []

    def access(array, is_store, mult):
        weights.append(
            AccessWeight(len(weights), array.name, is_store, mult, array.dtype.size)
        )

    def value(v, mult):
        if isinstance(v, (ConstV, ScalarArg, LocalRef)):
            return
        if isinstance(v, Load):
            n["loads"] += mult
            access(v.array, False, mult)
            n["int"] += mult
        elif isinstance(v, (Bin, Un)):
            for child in v.children():
                value(child, mult)
            n["sfu" if v.op in ("div", "sqrt", "exp") else "fp"] += mult
        elif isinstance(v, Cmp):
            value(v.lhs, mult)
            value(v.rhs, mult)
            n["int"] += mult
        else:
            assert isinstance(v, Select)
            for child in v.children():
                value(child, mult)
            n["fp"] += mult

    def stmts(body, mult):
        for s in body:
            if isinstance(s, Loop):
                trips = trip_of(s)
                n["int"] += 2 * trips * mult
                n["branches"] += trips * mult
                stmts(s.body, mult * trips)
            elif isinstance(s, If):
                value(s.cond, mult)
                n["branches"] += mult
                stmts(s.then_body, mult * p)
                stmts(s.else_body, mult * (1.0 - p))
            elif isinstance(s, Store):
                value(s.value, mult)
                n["stores"] += mult
                n["int"] += mult
                if isinstance(s, ReduceStore):
                    n["fp"] += mult
                access(s.array, True, mult)
            elif isinstance(s, LocalDef):
                value(s.init, mult)
            else:
                assert isinstance(s, LocalAssign)
                value(s.value, mult)

    stmts(region.parallel_band()[-1].body, 1.0)
    return InstructionLoadout(
        region_name=region.name,
        fp_insts=n["fp"],
        int_insts=n["int"],
        sfu_insts=n["sfu"],
        load_insts=n["loads"],
        store_insts=n["stores"],
        access_weights=tuple(weights),
        branch_insts=n["branches"],
    )


#: the fixtures beyond the suite: a triangular nest, and guarded work in
#: one (if/else, a loop two midpoints deep, every op class)
FIXTURE_CASES = (
    (build_triangular, {"n": 300, "m": 700}),
    (build_guarded, {"n": 500, "m": 900}),
)


def _product_cases():
    """The 24 suite regions at both datasets, then the two fixtures."""
    db = ProgramAttributeDatabase()
    for spec in SUITE:
        for region in spec.build():
            attrs = db.compile_region(region)
            for mode in MODES:
                yield attrs, spec.env(mode)
    for build, env in FIXTURE_CASES:
        yield db.compile_region(build()), env


def _assert_products_match(attrs, env):
    """The record's trips and loadouts equal the direct walks, bit for bit."""
    region = attrs.region
    for default in (None, PAPER_LOOP_TRIPS):
        compiled = attrs.trip_plan.trips(env, default=default)
        walked = _walked_trips(region, env, default)
        for loop in attrs.trip_plan.loops:
            assert compiled(loop) == walked(loop), (region.name, default)
        assert attrs.loadout_plan.evaluate(compiled) == _walked_loadout(
            region, walked
        ), (region.name, default)
    loadout = attrs.bind(env).loadout
    assert loadout == extract_loadout(
        region, nest_trips(region, env, default=PAPER_LOOP_TRIPS)
    )
    assert loadout == _walked_loadout(
        region, _walked_trips(region, env, PAPER_LOOP_TRIPS)
    )
    assert attrs.static_loadout == _walked_loadout(region, paper_trip_abstraction)


def _assert_prices_match(attrs, env):
    """Record-priced simulations and predictions equal from-scratch ones."""
    fresh = ProgramAttributeDatabase().compile_region(attrs.region)
    for platform in PLATFORMS:
        where = (attrs.region.name, platform.name, env)
        host, gpu = platform.host, platform.gpu
        assert simulate_cpu(attrs, host, env) == simulate_cpu(
            attrs.region, host, env
        ), where
        assert simulate_gpu_kernel(attrs, gpu, env) == simulate_gpu_kernel(
            attrs.region, gpu, env
        ), where
        assert predict_both(attrs.bind(env), platform) == predict_both(
            fresh.bind(env), platform
        ), where


class TestCompiledProducts:
    def test_products_equal_the_direct_walks(self):
        checked = 0
        for attrs, env in _product_cases():
            _assert_products_match(attrs, env)
            checked += 1
        assert checked == 24 * len(MODES) + len(FIXTURE_CASES)

    def test_record_prices_equal_from_scratch(self):
        checked = 0
        for attrs, env in _product_cases():
            _assert_prices_match(attrs, env)
            checked += 1
        assert checked == 24 * len(MODES) + len(FIXTURE_CASES)

    @settings(max_examples=25, deadline=None)
    @given(
        build=st.sampled_from(
            (
                build_triangular,
                build_guarded,
                lambda: benchmark_by_name("gemm").build()[0],
                lambda: benchmark_by_name("covar").build()[-1],
            )
        ),
        extents=st.lists(st.integers(2, 4096), min_size=3, max_size=3),
    )
    def test_random_extents(self, build, extents):
        attrs = ProgramAttributeDatabase().compile_region(build())
        env = dict(zip(sorted(attrs.required_symbols), extents))
        _assert_products_match(attrs, env)
        _assert_prices_match(attrs, env)


class TestPerCaseWork:
    def test_cold_sweep_rebuilds_no_region_product(self):
        """A cold four-cell sweep compiles each product once per region.

        ``analyze_transfers`` never runs (declared transfers read no
        dataflow); the trip walk, the loadout walk and the reduction count
        run at most once per region object, and each array builds its
        element-count product at most once.  The vector-access walk runs
        once per lowered tree, and transfer sizing never walks an
        expression's symbols (it evaluates, and walks only to name an
        unbound symbol in an error).
        """
        per_region = {
            analyze_transfers.__code__: "analyze_transfers",
            nest_trips.__code__: "nest_trips",
            extract_loadout.__code__: "extract_loadout",
            count_reductions.__code__: "count_reductions",
            TripPlan.of.__func__.__code__: "TripPlan.of",
        }
        element_count = Array.__dict__["_element_count"].func.__code__
        walk = vectorized_access_indices.__code__
        lower = lower_region.__code__
        free_symbols = Expr.free_symbols.__code__
        sizing = evaluate_transfer_bytes.__code__
        seen: dict[str, list] = collections.defaultdict(list)
        lowerings = 0

        def watch(frame, event, arg):
            nonlocal lowerings
            if event != "call":
                return
            code = frame.f_code
            if code in per_region:
                seen[per_region[code]].append(frame.f_locals["region"])
            elif code is element_count:
                seen["element_count"].append(frame.f_locals["self"])
            elif code is walk:
                seen["vectorized_access_indices"].append(frame.f_locals["root"])
            elif code is lower:
                lowerings += 1
            elif code is free_symbols and frame.f_back.f_code is sizing:
                seen["transfer free_symbols"].append(frame.f_locals["self"])

        clear_caches()
        previous = sys.getprofile()
        sys.setprofile(watch)
        try:
            for platform in PLATFORMS:
                for mode in MODES:
                    measure_suite(platform, mode, jobs=1)
                    predict_suite(platform, mode, jobs=1)
        finally:
            sys.setprofile(previous)
            clear_caches()
        assert "analyze_transfers" not in seen
        assert "transfer free_symbols" not in seen
        # 24 suite regions, plus each platform's calibration fit
        fits = len(PLATFORMS) * len(CALIBRATION_CASES)
        assert len(seen["TripPlan.of"]) == 24 + fits
        # one walk per lowered tree (each tree object walked once, below)
        assert 0 < len(seen["vectorized_access_indices"]) <= lowerings
        for name, objects in seen.items():
            repeats = collections.Counter(map(id, objects))
            assert max(repeats.values()) == 1, name


def _fresh_imports(code: str) -> set[str]:
    """Every module a fresh interpreter holds after running ``code``."""
    code += "import sys\nprint('\\n'.join(sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "code, loads, unused",
    [
        pytest.param(
            SWEEP_IMPORTS, ("repro.experiments.common", "repro.parallel"), UNUSED_BY_SWEEPS, id="sweep"
        ),
        pytest.param(DECIDE_IMPORTS, ("repro.models.selector",), UNUSED_BY_DECISIONS, id="decide"),
        pytest.param(REPLAY_IMPORTS, ("repro.replay.engine",), UNUSED_BY_REPLAYS, id="replay"),
        pytest.param(EVERYTHING_IMPORTS, OTHER_EXPERIMENTS, ("numpy",), id="all-experiments"),
    ],
)
def test_entry_point_imports(code, loads, unused):
    """A fresh process imports what its entry point runs and nothing else listed."""
    modules = _fresh_imports(code)
    assert set(loads) <= modules, sorted(set(loads) - modules)
    extra = sorted(m for m in modules if any(m == u or m.startswith(u + ".") for u in unused))
    assert not extra, f"imported {extra}"
