"""The four benchmark workloads.

Each workload has a ``setup(seed, scale)`` that builds what the measured
loop needs (its ``repro`` imports count as set-up), a ``round(state,
recorder, index)`` that does one unit of measured work and times it, and
a ``report(state, rounds)`` that checks the outputs and reduces the rounds
to metrics.  Wall times are host time from ``time.perf_counter``, scaled
to the reference host speed by each round's ``speed`` (see
``hostspeed.py``); the unscaled values are reported as ``wall_*``.  Values
named ``sim_*`` are simulated time read off the program's outputs.

Inputs come only from the seed: the same seed gives the same decision
stream, the same sweep, the same trace.  The program receives only the
generated inputs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from hostspeed import factor, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "tests" / "golden" / "selection.json"

PLATFORM = "p9-v100"
#: decide: every size parameter gets an extent 2**U(6, 12)
EXTENT_LOG2 = (6.0, 12.0)
#: suite-cold: the grid every ``repro-paper table*/figure*`` sweep covers
SUITE_GRID = (
    ("p8-k80", "test"),
    ("p8-k80", "benchmark"),
    ("p9-v100", "test"),
    ("p9-v100", "benchmark"),
)
#: regions in the suite, hence cases per grid cell
SUITE_REGIONS = 24
#: service-storm: mean interarrival for about 0.6 utilization, calibrated
#: the way experiments/service.py does it: the chaos-free mean service
#: time of the seed-0 mix (2000-launch probe) is 1.8606 ms, / 0.6.
#: A constant, so every seed offers the same load.
STORM_MEAN_INTERARRIVAL_S = 3.1e-3
STORM_TENANT_WEIGHTS = (0.7, 0.2, 0.1)
#: the fault storm covers the 45-55% arrivals of the trace
STORM_WINDOW = (0.45, 0.55)
STORM_PROBABILITY = 0.75
#: a sweep child that takes longer than this has hung
CHILD_TIMEOUT_S = 90


@dataclass(frozen=True)
class Scale:
    """Workload sizes: ``full`` is the benchmark, ``quick`` a smoke run."""

    name: str
    digest_decisions: int  # decide: leading decisions pinned by the digest
    oracle_decisions: int  # decide: leading decisions checked against the simulators
    replay_launches: int
    storm_launches: int
    min_rounds: int  # suite-cold sweeps / replay repetitions per run

    def decide_blocks(self) -> int:
        """decide: rounds (blocks of one decision per region) the checks need."""
        return math.ceil(max(self.digest_decisions, self.oracle_decisions) / SUITE_REGIONS)


SCALES = {
    "full": Scale("full", 200, 300, 10_000, 5_000, 3),
    "quick": Scale("quick", 200, 40, 2_500, 1_250, 1),
}


@dataclass
class Round:
    """One unit of measured work."""

    ops: int  # decisions, suite cases or launches
    seconds: float  # wall time of the work itself
    failed: int = 0
    output: object = None
    traced: bool = False
    #: scale from this round's wall times to the reference host speed; a
    #: round that probes the host itself sets it, else the probes around it do
    speed: float | None = None
    #: suite-cold: wall time of the sweep process, spawn to exit
    process_s: float | None = None
    #: decide: wall time of each decision in the block
    latencies: list[float] = field(default_factory=list)


@dataclass
class Report:
    """The checks' verdict and the metrics a workload derives from its rounds."""

    metrics: dict  # end-to-end metric name -> value
    detail: dict  # ungated and deterministic numbers, for people and --compare
    digest: str  # hash of the outputs the reference pins
    digest_ops: int  # operations the digest covers
    problems: list[str] = field(default_factory=list)
    failed_ops: int = 0  # operations the problems invalidate
    #: (wall seconds, speed) of set-ups the rounds did themselves
    setup_samples: list[tuple[float, float]] = field(default_factory=list)


def sha256_of(rows) -> str:
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def median(values) -> float:
    """The median, or NaN when no round produced the value."""
    values = list(values)
    return statistics.median(values) if values else math.nan


class Workload:
    """Defaults shared by the workloads whose rounds are sweeps or replays."""

    #: extra set-up samples taken in child processes for ``setup_s``; with
    #: the one in this process, ``setup_s`` is the median of five
    setup_children = 4

    def min_rounds(self, scale: Scale, trace: bool) -> int:
        return 1 if trace else scale.min_rounds

    def rate(self, rounds, scaled: bool = True) -> float:
        """Median over rounds of operations per second."""
        return median(r.ops / (r.seconds * (r.speed if scaled else 1.0)) for r in rounds)

    def counters(self, state) -> dict:
        """Public (hits, lookups) counters of the workload's caches."""
        return {}


class Decide(Workload):
    """One client in a closed loop asking for CPU/GPU decisions.

    Each decision is what ``ModelGuided`` does per launch: look up the
    region's compile-time record, bind the runtime extents, evaluate the
    Liao CPU model and the Hong-Kim GPU model.  Each block of 24 decisions
    covers every suite region once, in a seeded order, and every size
    parameter is log-uniform, so nearly every decision is for a launch
    shape the runtime has not seen.
    """

    name = "decide"
    root = "decision"

    def setup(self, seed: int, scale: Scale):
        from repro import models
        from repro.analysis import ProgramAttributeDatabase
        from repro.calibrate import fit_model_calibration
        from repro.machines import platform_by_name
        from repro.polybench import SUITE

        platform = platform_by_name(PLATFORM)
        db = ProgramAttributeDatabase()
        kernels = []
        for spec in SUITE:
            params = sorted(spec.env("test"))
            for region in spec.build():
                db.compile_region(region)
                kernels.append((region.name, params))
        return SimpleNamespace(
            platform=platform,
            db=db,
            kernels=kernels,
            calibration=fit_model_calibration(platform),
            # looked up per call, so a traced run reaches the wrapper
            models=models,
            rng=random.Random(f"perfbench/decide/{seed}"),
            scale=scale,
        )

    def min_rounds(self, scale: Scale, trace: bool) -> int:
        return scale.decide_blocks()

    def rate(self, rounds, scaled: bool = True) -> float:
        """Decisions over the summed decision time (a run has hundreds of blocks)."""
        seconds = sum(r.seconds * (r.speed if scaled else 1.0) for r in rounds)
        return sum(r.ops for r in rounds) / seconds if rounds else math.nan

    def _decide(self, state, name, env):
        bound = state.db.lookup(name).bind(env)
        return state.models.predict_both(bound, state.platform, calibration=state.calibration)

    def round(self, state, recorder, index: int) -> Round:
        """One block: every region once, in a seeded order.

        The kernel mix, which sets most of a decision's cost, then varies
        neither between seeds nor with the run's length.
        """
        rng = state.rng
        order = list(state.kernels)
        rng.shuffle(order)
        block = Round(0, 0.0, output=[])
        while order:
            name, params = order.pop()
            lo, hi = EXTENT_LOG2
            env = {p: round(2.0 ** rng.uniform(lo, hi)) for p in params}
            request = index * len(state.kernels) + block.ops
            scope = recorder.root(self.root, request) if recorder else nullcontext()
            start = perf_counter()
            try:
                with scope:
                    pred = self._decide(state, name, env)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                pred = None
            seconds = perf_counter() - start
            block.ops += 1
            block.seconds += seconds
            block.latencies.append(seconds)
            if pred is None:
                block.failed += 1
                block.output.append((name, env, None, None, None))
                continue
            cpu_s, gpu_s = pred.cpu.seconds, pred.gpu.seconds
            ok = pred.winner in ("cpu", "gpu") and _finite(cpu_s, gpu_s) and cpu_s > 0 < gpu_s
            block.failed += 0 if ok else 1
            block.output.append((name, env, pred.winner, cpu_s, gpu_s))
        return block

    def report(self, state, rounds) -> Report:
        from repro.sim import simulate_cpu, simulate_gpu_kernel, simulate_transfers

        scale = state.scale
        outputs = [o for r in rounds for o in r.output]
        digest = sha256_of(
            [[name, sorted(env.items()), winner, cpu_s, gpu_s]
             for name, env, winner, cpu_s, gpu_s in outputs[: scale.digest_decisions]]
        )
        # oracle: the simulators stand in for the hardware
        plat = state.platform
        correct, chosen_sim = 0, []
        sample = [o for o in outputs[: scale.oracle_decisions] if o[2] is not None]
        for name, env, winner, _, _ in sample:
            region = state.db.lookup(name).region
            cpu = simulate_cpu(region, plat.host, env).seconds
            gpu = (simulate_gpu_kernel(region, plat.gpu, env).seconds
                   + simulate_transfers(region, plat.bus, env).total_seconds)
            correct += winner == ("gpu" if gpu < cpu else "cpu")
            chosen_sim.append(gpu if winner == "gpu" else cpu)
        untraced = [r for r in rounds if not r.traced]
        latencies = [s * r.speed for r in untraced for s in r.latencies]
        problems = []
        if not sample:
            problems.append("no decision succeeded")
        return Report(
            metrics={
                "ops_per_s": self.rate(untraced),
                "latency_p50_ms": median(latencies) * 1e3,
                "accuracy": correct / max(len(sample), 1),
            },
            detail={
                "latency_p99_ms": nearest_rank(latencies, 0.99) * 1e3 if latencies else None,
                "latency_samples": len(latencies),
                "wall_ops_per_s": self.rate(untraced, scaled=False),
                "wall_latency_p50_ms": median(s for r in untraced for s in r.latencies) * 1e3,
                "oracle_sample": len(sample),
                "sim_completion_p99_ms": (
                    nearest_rank(chosen_sim, 0.99) * 1e3 if chosen_sim else None
                ),
            },
            digest=digest,
            digest_ops=min(len(outputs), scale.digest_decisions),
            problems=problems,
        )


class SuiteCold(Workload):
    """Artefact regeneration: one suite sweep per fresh process.

    Every ``repro-paper table*/figure*`` invocation pays this: import,
    compile the suite, simulate and predict 96 cases over both platforms
    and both datasets, sequentially and without the persistent analysis
    cache.  Sweeps run one at a time.
    """

    name = "suite-cold"
    root = "sweep"
    setup_children = 0

    def setup(self, seed: int, scale: Scale):
        # the sweep has no random draws; the seed only names the run
        return SimpleNamespace(seed=seed, scale=scale)

    def round(self, state, recorder, index: int) -> Round:
        cmd = [sys.executable, str(HERE / "bench_layers.py"), "--child", "sweep"]
        if recorder is not None:
            cmd += ["--trace", "1"]
        start = perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        latency = perf_counter() - start
        cases = len(SUITE_GRID) * SUITE_REGIONS
        if proc is None or proc.returncode != 0:
            sys.stderr.write(proc.stderr if proc else "sweep process timed out\n")
            return Round(cases, latency, failed=cases, process_s=latency)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if recorder is not None:
            recorder.merge(result.pop("trace"), request=index)
        return Round(result["cases"], result["sweep_s"], failed=result["failed"],
                     output=result, process_s=latency, speed=result["speed"])

    def report(self, state, rounds) -> Report:
        done = [r.output for r in rounds if r.output is not None]
        problems = []
        if len(done) < len(rounds):
            problems.append(f"{len(rounds) - len(done)} sweep process(es) failed")
        if not done:
            return Report({}, {}, "", 0, problems + ["no sweep completed"])
        digests = {o["digest"] for o in done}
        if len(digests) > 1:
            problems.append("sweeps of one run disagree")
        golden = json.loads(GOLDEN.read_text())
        first = done[0]
        mismatched = sorted(
            name
            for name, (chosen, cpu_s, gpu_s) in first["golden"].items()
            if name not in golden
            or golden[name]["chosen"] != chosen
            or not math.isclose(golden[name]["pred_cpu_s"], cpu_s, rel_tol=1e-9)
            or not math.isclose(golden[name]["pred_gpu_s"], gpu_s, rel_tol=1e-9)
        )
        if mismatched or sorted(golden) != sorted(first["golden"]):
            problems.append(
                f"p9-v100/benchmark predictions differ from tests/golden/selection.json: "
                f"{mismatched or 'region set'}"
            )
        untraced = [r for r in rounds if not r.traced and r.output is not None]
        return Report(
            metrics={
                "ops_per_s": self.rate(untraced),
                "latency_p50_ms": median(r.process_s * r.speed for r in untraced) * 1e3,
                "accuracy": first["correct"] / first["cases"],
                "peak_rss_mb": median(o["rss_mb"] for o in done),
            },
            detail={
                "sweeps": len(rounds),
                "wall_ops_per_s": self.rate(untraced, scaled=False),
                "wall_latency_p50_ms": median(r.process_s for r in untraced) * 1e3,
                "sim_completion_p99_ms": nearest_rank(first["chosen_sim_s"], 0.99) * 1e3,
            },
            digest=first["digest"],
            digest_ops=sum(r.ops for r in rounds),
            problems=problems,
            failed_ops=len(mismatched) * len(rounds),
            setup_samples=[(o["setup_s"], o["setup_speed"]) for o in done],
        )


def sweep_child(trace: bool) -> dict:
    """One suite-cold sweep; runs in its own process (``--child sweep``).

    The host is probed before and after the import and after each grid
    cell (a quarter of the sweep), so the sweep's speed follows the host
    more closely than probes around the whole process would.
    """
    before = probe()
    start = perf_counter()
    from repro.experiments import measure_suite, predict_suite

    setup_s = perf_counter() - start
    after = probe()
    setup_speed = factor(before, after)
    recorder = remove = None
    if trace:
        from spans import Recorder, install

        recorder = Recorder(max_spans=20_000)
        remove = install(recorder)
    results, sweep_s, scaled_s = [], 0.0, 0.0
    for plat, mode in SUITE_GRID:
        before = after
        start = perf_counter()
        with recorder.root(SuiteCold.root, 0) if recorder else nullcontext():
            results.append((plat, mode, measure_suite(plat, mode, jobs=1),
                            predict_suite(plat, mode, jobs=1)))
        seconds = perf_counter() - start
        after = probe()
        sweep_s += seconds
        scaled_s += seconds * factor(before, after)
    if remove is not None:
        remove()
    rows, chosen_sim, golden = [], [], {}
    failed = correct = 0
    for plat, mode, measured, predicted in results:
        for m, p in zip(measured, predicted, strict=True):
            values = (m.cpu_seconds, m.gpu_kernel_seconds, m.gpu_transfer_seconds,
                      p.cpu.seconds, p.gpu.seconds)
            if not (_finite(*values) and min(values) >= 0):
                failed += 1
            rows.append([plat, mode, m.case.name, *values, p.winner])
            correct += p.winner == ("gpu" if m.gpu_seconds < m.cpu_seconds else "cpu")
            chosen_sim.append(m.gpu_seconds if p.winner == "gpu" else m.cpu_seconds)
            if (plat, mode) == ("p9-v100", "benchmark"):
                golden[m.case.name] = (p.winner, p.cpu.seconds, p.gpu.seconds)
    return {
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "sweep_s": sweep_s,
        "speed": scaled_s / sweep_s,
        "cases": len(rows),
        "failed": failed,
        "correct": correct,
        "chosen_sim_s": chosen_sim,
        "golden": golden,
        "digest": sha256_of(rows),
        "rss_mb": rss_mb(),
        "trace": recorder.export() if recorder else None,
    }


class Replay(Workload):
    """A seeded trace replayed through the memoized runtime, repeatedly.

    The ExecutionMemo and MemoizedPolicy are warmed in set-up with one
    launch per catalog case, so the timed ``run()`` + ``score_run`` is the
    dispatch / admission / scoring path alone; the models and simulators
    run only in set-up.  Each repetition builds a fresh engine (fresh
    runtime, clock and sentinel) over the shared memo, policy and
    compiled database, so every repetition must produce the same outcomes.
    """

    root = "replay"

    def __init__(self, name: str, storm: bool):
        self.name = name
        self.storm = storm

    def setup(self, seed: int, scale: Scale):
        from repro import replay
        from repro.machines import platform_by_name
        from repro.replay import (
            ChaosSchedule,
            ChaosWindow,
            MemoizedPolicy,
            ReplayConfig,
            ReplayEngine,
            WorkloadConfig,
            build_catalog,
            generate_requests,
        )
        from repro.runtime import ExecutionMemo

        platform = platform_by_name(PLATFORM)
        if self.storm:
            workload = WorkloadConfig(
                launches=scale.storm_launches,
                seed=seed,
                mean_interarrival_s=STORM_MEAN_INTERARRIVAL_S,
                tenants=len(STORM_TENANT_WEIGHTS),
                tenant_weights=STORM_TENANT_WEIGHTS,
            )
        else:
            workload = WorkloadConfig(launches=scale.replay_launches, seed=seed)
        requests = generate_requests(workload)
        chaos, margin = ChaosSchedule(), 0.0
        if self.storm:
            n = len(requests)
            start = requests[int(STORM_WINDOW[0] * n)].arrival_s
            stop = requests[int(STORM_WINDOW[1] * n)].arrival_s
            window = ChaosWindow(name="storm", kind="fault-storm", start_s=start,
                                 stop_s=stop, probability=STORM_PROBABILITY)
            chaos, margin = ChaosSchedule(windows=(window,), seed=seed), stop - start
        memo, policy = ExecutionMemo(), MemoizedPolicy()
        warm = ReplayEngine(ReplayConfig(platform), policy=policy, memo=memo)
        cases, regions = build_catalog(workload.sizes)
        for region in regions.values():
            warm.runtime.compile_region(region)
        for case in cases:
            warm.runtime.launch(case.region_name, case.env_dict())
        return SimpleNamespace(
            config=ReplayConfig(platform, workload=workload, chaos=chaos, service=self.storm),
            requests=requests,
            margin=margin,
            memo=memo,
            policy=policy,
            db=warm.runtime.db,
            # looked up per call, so a traced run reaches the wrappers
            replay=replay,
        )

    def counters(self, state) -> dict:
        memo, policy = state.memo, state.policy
        return {
            "runtime.memo": (memo.hits, memo.hits + memo.misses),
            "replay.policy_memo": (policy.hits, policy.hits + policy.misses),
        }

    def round(self, state, recorder, index: int) -> Round:
        engine = state.replay.ReplayEngine(state.config, policy=state.policy, memo=state.memo,
                                  db=state.db)
        n = len(state.requests)
        # the previous repetition's garbage must not be collected on this one's clock
        gc.collect()
        scope = recorder.root(self.root, index) if recorder else nullcontext()
        start = perf_counter()
        try:
            with scope:
                run = engine.run(requests=state.requests)
                score = state.replay.score_run(run, recovery_margin_s=state.margin)
        except Exception:
            seconds = perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            return Round(n, seconds, failed=n, output=None)
        seconds = perf_counter() - start
        checked = self._check(run, score, n)
        return Round(n, seconds, failed=checked["failed"], output=checked)

    @staticmethod
    def _check(run, score, n: int) -> dict:
        """Invariants on one run: one outcome per request, finite results."""
        problems, failed = [], 0
        if [o.index for o in run.outcomes] != list(range(n)):
            problems.append("requests without exactly one outcome")
        h = hashlib.sha256()
        for o in run.outcomes:
            rec = o.record
            if rec is None:
                # shed and expired requests never ran
                failed += 1
                h.update(repr((o.index, o.outcome)).encode())
                continue
            if not _finite(rec.executed_seconds, o.start_s) or (
                o.finish_s is not None and not math.isfinite(o.finish_s)
            ):
                failed += 1
            h.update(repr((o.index, o.outcome, o.start_s, o.finish_s, rec.target,
                           rec.executed_seconds, rec.fallback, len(rec.fault_events),
                           rec.tenant)).encode())
        h.update(json.dumps(score.to_payload(), sort_keys=True).encode())
        if not _finite(score.steady_accuracy, score.completion_p99_s):
            problems.append("non-finite score")
        return {
            "digest": h.hexdigest(),
            "failed": failed,
            "problems": problems,
            "steady_accuracy": score.steady_accuracy,
            "completion_p99_s": score.completion_p99_s,
            "fallbacks": score.fallbacks,
            "fault_events": score.fault_events,
        }

    def report(self, state, rounds) -> Report:
        done = [r.output for r in rounds if r.output is not None]
        problems = sorted({p for o in done for p in o["problems"]})
        if len(done) < len(rounds):
            problems.append(f"{len(rounds) - len(done)} replay(s) raised")
        if not done:
            return Report({}, {}, "", 0, problems)
        if len({o["digest"] for o in done}) > 1:
            problems.append("repetitions of one trace disagree")
        first = done[0]
        untraced = [r for r in rounds if not r.traced and r.output is not None]
        return Report(
            metrics={
                "ops_per_s": self.rate(untraced),
                "latency_p50_ms": median(r.seconds * r.speed for r in untraced) * 1e3,
                "accuracy": first["steady_accuracy"],
            },
            detail={
                "repetitions": len(rounds),
                "launches": len(state.requests),
                "wall_ops_per_s": self.rate(untraced, scaled=False),
                "wall_latency_p50_ms": median(r.seconds for r in untraced) * 1e3,
                "sim_completion_p99_ms": first["completion_p99_s"] * 1e3,
                "fallbacks": first["fallbacks"],
                "fault_events": first["fault_events"],
            },
            digest=first["digest"],
            digest_ops=sum(r.ops for r in rounds),
            problems=problems,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Decide(),
        SuiteCold(),
        Replay("replay-steady", storm=False),
        Replay("service-storm", storm=True),
    )
}
