"""Deterministic traffic-scale workload generation.

The replay harness drives the runtimes with *production-shaped* traffic
rather than the experiments' uniform sweeps: kernel popularity follows a
Zipf law over the Polybench suite (a few hot kernels dominate, a long
tail trickles), dataset sizes are drawn from a mixed envelope (mostly
small interactive launches, occasional large batch ones), and arrivals
are bursty — a two-state modulated Poisson process on the simulated
clock that alternates calm stretches with arrival storms.

Everything is seeded and **stream-isolated**: each random purpose
(kernel popularity, dataset size, inter-arrival times, burst phase
switching) draws from its own :func:`~repro.util.derive_rng` substream,
so attaching a chaos schedule — or adding a new draw purpose — never
reshuffles the requests an existing configuration generates.  The
request sequence depends only on :class:`WorkloadConfig`, never on what
execution does with it, which is what lets the same trace be replayed
through arbitrarily different runtime configurations (the differential
tests rely on this).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from ..ir import Region
from ..polybench import SUITE
from ..util import derive_rng

__all__ = [
    "CaseSpec",
    "LaunchRequest",
    "WorkloadConfig",
    "build_catalog",
    "generate_requests",
]

#: Square-extent envelope the size draw picks from: mostly interactive
#: sizes, an occasional paper-scale "test" launch.  (The paper's
#: 9600-extent benchmark mode is deliberately absent: one such launch
#: runs for simulated minutes and would turn every queueing scenario
#: into a study of a single outlier.)
DEFAULT_SIZES = (256, 512, 1100)
DEFAULT_SIZE_WEIGHTS = (0.5, 0.35, 0.15)

#: Popularity exponent: 1.1 is a classic production-ish skew (the top
#: kernel gets ~15% of launches over a 24-kernel suite, the tail still
#: shows up).
ZIPF_S = 1.1
#: Bursts divide the calm-phase mean inter-arrival by this factor.
BURST_FACTOR = 8.0
#: Mean calm and burst phase lengths, in launches (geometric switching).
CALM_LENGTH = 200
BURST_LENGTH = 50


@dataclass(frozen=True)
class CaseSpec:
    """One launchable (kernel, dataset) case of the catalog."""

    benchmark: str
    region_name: str
    env: tuple[tuple[str, int], ...]  # sorted, hashable size bindings

    @property
    def size(self) -> int:
        return self.env[0][1] if self.env else 0

    def env_dict(self) -> dict[str, int]:
        return dict(self.env)


@dataclass(frozen=True)
class LaunchRequest:
    """One arrival of the generated trace."""

    index: int
    arrival_s: float  # simulated arrival time
    case: CaseSpec
    burst: bool  # generated during a burst phase (diagnostic only)
    #: issuing tenant (None = the anonymous single-tenant default, which
    #: keeps single-tenant traces and records byte-identical to traces
    #: generated before tenancy existed)
    tenant: str | None = None


@dataclass(frozen=True)
class WorkloadConfig:
    """Everything the trace depends on (and nothing else).

    ``mean_interarrival_s`` is the *calm-phase* mean; bursts compress it
    by :data:`BURST_FACTOR`.
    """

    launches: int = 10_000
    seed: int = 0
    sizes: tuple[int, ...] = DEFAULT_SIZES
    size_weights: tuple[float, ...] = DEFAULT_SIZE_WEIGHTS
    mean_interarrival_s: float = 1e-3
    #: concurrent tenants issuing the trace.  1 (the default) keeps the
    #: historical anonymous trace (``request.tenant is None``); more
    #: draws each request's tenant from its own substream, so turning
    #: tenancy on never reshuffles kernels, sizes or arrival times.
    tenants: int = 1
    #: per-tenant traffic shares (None = uniform).  Skewed weights model
    #: one heavy tenant crowding the others — the fairness scenarios.
    tenant_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.launches < 1:
            raise ValueError("need at least one launch")
        if len(self.sizes) != len(self.size_weights) or not self.sizes:
            raise ValueError("sizes and size_weights must match and be non-empty")
        if any(w <= 0 for w in self.size_weights):
            raise ValueError("size weights must be positive")
        if self.mean_interarrival_s <= 0:
            raise ValueError("mean inter-arrival must be positive")
        if self.tenants < 1:
            raise ValueError("need at least one tenant")
        if self.tenant_weights is not None:
            if len(self.tenant_weights) != self.tenants:
                raise ValueError("tenant_weights must have one entry per tenant")
            if any(w <= 0 for w in self.tenant_weights):
                raise ValueError("tenant weights must be positive")


def build_catalog(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
) -> tuple[list[CaseSpec], dict[str, Region]]:
    """The launchable case grid plus the regions the engine must compile.

    One :class:`CaseSpec` per (kernel, square extent); regions are built
    once per benchmark (the suite's ``build`` returns fresh IR each
    call, and the attribute database keys by region name).
    """
    cases: list[CaseSpec] = []
    regions: dict[str, Region] = {}
    for spec in SUITE:
        params = tuple(spec.env("test"))
        for region in spec.build():
            regions[region.name] = region
            for size in sizes:
                cases.append(
                    CaseSpec(
                        benchmark=spec.name,
                        region_name=region.name,
                        env=tuple(sorted((p, size) for p in params)),
                    )
                )
    return cases, regions


def _exponential(rng, mean: float) -> float:
    # inverse-CDF draw; one rng.random() per arrival keeps the stream
    # accounting trivial (expovariate's rejection path would not)
    return -mean * math.log(1.0 - rng.random())


def generate_requests(
    config: WorkloadConfig, cases: list[CaseSpec] | None = None
) -> list[LaunchRequest]:
    """The full seeded trace for one configuration.

    Draw streams (all independent substreams of ``config.seed``):

    * ``popularity`` — which kernel each launch hits (Zipf over a
      seed-shuffled ranking, so which kernels are "hot" varies by seed);
    * ``size`` — the dataset extent (envelope weights);
    * ``arrival`` — the exponential inter-arrival draws;
    * ``phase`` — the calm/burst switching decisions;
    * ``tenant`` — which tenant issued the request (only consumed when
      ``tenants > 1``, so single-tenant traces are byte-identical to
      traces generated before the stream existed).
    """
    if cases is None:
        cases, _ = build_catalog(config.sizes)
    kernels = sorted({c.region_name for c in cases})
    by_kernel_size: dict[tuple[str, int], CaseSpec] = {
        (c.region_name, c.size): c for c in cases
    }

    rank_rng = derive_rng(config.seed, "workload", "ranking")
    rank_rng.shuffle(kernels)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(kernels))]
    pop_cdf = _cumulative(weights)
    size_cdf = _cumulative(list(config.size_weights))

    pop_rng = derive_rng(config.seed, "workload", "popularity")
    size_rng = derive_rng(config.seed, "workload", "size")
    arrival_rng = derive_rng(config.seed, "workload", "arrival")
    phase_rng = derive_rng(config.seed, "workload", "phase")

    tenant_cdf = None
    tenant_rng = None
    if config.tenants > 1:
        tenant_rng = derive_rng(config.seed, "workload", "tenant")
        shares = list(config.tenant_weights or [1.0] * config.tenants)
        tenant_cdf = _cumulative(shares)

    requests: list[LaunchRequest] = []
    now = 0.0
    burst = False
    for index in range(config.launches):
        switch_p = 1.0 / (BURST_LENGTH if burst else CALM_LENGTH)
        if phase_rng.random() < switch_p:
            burst = not burst
        mean = config.mean_interarrival_s
        if burst:
            mean /= BURST_FACTOR
        now += _exponential(arrival_rng, mean)
        kernel = kernels[bisect_left(pop_cdf, pop_rng.random())]
        size = config.sizes[bisect_left(size_cdf, size_rng.random())]
        tenant = None
        if tenant_cdf is not None:
            tenant = f"t{bisect_left(tenant_cdf, tenant_rng.random())}"
        requests.append(
            LaunchRequest(
                index=index,
                arrival_s=now,
                case=by_kernel_size[(kernel, size)],
                burst=burst,
                tenant=tenant,
            )
        )
    return requests


def _cumulative(weights: list[float]) -> list[float]:
    total = sum(weights)
    acc, cdf = 0.0, []
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0  # guard the float tail so bisect never falls off the end
    return cdf
