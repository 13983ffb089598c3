"""The replay admission path: per-device lanes on the simulated clock.

Every replay runs through :class:`OffloadService`; ``ReplayConfig.service``
picks one of the two shapes in :data:`LANE_SHAPES`:

* **the serial preset** (``service=False``) — one dispatcher lane with
  one server, no batching and no phase overlap.  This is the
  single-server FIFO the selector was first modelled as: every launch,
  host or accelerator, waits behind one queue, so devices never contend
  and a CPU launch can block a GPU one.  ``ReplayConfig`` runs it unless
  ``service=True``, and the service experiment uses it as the baseline;
* **per-device lanes** (``service=True``) — requests are routed by
  the (memoized) selection policy's undilated preview: host-bound work
  joins the CPU lane, accelerator-bound work joins the GPU lane with its
  own server pool;
* **admission batching** — within a lane, a scheduling quantum groups a
  contiguous run of same-case admissions into one batch (operands are
  already resident after the first member's H2D, so the batch pays one
  transfer);
* **phase overlap** — each accelerator lane owns an H2D channel, a
  compute server pool, and a D2H channel.  A queued launch's host→device
  transfer proceeds while the previous launch computes, and copy-back
  never holds a compute slot.

Each lane is **bounded** by the same :class:`AdmissionConfig`.  When an
arrival finds ``capacity`` launches already waiting or in service in its
lane, the overload policy decides its fate:

* ``reject``  — the request is shed outright (the caller sees an error;
  the cheapest failure mode, and an honest one);
* ``degrade`` — the request runs **immediately on the host** via the
  runtimes' ``force_target="cpu"`` hook, skipping model evaluation and
  accelerator dispatch entirely: the host path is the overflow lane, so
  shedding load costs none of the machinery the queue is protecting;
* ``defer``   — the request parks in a second bounded buffer and is
  re-admitted (ahead of newer arrivals) once the lane drains below half
  its ``capacity`` (at least 1); a full park buffer sheds.

An **unbounded** lane (``capacity=None``) admits everything and never
consults the policy.  Everything happens on the engine's simulated
clock, through the engine's own ``_launch`` path — chaos windows, drift,
hedging and budgets all apply unchanged.  The service only
decides *when* each launch starts and what that implies for queueing
accounting, so the same trace through the same shape yields
byte-identical outcomes; ``tests/golden/replay_serial.json`` pins the
serial preset's.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from ..obs import families
from ..runtime import Budget, LaunchRecord

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionConfig",
    "DeviceLane",
    "LANE_SHAPES",
    "OffloadService",
    "ReplayOutcome",
    "ServiceStats",
]

#: sentinel returned by the door check when a request's whole budget
#: would burn in the queue (the launch never happens)
_EXPIRED = object()

ADMISSION_POLICIES = ("reject", "degrade", "defer")


@dataclass(frozen=True)
class AdmissionConfig:
    """Queue bound + overload policy, applied per lane.

    ``capacity`` counts waiting *and* in-service launches; ``None``
    disables admission control entirely (infinite queue, nothing shed).
    ``defer_capacity`` bounds the park buffer.
    """

    capacity: int | None = None
    policy: str = "reject"
    defer_capacity: int = 64

    def __post_init__(self):
        if self.capacity is not None and self.capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        if self.policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"policy must be one of {ADMISSION_POLICIES}, got {self.policy!r}"
            )
        if self.defer_capacity < 1:
            raise ValueError("defer_capacity must be >= 1")

    @property
    def bounded(self) -> bool:
        return self.capacity is not None

    @property
    def effective_resume_depth(self) -> int:
        """Parked requests re-enter while the lane is shallower than this."""
        return max((self.capacity or 2) // 2, 1)


#: The two lane shapes, keyed by ``ReplayConfig.service``: the lanes as
#: (name, compute servers, dedicated H2D/D2H channels), the quantum batch
#: open times round up to (0: open at arrival), and the most same-case
#: admissions one batch (and so one transfer) carries.
LANE_SHAPES = {
    # per-device lanes: host work on the CPU pool, accelerator work on
    # the GPU pool with its own DMA channels, so phases overlap
    True: ((("cpu", 2, False), ("gpu", 2, True)), 5e-4, 8),
    # the serial preset: one single-server FIFO, no batching
    False: ((("dispatcher", 1, False),), 0.0, 1),
}


@dataclass(frozen=True, slots=True)
class ReplayOutcome:
    """What happened to one request of the trace (one per request, so slotted)."""

    index: int
    arrival_s: float
    outcome: str  # "ok" | "resumed" | "degraded" | "shed" | "expired"
    start_s: float | None = None  # service start (None when never launched)
    record: LaunchRecord | None = None  # None when never launched
    #: pipeline completion (D2H done) on per-device lanes; the serial
    #: shape has no pipeline, leaves it None, and the scorer uses
    #: start + executed_seconds
    finish_s: float | None = None

    @property
    def launched(self) -> bool:
        return self.record is not None


class DeviceLane:
    """One device's admission queue + server pool on the simulated clock.

    ``pending`` holds admitted-but-undispatched ``(request, label,
    depth)`` entries in FIFO order, ``depth`` being the lane depth the
    request found on admission; ``parked`` is the defer buffer.  Queue
    *depth* counts pending plus dispatched-but-unfinished launches.
    Finish times of a multi-server lane complete out of order, so they
    sit in a min-heap and the drain pops every elapsed entry.
    """

    def __init__(
        self, name: str, *, servers: int, channelled: bool, admission, depth_metric
    ):
        self.name = name
        self.admission = admission
        #: ``admission_queue_depth{device=name}``, observed per arrival
        self.depth_metric = depth_metric
        #: ``service_occupancy{device=name}``, bound on its first emission
        self.occupancy_metric = None
        #: model dedicated H2D/D2H DMA channels (accelerator lanes only)
        self.channelled = channelled
        self.pending: deque = deque()
        self.parked: deque = deque()
        self._finish_times: list[float] = []  # min-heap
        self.compute_free = [0.0] * servers
        self.h2d_free_s = 0.0
        self.d2h_free_s = 0.0
        self.peak_finish = 0.0
        # -- accounting ------------------------------------------------
        self.admitted = 0
        self.shed = 0
        self.degraded = 0
        self.deferred = 0
        self.resumed = 0
        self.max_depth = 0
        self.total_wait_s = 0.0
        self.max_wait_s = 0.0
        self.batches = 0
        self.transfers_waived = 0

    def depth(self, now: float) -> int:
        """Launches waiting or in service at ``now`` (drains finished)."""
        ft = self._finish_times
        while ft and ft[0] <= now:
            heappop(ft)
        return len(self.pending) + len(ft)

    def book(self, finish_s: float) -> None:
        heappush(self._finish_times, finish_s)
        self.peak_finish = max(self.peak_finish, finish_s)

    def snapshot(self) -> dict:
        return {
            "admitted": self.admitted,
            "shed": self.shed,
            "degraded": self.degraded,
            "deferred": self.deferred,
            "resumed": self.resumed,
            "max_depth": self.max_depth,
            "max_wait_s": self.max_wait_s,
            "total_wait_s": self.total_wait_s,
            "batches": self.batches,
            "transfers_waived": self.transfers_waived,
            "servers": len(self.compute_free),
        }


class ServiceStats:
    """Aggregate accounting across lanes (``run.queue``).

    ``score_run`` reads the queue-level counters off it; the per-lane
    split lives under ``snapshot()``.
    """

    def __init__(self, lanes: dict[str, DeviceLane]):
        self._lanes = lanes
        self.admitted = 0
        self.shed = 0
        self.degraded = 0
        self.deferred = 0
        self.resumed = 0
        self.max_depth = 0
        self.total_wait_s = 0.0
        self.max_wait_s = 0.0
        self.batches = 0
        self.batched = 0  # members that rode a batch behind its head
        self.transfers_waived = 0

    def snapshot(self) -> dict:
        return {
            "admitted": self.admitted,
            "shed": self.shed,
            "degraded": self.degraded,
            "deferred": self.deferred,
            "resumed": self.resumed,
            "max_depth": self.max_depth,
            "max_wait_s": self.max_wait_s,
            "total_wait_s": self.total_wait_s,
            "batches": self.batches,
            "batched": self.batched,
            "transfers_waived": self.transfers_waived,
            "lanes": {name: lane.snapshot() for name, lane in self._lanes.items()},
        }


class OffloadService:
    """Drive one engine's trace through per-device admission lanes."""

    def __init__(self, engine):
        self.engine = engine
        #: per-device lanes with phase overlap (else the serial preset)
        self.overlap = engine.config.service
        shapes, self._quantum_s, self._max_batch = LANE_SHAPES[self.overlap]
        self.runtime = engine.runtime
        self._families = fams = families(engine.runtime.metrics)
        self.lanes = {
            name: DeviceLane(
                name,
                servers=servers,
                channelled=channelled,
                admission=engine.config.admission,
                depth_metric=fams["admission_queue_depth"].labels(name),
            )
            for name, servers, channelled in shapes
        }
        self._lane_list = list(self.lanes.values())
        #: the one lane of a shape whose batches open at their arrival
        #: (the serial preset), which ``_next_lane`` need not scan for
        self._only_lane = (
            self._lane_list[0]
            if len(self._lane_list) == 1 and self._quantum_s <= 0.0
            else None
        )
        self.stats = ServiceStats(self.lanes)
        #: ``replay_requests_total`` by admission decision, each bound on
        #: its first emission
        self._request_counters: dict = {}
        self._route_cache: dict = {}
        self._phase_fractions: dict = {}
        self._outcomes: list[ReplayOutcome] = []
        self._budget_s = engine.config.budget_s
        self._wait_metric = fams["admission_wait_seconds"].labels()
        #: (lane, server, index, tenant, begin_s, comp_start_s, comp_end_s,
        #: clock_s) per launch, in dispatch order — the property tests
        #: assert compute exclusivity, per-tenant FIFO and a monotone
        #: clock on it
        self.dispatch_log: list[tuple] = []

    # -- event loop ---------------------------------------------------------
    def run(self, requests) -> tuple[list[ReplayOutcome], float]:
        """Replay the trace; returns (outcomes in request order, horizon_s)."""
        for request in requests:
            # everything whose batch opens at or before this arrival is
            # dispatched first (with quantum 0, every admission launches
            # before the next arrival is seen)
            lane = self._next_lane(request.arrival_s)
            while lane is not None:
                self._dispatch_batch(lane)
                lane = self._next_lane(request.arrival_s)
            self._process_arrival(request)
        self._drain()
        outcomes = self._outcomes
        outcomes.sort(key=lambda o: o.index)
        busy = max((lane.peak_finish for lane in self._lane_list), default=0.0)
        horizon = max(busy, requests[-1].arrival_s if requests else 0.0)
        return outcomes, horizon

    def _next_lane(self, until: float) -> DeviceLane | None:
        """The lane whose head batch opens earliest, if that is by ``until``.

        Declaration order breaks ties.
        """
        lane = self._only_lane
        if lane is not None:
            return lane if lane.pending and lane.pending[0][0].arrival_s <= until else None
        best = None
        best_open = math.inf
        for lane in self._lane_list:
            if not lane.pending:
                continue
            open_t = self._quantize(lane.pending[0][0].arrival_s)
            if open_t < best_open:
                best, best_open = lane, open_t
        return best if best_open <= until else None

    def _quantize(self, t: float) -> float:
        q = self._quantum_s
        if q <= 0.0:
            return t
        # clamp: float division can round the ceiling below t itself
        return max(t, math.ceil(t / q) * q)

    # -- arrivals -----------------------------------------------------------
    def _process_arrival(self, request) -> None:
        now = request.arrival_s
        for lane in self._lane_list:
            if lane.parked:
                self._resume_ready(lane, now)
        lane = self._route(request)
        depth = lane.depth(now)
        lane.depth_metric.observe(float(depth))
        decision = self._decide(lane, depth)
        requests = self._request_counters.get(decision)
        if requests is None:
            requests = self._request_counters[decision] = self._families[
                "replay_requests_total"
            ].labels(decision)
        requests.inc()
        if decision == "admit":
            lane.pending.append((request, "ok", depth))
        elif decision == "degrade":
            engine = self.engine
            engine._advance_to(now)
            record = engine._launch(request, force_target="cpu")
            lane.degraded += 1
            self.stats.degraded += 1
            self._outcomes.append(
                ReplayOutcome(
                    index=request.index,
                    arrival_s=now,
                    outcome="degraded",
                    start_s=now,
                    record=record,
                    finish_s=(
                        now + max(record.executed_seconds, 0.0)
                        if self.overlap
                        else None
                    ),
                )
            )
        elif decision == "defer":
            lane.parked.append(request)
            lane.deferred += 1
            self.stats.deferred += 1
        else:  # shed
            lane.shed += 1
            self.stats.shed += 1
            self._outcomes.append(
                ReplayOutcome(index=request.index, arrival_s=now, outcome="shed")
            )

    def _decide(self, lane: DeviceLane, depth: int) -> str:
        cfg = lane.admission
        if not cfg.bounded or depth < cfg.capacity:
            return "admit"
        if cfg.policy == "degrade":
            return "degrade"
        if cfg.policy == "defer" and len(lane.parked) < cfg.defer_capacity:
            return "defer"
        return "shed"

    def _resume_ready(self, lane: DeviceLane, now: float) -> None:
        resume_at = lane.admission.effective_resume_depth
        while lane.parked:
            depth = lane.depth(now)
            if depth >= resume_at:
                break
            lane.pending.append((lane.parked.popleft(), "resumed", depth))
            lane.resumed += 1
            self.stats.resumed += 1

    # -- routing ------------------------------------------------------------
    def _route(self, request) -> DeviceLane:
        """Which lane queues this request (policy preview, cached per case).

        The preview uses the *undilated* memoized times — the same inputs
        the policy sees on a calm run — so routing is a pure function of
        the case.  The launch itself may still land elsewhere (drift
        pinning, a breaker or health reroute, hedging); the lane only
        models where the request queued.
        """
        if not self.overlap:
            return self._lane_list[0]
        lane = self._route_cache.get(request.case)
        if lane is None:
            rt = self.runtime
            attrs = rt.db.lookup(request.case.region_name)
            env = request.case.env_dict()
            memo = rt.memo
            host, accel = rt._host, rt._accels[0]
            if memo is not None:
                key = memo.key(request.case.region_name, env)
                bound = memo.bound(attrs, env, key)
                cpu_s = memo.execution(host, attrs, env, key).seconds
                gpu_s = memo.execution(accel, attrs, env, key).seconds
            else:
                bound = attrs.bind(env)
                cpu_s = host.execute(attrs, env).seconds
                gpu_s = accel.execute(attrs, env).seconds
            target, _ = self.engine.policy.choose(
                bound,
                rt.platform,
                num_threads=rt.num_threads,
                sim_cpu_seconds=cpu_s,
                sim_gpu_seconds=gpu_s,
            )
            lane = self.lanes["gpu" if target == "gpu" else "cpu"]
            self._route_cache[request.case] = lane
        return lane

    # -- dispatch -----------------------------------------------------------
    def _dispatch_batch(self, lane: DeviceLane) -> None:
        head = lane.pending[0][0]
        members = [lane.pending.popleft()]
        while (
            len(members) < self._max_batch
            and lane.pending
            and lane.pending[0][0].case == head.case
        ):
            members.append(lane.pending.popleft())
        lane.batches += 1
        self.stats.batches += 1
        self.stats.batched += len(members) - 1
        if len(members) > 1:
            self._families["service_batches_total"].labels(lane.name).inc()
        if self.overlap:
            self._dispatch_overlap(lane, self._quantize(head.arrival_s), members)
        else:
            self._dispatch_serial(lane, members)

    def _dispatch_serial(self, lane, members) -> None:
        """Serial-shape dispatch: one server, whole-record service."""
        engine = self.engine
        for member in members:
            request = member[0]
            start = max(request.arrival_s, lane.compute_free[0])
            wait = start - request.arrival_s
            budget = self._door(request, wait)
            if budget is _EXPIRED:
                continue
            engine._advance_to(start)
            record = engine._launch(request, budget=budget)
            finish = start + max(record.executed_seconds, 0.0)
            lane.compute_free[0] = finish
            self._complete(lane, 0, member, record, start, start, finish, finish)

    def _dispatch_overlap(self, lane, open_t, members) -> None:
        """Pipelined dispatch: shared H2D, pooled compute, serialized D2H."""
        engine = self.engine
        server = min(
            range(len(lane.compute_free)), key=lane.compute_free.__getitem__
        )
        server_free = lane.compute_free[server]
        busy = sum(1 for t in lane.compute_free if t > open_t)
        occupancy = lane.occupancy_metric
        if occupancy is None:
            occupancy = lane.occupancy_metric = self._families[
                "service_occupancy"
            ].labels(lane.name)
        occupancy.observe(busy / len(lane.compute_free))
        shared_ready = None  # H2D completion the batch's later members reuse
        prev_comp_end = None
        for member in members:
            request = member[0]
            if prev_comp_end is not None:
                begin = max(open_t, prev_comp_end)
            elif lane.channelled:
                # service begins when the transfer channel picks it up —
                # the compute server may still be busy (that's the overlap)
                begin = max(open_t, lane.h2d_free_s)
            else:
                begin = max(open_t, server_free)
            wait = begin - request.arrival_s
            budget = self._door(request, wait)
            if budget is _EXPIRED:
                continue
            engine._advance_to(begin)
            record = engine._launch(request, budget=budget)
            h2d, comp, d2h = self._phases(request, record)
            base = server_free if prev_comp_end is None else prev_comp_end
            if lane.channelled and record.target == "gpu":
                if shared_ready is None:
                    t0 = max(begin, lane.h2d_free_s)
                    shared_ready = t0 + h2d
                    lane.h2d_free_s = shared_ready
                else:
                    # same case, operands already resident: no transfer
                    lane.transfers_waived += 1
                    self.stats.transfers_waived += 1
                comp_start = max(shared_ready, base)
                comp_end = comp_start + comp
                d2h_start = max(comp_end, lane.d2h_free_s)
                finish = d2h_start + d2h
                lane.d2h_free_s = finish
            else:
                # rerouted-to-host (or host-lane) work has no channel
                # phases: the whole record occupies the compute slot
                comp_start = max(begin, base)
                comp_end = comp_start + (h2d + comp + d2h)
                finish = comp_end
            prev_comp_end = comp_end
            lane.compute_free[server] = comp_end
            self._complete(lane, server, member, record, begin, comp_start, comp_end, finish)

    def _door(self, request, wait: float):
        """Budget door-shed; returns the Budget (or None), or ``_EXPIRED``.

        The wait is known before the server is committed, so a request
        whose whole budget would burn in the queue sheds at the door
        ("expired") instead of occupying the server with work its client
        already gave up on — which also keeps a backlogged stretch from
        cascading.
        """
        budget = None
        if self._budget_s is not None:
            budget = Budget(self._budget_s)
            if wait >= budget.total_s:
                self._outcomes.append(
                    ReplayOutcome(
                        index=request.index,
                        arrival_s=request.arrival_s,
                        outcome="expired",
                    )
                )
                return _EXPIRED
        self._wait_metric.observe(wait)
        if budget is not None:
            budget.charge(wait)
        return budget

    def _complete(
        self, lane, server, member, record, begin, comp_start, comp_end, finish
    ) -> None:
        """Account, book and log one launch, and record its outcome."""
        request, label, depth = member
        # the newcomer itself counts, and only launched requests touch the
        # peak: door-shed ("expired") requests never occupy the lane
        lane.max_depth = max(lane.max_depth, depth + 1)
        self.stats.max_depth = max(self.stats.max_depth, depth + 1)
        wait = begin - request.arrival_s
        lane.admitted += 1
        self.stats.admitted += 1
        lane.total_wait_s += wait
        self.stats.total_wait_s += wait
        lane.max_wait_s = max(lane.max_wait_s, wait)
        self.stats.max_wait_s = max(self.stats.max_wait_s, wait)
        lane.book(finish)
        self.dispatch_log.append(
            (
                lane.name,
                server,
                request.index,
                request.tenant,
                begin,
                comp_start,
                comp_end,
                self.runtime.clock.now,
            )
        )
        self._outcomes.append(
            ReplayOutcome(
                index=request.index,
                arrival_s=request.arrival_s,
                outcome=label,
                start_s=begin,
                record=record,
                # the serial shape has no pipeline: its finish is
                # start + executed, which the scorer derives
                finish_s=finish if self.overlap else None,
            )
        )

    # -- phases -------------------------------------------------------------
    def _phases(self, request, record) -> tuple[float, float, float]:
        """Split one record's executed seconds into (h2d, compute, d2h).

        GPU launches reuse the memoized undilated execution detail —
        kernel vs transfer split — scaled so the phases sum to the
        record's actual (possibly dilated, retried, hedged) executed
        seconds.  Host launches are all compute.
        """
        executed = max(record.executed_seconds, 0.0)
        if record.target != "gpu":
            return 0.0, executed, 0.0
        fractions = self._phase_fractions.get(request.case)
        if fractions is None:
            rt = self.runtime
            attrs = rt.db.lookup(request.case.region_name)
            env = request.case.env_dict()
            accel = rt._accels[0]
            if rt.memo is not None:
                key = rt.memo.key(request.case.region_name, env)
                detail = rt.memo.execution(accel, attrs, env, key).detail
            else:
                detail = accel.execute(attrs, env).detail
            fractions = (0.0, 1.0, 0.0)
            if isinstance(detail, tuple) and len(detail) == 2:
                kernel, xfer = detail
                h2d = max(getattr(xfer, "seconds_to_device", 0.0), 0.0)
                comp = max(getattr(kernel, "seconds", 0.0), 0.0)
                d2h = max(getattr(xfer, "seconds_to_host", 0.0), 0.0)
                serial = h2d + comp + d2h
                if serial > 0.0 and math.isfinite(serial):
                    fractions = (h2d / serial, comp / serial, d2h / serial)
            self._phase_fractions[request.case] = fractions
        return (
            fractions[0] * executed,
            fractions[1] * executed,
            fractions[2] * executed,
        )

    # -- end of trace -------------------------------------------------------
    def _drain(self) -> None:
        """Dispatch the backlog, then re-admit everything still parked.

        Each parked request is resumed against an infinitely-drained
        queue, one at a time, in park order, lane by lane.
        """
        lane = self._next_lane(math.inf)
        while lane is not None:
            self._dispatch_batch(lane)
            lane = self._next_lane(math.inf)
        for lane in self._lane_list:
            resume_at = lane.admission.effective_resume_depth
            while lane.parked:
                depth = lane.depth(math.inf)
                if depth >= resume_at:
                    break
                lane.pending.append((lane.parked.popleft(), "resumed", depth))
                lane.resumed += 1
                self.stats.resumed += 1
                while lane.pending:
                    self._dispatch_batch(lane)
