"""The three workloads, driven through the public API only.

* ``qsq-small`` and ``dqsq-large``: closed loop, one client, distinct
  seeded alarm windows on one fixed telecom chain, each answer checked
  against the dedicated algorithm (Theorem-4 event parity);
* ``service-stream``: open loop, seeded Poisson arrivals against an
  in-process :class:`repro.service.DiagnosisService`, each session's
  final answer checked against the dedicated algorithm on its full
  stream.

Why each exists and what it loads is in ``CATALOG.md``.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import pickle
import random
import resource
import selectors
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro
from repro.datalog.plan import plan_cache_evictions, plan_cache_size
from repro.petri.generators import TelecomSpec, telecom_net
from repro.service import DiagnosisService, ServiceConfig, SessionConfig
from repro.service.session import DiagnosisSession
from repro.workloads.alarmgen import simulate_alarms
from repro.workloads.scenarios import get_scenario

from calibrate import REPEATS, Calibration
from measure import bracketing_mean
from spans import StepClock, Tracer, drive


@dataclass
class Sample:
    """One operation: a batch query, or one stream request."""

    ok: bool
    latency: float = 0.0       #: raw seconds (stream: from the due time)
    busy: float = 0.0          #: raw seconds the system worked on it
    alarms: int = 0            #: alarms the operation diagnoses or carries
    traced: bool = False
    oracle: float = 0.0        #: raw seconds of the dedicated oracle
    #: the host calibration this operation's times are normalised by
    calibration: float = 0.0
    #: the stream round the request belongs to (0 for batch queries)
    round: int = 0
    #: stream: the clock reading the request was due at
    due: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    error: str = ""


@dataclass
class RunData:
    """Everything a workload run measured, in raw host seconds."""

    samples: list[Sample] = field(default_factory=list)
    calibration: Calibration = field(default_factory=Calibration)
    #: wall seconds spent in traced sections, and the idle time inside
    #: them (the event loop waiting, or a calibration sample running)
    traced_wall: float = 0.0
    traced_idle: float = 0.0
    tracer: Tracer | None = None
    extra: dict[str, Any] = field(default_factory=dict)


def _seeded(seed: int, *parts: int) -> int:
    value = seed
    for part in parts:
        value = value * 1_000_003 + part
    return value


# -- batch workloads -------------------------------------------------------------


#: consecutive repeated draws after which a net's windows count as exhausted
WINDOW_MISSES = 2000
#: peak RSS is read after this many batch queries (or the first stream
#: round), so it does not grow with the number of queries a host fits
RSS_OPERATIONS = 20


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass(frozen=True)
class BatchWorkload:
    method: str
    spec: TelecomSpec
    #: alarms per window; every window involves every peer of the net
    alarms: int

    def setup(self) -> Any:
        return telecom_net(self.spec)

    def windows(self, petri: Any, seed: int, data: RunData):
        """Distinct seeded alarm windows.  The net has finitely many; once
        ``WINDOW_MISSES`` draws in a row find no new one, the windows
        repeat in the order they were drawn (counted in ``data``)."""
        rng = random.Random(_seeded(seed, 1))
        peers = len(petri.net.peers())
        seen: dict[tuple, Any] = {}
        misses = 0
        while misses < WINDOW_MISSES:
            alarms = simulate_alarms(petri, steps=self.alarms,
                                     seed=rng.randrange(2**31))
            key = tuple(alarms)
            if (len(alarms) < self.alarms or key in seen
                    or len({alarm.peer for alarm in alarms}) < peers):
                misses += 1
                continue
            misses = 0
            seen[key] = alarms
            yield alarms
        while True:
            for alarms in seen.values():
                data.extra["windows_repeated"] += 1
                yield alarms

    def measure(self, seed: int, seconds: float, data: RunData) -> None:
        petri = self.setup()
        data.extra["windows_repeated"] = 0
        windows = self.windows(petri, seed, data)
        evictions_before = plan_cache_evictions()
        deadline = time.perf_counter() + seconds
        before = data.calibration.sample()
        index = 0
        while time.perf_counter() < deadline:
            alarms = next(windows)
            traced = data.tracer is not None and index % 2 == 0
            sample = self._query(petri, alarms, data, traced, index)
            # the host's speed drifts within a run: normalise each query
            # by the calibration samples taken right before and after it
            after = data.calibration.sample()
            sample.calibration = (before + after) / 2
            before = after
            data.samples.append(sample)
            index += 1
            if index == RSS_OPERATIONS:
                data.extra["peak_rss_kb"] = peak_rss_kb()
        data.extra.setdefault("peak_rss_kb", peak_rss_kb())
        data.extra["plan.cache_size"] = plan_cache_size()
        data.extra["plan.cache_evictions"] = (plan_cache_evictions()
                                              - evictions_before)

    def _query(self, petri: Any, alarms: Any, data: RunData, traced: bool,
               index: int) -> Sample:
        sample = Sample(ok=False, alarms=len(alarms), traced=traced)
        tracer = data.tracer
        if traced:
            tracer.request = index
            tracer.install()
        wall_start = time.perf_counter()
        try:
            start = time.perf_counter()
            result = repro.diagnose(petri, alarms, method=self.method)
            sample.latency = sample.busy = time.perf_counter() - start
            start = time.perf_counter()
            oracle = repro.diagnose(petri, alarms, method="dedicated")
            sample.oracle = time.perf_counter() - start
            sample.counters = result.counters.as_dict()
            sample.ok = (result.diagnoses == oracle.diagnoses
                         and result.materialized_events
                         == oracle.materialized_events
                         and not result.partial)
            if not sample.ok:
                sample.error = (f"oracle mismatch on {list(alarms)}: "
                                f"partial={result.partial}")
        except Exception:  # a failed query is counted, the run goes on
            sample.error = traceback.format_exc()
        finally:
            if traced:
                data.traced_wall += time.perf_counter() - wall_start
                tracer.uninstall()
        return sample


# -- the service stream ------------------------------------------------------------


#: the stream takes a calibration sample at most this often, when the
#: service is idle and the next request is due this far away at least
CALIBRATION_EVERY_S = 0.05
CALIBRATION_ROOM_S = 0.012
#: how often the calibrating task looks for such a moment
CALIBRATION_POLL_S = 0.001
#: kernel runs per stream calibration sample: fewer than a batch
#: sample's, so that a sample fits between requests
STREAM_CALIBRATION_REPEATS = 2


@dataclass
class _Progress:
    """Stream requests sent and answered so far, across all sessions, and
    the seconds spent taking calibration samples in between."""

    sent: int = 0
    done: int = 0
    calibrating: float = 0.0


class _IdleSelector(selectors.DefaultSelector):
    """The event loop's selector, timing how long the loop sat idle.

    It waits by polling, not by blocking in the kernel: a process woken
    from a blocking wait on a shared VM starts milliseconds late now and
    then, and those wake-ups, not the service, set the stream's tail
    latency when the generator sleeps until each due time.
    """

    idle = 0.0

    def select(self, timeout=None):
        start = time.perf_counter()
        deadline = math.inf if timeout is None else start + timeout
        try:
            while True:
                ready = super().select(0)
                if ready or time.perf_counter() >= deadline:
                    return ready
        finally:
            self.idle += time.perf_counter() - start


@dataclass(frozen=True)
class StreamWorkload:
    #: sessions per round, tenants by scenario (cycled after a shuffle)
    sessions: int
    tenants: tuple[str, ...]
    alarms_per_session: int
    read_every: int
    max_resident: int
    #: offered alarm rate, alarms/s (reads arrive on top, one per
    #: ``read_every`` alarms)
    offered_rate: float
    #: the fixed latency limit and the percentile it applies to: the
    #: replayed tail that ``sustained_rate_aps`` must meet
    limit_s: float
    limit_pct: int

    def setup(self) -> dict[str, Any]:
        return {scenario: get_scenario(scenario).instantiate()[0]
                for scenario in set(self.tenants)}

    def service(self) -> DiagnosisService:
        return DiagnosisService(ServiceConfig(session=SessionConfig(),
                                              max_resident=self.max_resident))

    async def open_sessions(self, service: DiagnosisService,
                            tenants: list[str]) -> None:
        for index, scenario in enumerate(tenants):
            reply = await service.handle({"op": "open", "session": f"s{index}",
                                          "scenario": scenario})
            if not reply["ok"]:
                raise RuntimeError(f"open refused: {reply}")

    def tenant_mix(self, rng: random.Random) -> list[str]:
        tenants = [self.tenants[i % len(self.tenants)]
                   for i in range(self.sessions)]
        rng.shuffle(tenants)
        return tenants

    def measure(self, seed: int, seconds: float, data: RunData) -> None:
        # The oracle runs in its own process: its product unfoldings of
        # whole streams would otherwise set this process's peak RSS.
        oracle = OracleWorker()
        try:
            self._rounds(seed, seconds, data, oracle)
        finally:
            oracle.close()

    def _rounds(self, seed: int, seconds: float, data: RunData,
                oracle: OracleWorker) -> None:
        nets = self.setup()
        deadline = time.perf_counter() + seconds
        data.extra.update({"rounds": 0, "sessions": 0, "partial_sessions": 0,
                           "lag_max_s": 0.0,
                           "service.rehydrations": 0, "service.evictions": 0,
                           "online.peak_table_vectors": 0,
                           "online.events_materialized": 0,
                           "snapshot_bytes_max": 0})
        round_index = 0
        while time.perf_counter() < deadline:
            traced = data.tracer is not None and round_index % 2 == 0
            self._round(nets, _seeded(seed, 2, round_index), data, traced,
                        oracle)
            round_index += 1

    def _round(self, nets: dict[str, Any], seed: int, data: RunData,
               traced: bool, oracle: OracleWorker) -> None:
        rng = random.Random(seed)
        tenants = self.tenant_mix(rng)
        streams = [simulate_alarms(nets[scenario], steps=self.alarms_per_session,
                                   seed=rng.randrange(2**31))
                   for scenario in tenants]
        # per-session requests: alarms, plus a read after every k-th
        requests: list[list[dict]] = []
        for index, stream in enumerate(streams):
            session = f"s{index}"
            ops: list[dict] = []
            for seq, alarm in enumerate(stream, start=1):
                ops.append({"op": "alarm", "session": session,
                            "symbol": alarm.symbol, "peer": alarm.peer,
                            "seq": seq})
                if seq % self.read_every == 0:
                    ops.append({"op": "diagnoses", "session": session})
            requests.append(ops)
        # one Poisson arrival process over all requests, the order a
        # seeded interleaving that keeps each session's own order
        order = [index for index, ops in enumerate(requests) for _ in ops]
        rng.shuffle(order)
        total_alarms = sum(len(stream) for stream in streams)
        op_rate = self.offered_rate * len(order) / total_alarms
        offsets = list(itertools.accumulate(
            rng.expovariate(op_rate) for _ in order))

        service = self.service()
        first_sample = len(data.samples)
        # (clock reading, sample): the host's speed in and around the round
        calibrations = [(0.0, data.calibration.sample())]
        selector = _IdleSelector()
        loop = asyncio.SelectorEventLoop(selector)
        tracer = data.tracer
        finals: dict[int, dict] = {}
        progress = _Progress()
        try:
            loop.run_until_complete(self.open_sessions(service, tenants))
            if traced:
                tracer.install()
            idle_before = selector.idle
            origin = time.perf_counter()
            dues = [origin + offset for offset in offsets]
            due_by_session: list[list[float]] = [[] for _ in requests]
            for index, due in zip(order, dues):
                due_by_session[index].append(due)

            async def clients() -> None:
                gaps = asyncio.ensure_future(self._calibrate_when_idle(
                    dues, progress, data.calibration, calibrations))
                await asyncio.gather(*[
                    self._client(service, index, ops, due_by_session[index],
                                 data, traced, tracer, finals, progress)
                    for index, ops in enumerate(requests)])
                await gaps
            loop.run_until_complete(clients())
            if traced:
                data.traced_wall += time.perf_counter() - origin
                # the service is idle while a calibration sample runs
                data.traced_idle += (selector.idle - idle_before
                                     + progress.calibrating)
        finally:
            if traced:
                tracer.uninstall()
            loop.close()
        calibrations.append((math.inf, data.calibration.sample()))
        for sample in data.samples[first_sample:]:
            sample.calibration = bracketing_mean(calibrations, sample.due)
            sample.round = data.extra["rounds"]
        data.extra.setdefault("peak_rss_kb", peak_rss_kb())
        self._check(tenants, streams, service, finals, data, oracle)
        data.extra["rounds"] += 1
        for name in ("service.rehydrations", "service.evictions"):
            data.extra[name] += service.counters[name]

    @staticmethod
    async def _calibrate_when_idle(dues: list[float], progress: _Progress,
                                   calibration: Calibration,
                                   out: list[tuple[float, float]]) -> None:
        """Calibration samples taken while the service is idle: every
        request sent so far is answered and the next is far enough away
        that the sample cannot delay it.  A sample between rounds alone
        would miss the host's speed changes within the round."""
        while progress.sent < len(dues):
            await asyncio.sleep(CALIBRATION_EVERY_S)
            while progress.sent < len(dues):
                if (progress.sent == progress.done
                        and dues[progress.sent] - time.perf_counter()
                        >= CALIBRATION_ROOM_S):
                    start = time.perf_counter()
                    value = calibration.sample()
                    taken = time.perf_counter()
                    progress.calibrating += taken - start
                    out.append((taken, value))
                    break
                await asyncio.sleep(CALIBRATION_POLL_S)

    async def _client(self, service: DiagnosisService, index: int,
                      ops: list[dict], dues: list[float], data: RunData,
                      traced: bool, tracer: Tracer | None,
                      finals: dict[int, dict], progress: _Progress) -> None:
        previous_done = dues[0] if dues else 0.0
        for request, due in zip(ops, dues):
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            data.extra["lag_max_s"] = max(data.extra["lag_max_s"],
                                          sent - max(due, previous_done))
            if traced:
                tracer.request = (index, request.get("seq"))
            clock = StepClock()
            progress.sent += 1
            reply = await drive(service.handle(request), clock)
            progress.done += 1
            done = time.perf_counter()
            previous_done = done
            sample = Sample(ok=bool(reply.get("ok")), latency=done - due,
                            busy=clock.busy, traced=traced, due=due,
                            alarms=1 if request["op"] == "alarm" else 0)
            if not sample.ok:
                sample.error = f"{request} -> {reply}"
            data.samples.append(sample)
        finals[index] = await service.handle({"op": "diagnoses",
                                              "session": f"s{index}"})

    def _check(self, tenants: list[str], streams: list[Any],
               service: DiagnosisService, finals: dict[int, dict],
               data: RunData, oracle: OracleWorker) -> None:
        """Each session's final answer against the dedicated algorithm on
        its full stream: equal when exact, a subset when partial."""
        for index, (scenario, stream) in enumerate(zip(tenants, streams)):
            final = finals.get(index, {})
            data.extra["sessions"] += 1
            diagnoses, oracle_s = oracle.diagnoses(scenario, stream)
            sample = Sample(ok=False, oracle=oracle_s)
            if final.get("ok"):
                answer = frozenset(frozenset(config)
                                   for config in final["diagnoses"])
                partial = final["partial"]
                data.extra["partial_sessions"] += bool(partial)
                sample.ok = (answer <= diagnoses if partial
                             else answer == diagnoses)
                if not sample.ok:
                    sample.error = (f"session s{index} ({scenario}) final "
                                    f"answer differs from the oracle")
            else:
                sample.error = f"session s{index} final read: {final}"
            data.extra.setdefault("session_checks", []).append(sample)
            snapshot = service.store.load(f"s{index}")
            if snapshot is not None:
                counters = DiagnosisSession.from_bytes(snapshot).diagnoser.counters
                data.extra["online.peak_table_vectors"] = max(
                    data.extra["online.peak_table_vectors"],
                    counters["peak_table_vectors"])
                data.extra["online.events_materialized"] += \
                    counters["events_materialized"]
                data.extra["snapshot_bytes_max"] = max(
                    data.extra["snapshot_bytes_max"], len(snapshot))


def dedicated_diagnoses(scenario: str, alarms: Any) -> tuple[Any, float]:
    """The dedicated algorithm's diagnosis set of ``alarms`` on
    ``scenario``'s net, and the raw seconds it took."""
    petri = get_scenario(scenario).instantiate()[0]
    start = time.perf_counter()
    result = repro.diagnose(petri, alarms, method="dedicated")
    return result.diagnoses, time.perf_counter() - start


class OracleWorker:
    """:func:`dedicated_diagnoses` in a child process, one pickled
    request and reply at a time over its pipes.  A plain subprocess, not
    ``multiprocessing``, so no helper process outlives the run;
    :meth:`close` stops the child and waits for it."""

    def __init__(self) -> None:
        self._child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
             "--oracle-worker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def diagnoses(self, scenario: str, alarms: Any) -> tuple[Any, float]:
        pickle.dump((scenario, alarms), self._child.stdin)
        self._child.stdin.flush()
        try:
            return pickle.load(self._child.stdout)
        except EOFError:
            raise RuntimeError("oracle worker exited") from None

    def close(self) -> None:
        self._child.stdin.close()
        try:
            self._child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()


def serve_oracle() -> None:
    """The child side of :class:`OracleWorker`: answer requests until
    the parent closes the pipe.  Replies own stdout; anything else the
    program prints goes to stderr."""
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr
    while True:
        try:
            scenario, alarms = pickle.load(requests)
        except EOFError:
            return
        pickle.dump(dedicated_diagnoses(scenario, alarms), replies)
        replies.flush()


WORKLOADS: dict[str, BatchWorkload | StreamWorkload] = {
    "qsq-small": BatchWorkload(
        method="qsq",
        spec=TelecomSpec(peers=2, ring_length=3, branching=0.3, seed=2),
        alarms=6),
    "dqsq-large": BatchWorkload(
        method="dqsq",
        spec=TelecomSpec(peers=3, ring_length=3, branching=0.3, seed=4),
        alarms=5),
    "service-stream": StreamWorkload(
        sessions=32,
        tenants=("telecom-small", "telecom-small", "telecom-small",
                 "telecom-wide"),
        alarms_per_session=10, read_every=10, max_resident=16,
        offered_rate=150.0, limit_s=0.1, limit_pct=99),
}


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> RunData:
    """Measure workload ``name`` for ``seconds``; ``trace`` records spans."""
    stream = isinstance(WORKLOADS[name], StreamWorkload)
    data = RunData(tracer=Tracer() if trace else None,
                   calibration=Calibration(STREAM_CALIBRATION_REPEATS
                                           if stream else REPEATS))
    try:
        WORKLOADS[name].measure(seed, seconds, data)
    finally:
        data.calibration.close()
    return data


def setup_ready(name: str) -> None:
    """What a fresh process does before its first operation: the net
    build, and for the stream a service with every session open."""
    workload = WORKLOADS[name]
    workload.setup()
    if isinstance(workload, StreamWorkload):
        tenants = workload.tenant_mix(random.Random(0))
        asyncio.run(workload.open_sessions(workload.service(), tenants))
