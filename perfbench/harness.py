"""Processes, transports and closed loops of the benchmark.

A *transport* answers one protocol line with one protocol line.  The
untraced run talks to real ``serve`` processes over localhost TCP
(:class:`LineConnection`); the traced run hands the same lines to
``repro.service.protocol.handle_line`` in-process (:class:`InProcess`).
The closed loops are shared by both, so the traced run replays exactly the
op stream the untraced run measured.

Every server and fleet is stopped with the ``shutdown`` op and killed on
any error, so no child process outlives a run.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import workloads

#: Grace added to a wire deadline before the client gives up reading.
READ_GRACE_S = 30.0
#: Budget for a server to announce its address and answer ``health``.
STARTUP_BUDGET_S = 60.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


# -- transports -------------------------------------------------------------------


class LineConnection:
    """One TCP connection speaking the JSON-lines protocol."""

    def __init__(self, address: Tuple[str, int], read_timeout_s: float) -> None:
        self.sock = socket.create_connection(address, timeout=10.0)
        self.sock.settimeout(read_timeout_s)
        self.reader = self.sock.makefile("rb")

    def send(self, line: str) -> str:
        self.sock.sendall(line.encode("utf-8"))
        try:
            answer = self.reader.readline()
        except socket.timeout as error:
            raise BenchError(f"no answer within the read timeout: {error}") from error
        if not answer:
            raise BenchError("the server closed the connection")
        return answer.decode("utf-8")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class InProcess:
    """The in-process transport: ``protocol.handle_line`` on a live service."""

    def __init__(self, service: Any) -> None:
        from repro.service import protocol

        self.protocol = protocol
        self.service = service

    def send(self, line: str) -> str:
        # Looked up per call so the tracer's wrapper is the one that runs.
        response, _ = self.protocol.handle_line(self.service, line)
        return response


def encode(data: Dict[str, Any]) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


# -- processes -------------------------------------------------------------------


def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def wait_healthy(address: Tuple[str, int], deadline_at: float) -> None:
    """Block until ``health`` answers ok at ``address``."""
    while True:
        try:
            connection = LineConnection(address, read_timeout_s=10.0)
        except OSError:
            if time.monotonic() > deadline_at:
                raise BenchError(f"no server at {address[0]}:{address[1]}")
            time.sleep(0.01)
            continue
        try:
            answer = json.loads(connection.send(encode({"op": "health"})))
        finally:
            connection.close()
        if answer.get("ok") and answer.get("result", {}).get("ok"):
            return
        if time.monotonic() > deadline_at:
            raise BenchError(f"server unhealthy: {answer}")
        time.sleep(0.01)


def send_shutdown(address: Tuple[str, int]) -> None:
    connection = LineConnection(address, read_timeout_s=30.0)
    try:
        connection.send(encode({"op": "shutdown"}))
    finally:
        connection.close()


class Server:
    """One ``python -m repro.cli serve --tcp`` child with default settings."""

    _ANNOUNCE = "serving on "

    def __init__(self, root: Path) -> None:
        self.started_at = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--tcp", "127.0.0.1:0"],
            cwd=str(root),
            env=child_env(root),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.address: Optional[Tuple[str, int]] = None
        self.tail: deque = deque(maxlen=20)
        self._announced = threading.Event()
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()

    def _read_stderr(self) -> None:
        try:
            for line in self.process.stderr:
                if self.address is None and line.startswith(self._ANNOUNCE):
                    host, _, port = line[len(self._ANNOUNCE):].strip().rpartition(":")
                    self.address = (host, int(port))
                    self._announced.set()
                else:
                    self.tail.append(line.rstrip())
        finally:
            self._announced.set()

    def wait_ready(self) -> float:
        """Seconds from spawn to the first healthy ``health`` answer."""
        deadline_at = time.monotonic() + STARTUP_BUDGET_S
        self._announced.wait(STARTUP_BUDGET_S)
        if self.address is None:
            raise BenchError("serve did not announce an address: " + " | ".join(self.tail))
        wait_healthy(self.address, deadline_at)
        return time.perf_counter() - self.started_at

    @property
    def pids(self) -> List[int]:
        return [self.process.pid]

    def stop(self) -> None:
        """Shutdown op, then wait; kill if the op cannot be delivered."""
        try:
            if self.address is not None and self.process.poll() is None:
                send_shutdown(self.address)
            self.process.wait(timeout=30)
        except (OSError, BenchError, subprocess.TimeoutExpired):
            self.kill()
            return
        self._finish()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._finish()

    def _finish(self) -> None:
        self._drain.join(timeout=5)
        if self.process.stderr is not None:
            self.process.stderr.close()


class Fleet:
    """A ``LocalFleet`` of default members, up once every member is healthy."""

    def __init__(self, members: int) -> None:
        from repro.service.driver import LocalFleet

        self.started_at = time.perf_counter()
        self.fleet = LocalFleet(members)
        self.addresses: List[Tuple[str, int]] = []

    def wait_ready(self) -> float:
        self.addresses = self.fleet.start()
        self.announced_s = time.perf_counter() - self.started_at
        deadline_at = time.monotonic() + STARTUP_BUDGET_S
        for address in self.addresses:
            wait_healthy(address, deadline_at)
        return time.perf_counter() - self.started_at

    @property
    def pids(self) -> List[int]:
        return [process.pid for process in self.fleet.processes]

    def stop(self) -> None:
        for address in self.addresses:
            try:
                send_shutdown(address)
            except (OSError, BenchError):
                pass
        for process in self.fleet.processes:
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        # Reaps every member; terminates (then kills) any the op did not stop.
        self.fleet.stop()

    def kill(self) -> None:
        for process in self.fleet.processes:
            if process.poll() is None:
                process.kill()
        self.fleet.stop()


def start_measured(make: Callable[[], Any], setups: int) -> Tuple[Any, List[float]]:
    """Set up ``setups`` times; keep the last one running, return all times."""
    times = []
    for attempt in range(setups):
        target = make()
        try:
            times.append(target.wait_ready())
        except BaseException:
            target.kill()
            raise
        if attempt < setups - 1:
            target.stop()
    return target, times


# -- answer checks -------------------------------------------------------------------


class Tally:
    """Attempted / failed / wrong counts, per-op latencies and per-step work.

    A step is one unit of the closed loop (a certify, a batch round, a
    drive): its busy seconds, requests, grid points and, when a CPU probe
    is given, the server's cumulative CPU seconds after it.
    """

    def __init__(self, cpu_probe: Optional[Callable[[], float]] = None) -> None:
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.cpu_probe = cpu_probe
        self.cpu_start = cpu_probe() if cpu_probe else None
        self.steps: List[Tuple[float, int, int, Optional[float]]] = []
        self.verdicts: List[Any] = []
        self.failures: List[str] = []

    def step(self, busy_s: float, requests: int, points: int) -> None:
        cpu = self.cpu_probe() if self.cpu_probe else None
        self.steps.append((busy_s, requests, points, cpu))

    @property
    def busy_s(self) -> float:
        return sum(step[0] for step in self.steps)

    def fail(self, why: str, wrong: bool = False) -> None:
        self.failed += 1
        if wrong:
            self.wrong += 1
        if len(self.failures) < 10:
            self.failures.append(why)


def check_certify(instance: "workloads.Instance", answer: Dict[str, Any]) -> Tuple[bool, str, Any]:
    """(ok, why, verdict) for one certify answer against the independent truth."""
    if not answer.get("ok"):
        return False, f"{instance.graph} {instance.label}: {answer.get('code')}", answer.get("code")
    result = answer.get("result", {})
    holds = result.get("holds")
    verdict = (holds, result.get("accepted"), result.get("sound"), result.get("max_certificate_bits"))
    if holds is not instance.expect:
        return False, f"WRONG {instance.graph} {instance.label} {instance.params}: holds={holds}", verdict
    if holds and result.get("accepted") is not True:
        return False, f"{instance.graph} {instance.label}: yes-instance rejected", verdict
    if not holds and result.get("sound") is not True:
        return False, f"{instance.graph} {instance.label}: no-instance accepted", verdict
    return True, "", verdict


def _record_certify(tally: Tally, instance, answer: Dict[str, Any]) -> None:
    ok, why, verdict = check_certify(instance, answer)
    tally.verdicts.append(verdict)
    if not ok:
        tally.fail(why, wrong=why.startswith("WRONG"))


# -- closed loops ----------------------------------------------------------------------


def _keep_going(started: float, seconds: Optional[float], done: int, limit: Optional[int]) -> bool:
    if limit is not None:
        return done < limit
    return time.perf_counter() - started < seconds


def run_certify_cold(
    transport: Any, rounds, seconds: Optional[float] = None, limit: Optional[int] = None,
    on_op: Optional[Callable[[Any], Any]] = None, cpu_probe: Optional[Callable] = None,
) -> Tuple[Tally, List[Any]]:
    """One connection, one certify at a time, until time (or ``limit`` ops) is up."""
    tally = Tally(cpu_probe)
    sent: List[Any] = []
    started = time.perf_counter()
    while _keep_going(started, seconds, tally.attempted, limit):
        for instance in next(rounds):
            if not _keep_going(started, seconds, tally.attempted, limit):
                break
            line = encode(instance.request())
            scope = on_op(instance) if on_op else None
            began = time.perf_counter()
            try:
                response = transport.send(line)
            finally:
                if scope is not None:
                    scope.close()
            elapsed = time.perf_counter() - began
            tally.latencies.append(elapsed)
            tally.attempted += 1
            tally.step(elapsed, 1, 1)
            sent.append(instance)
            _record_certify(tally, instance, json.loads(response))
    return tally, sent


def warm_working_set(transport: Any, working: Sequence) -> None:
    """Decide the batch-shared working set once, before any timing."""
    answer = json.loads(transport.send(encode(workloads.batch_request(list(working)))))
    responses = answer.get("responses")
    if not answer.get("ok") or responses is None:
        raise BenchError(f"working-set warm-up failed: {answer}")
    for instance, member in zip(working, responses):
        ok, why, _ = check_certify(instance, member)
        if not ok:
            raise BenchError(f"working-set warm-up: {why}")


def run_batch_shared(
    transports: Sequence[Any], rounds, seconds: Optional[float] = None,
    limit: Optional[int] = None,
    on_op: Optional[Callable[[Any], Any]] = None, cpu_probe: Optional[Callable] = None,
) -> Tuple[Tally, List[Any]]:
    """Two connections send their round's batches together; the next round
    starts when both have their answers (a closed loop per connection)."""
    tally = Tally(cpu_probe)
    played: List[Any] = []
    started = time.perf_counter()
    while _keep_going(started, seconds, len(played), limit):
        plan = next(rounds)
        lines = [encode(workloads.batch_request(batch)) for batch in plan.batches]
        answers: List[Optional[str]] = [None] * len(transports)
        elapsed = [0.0] * len(transports)
        errors: List[BaseException] = []
        barrier = threading.Barrier(len(transports))

        def client(index: int) -> None:
            try:
                barrier.wait()
                scope = on_op(plan) if on_op else None
                began = time.perf_counter()
                try:
                    answers[index] = transports[index].send(lines[index])
                finally:
                    if scope is not None:
                        scope.close()
                elapsed[index] = time.perf_counter() - began
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(len(transports))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        played.append(plan)
        members = sum(len(batch) for batch in plan.batches)
        tally.step(max(elapsed), members, members)
        for batch, answer_line, took in zip(plan.batches, answers, elapsed):
            tally.latencies.append(took)
            tally.attempted += 1
            answer = json.loads(answer_line)
            responses = answer.get("responses")
            if not answer.get("ok") or responses is None or len(responses) != len(batch):
                tally.verdicts.append(answer.get("code"))
                tally.fail(f"batch failed: {answer.get('code')}")
                continue
            verdicts = []
            bad = None
            for instance, member in zip(batch, responses):
                ok, why, verdict = check_certify(instance, member)
                verdicts.append(verdict)
                if not ok and bad is None:
                    bad = why
            tally.verdicts.append(tuple(verdicts))
            if bad is not None:
                tally.fail(bad, wrong=bad.startswith("WRONG"))
    return tally, played


def run_sweep_drive(
    workers: Sequence[Tuple[str, int]], ops, seconds: Optional[float] = None,
    limit: Optional[int] = None,
    on_op: Optional[Callable[[Any], Any]] = None, cpu_probe: Optional[Callable] = None,
) -> Tuple[Tally, List[Any]]:
    """Sequential shard-driver runs over the fleet, no faults."""
    from repro.experiments import ExperimentSpec
    from repro.service.driver import DriverError, drive

    tally = Tally(cpu_probe)
    sent: List[Any] = []
    started = time.perf_counter()
    while _keep_going(started, seconds, tally.attempted, limit):
        op = next(ops)
        spec = ExperimentSpec.from_dict(op.spec)
        scope = on_op(op) if on_op else None
        began = time.perf_counter()
        try:
            report = drive(spec, workers, deadline_s=workloads.SHARD_DEADLINE_S)
        except DriverError as error:
            report = None
            tally.fail(f"drive {op.label}: {error}")
        finally:
            if scope is not None:
                scope.close()
        elapsed = time.perf_counter() - began
        tally.latencies.append(elapsed)
        tally.attempted += 1
        sent.append(op)
        if report is None:
            tally.step(elapsed, 0, 0)
            tally.verdicts.append(None)
            continue
        points = report.result.to_dict()["points"]
        tally.step(elapsed, report.shards, len(points))
        if scope is not None:
            scope.report = report
        tally.verdicts.append(tuple(
            (p.get("holds"), p.get("soundness_ok"), p.get("dichotomy_ok"), p.get("protocol_ok"))
            for p in points
        ))
        if len(points) != op.expect_points:
            tally.fail(f"drive {op.label}: {len(points)} of {op.expect_points} points")
        elif not all(workloads.drive_point_ok(op, point) for point in points):
            tally.fail(f"WRONG drive {op.label}: a point disagrees", wrong=True)
    return tally, sent


def stats(transport: Any) -> Dict[str, Any]:
    answer = json.loads(transport.send(encode({"op": "stats"})))
    if not answer.get("ok"):
        raise BenchError(f"stats failed: {answer}")
    return answer["result"]
