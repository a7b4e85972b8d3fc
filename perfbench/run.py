"""End-to-end benchmark of the certification service: one command, three workloads.

    python3 perfbench/run.py --workload certify-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the real program: ``serve`` processes (or a shard
fleet) with default settings, driven over localhost TCP by closed loops in
this process.  It prints the end-to-end metrics.  ``--trace 1`` replays the
same seeded op stream in-process through ``protocol.handle_line``, once
untraced and once with spans around every layer, and prints the per-layer
metrics; spans and the oracle cost table are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Server (or fleet) set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Fleet size of sweep-drive.
FLEET_MEMBERS = 2
#: The tail percentile each workload reports: the highest of 99/95/90/75/50
#: that leaves at least TAIL_BEYOND samples beyond it in a run at the seed
#: commit, with margin.  It is fixed so that two versions of the program
#: are compared on the same percentile even when one completes more ops; a
#: run with too few samples falls back to the next lower candidate.
TAIL_PERCENTILE = {"certify-cold": 95, "batch-shared": 90, "sweep-drive": 90}
TAIL_CANDIDATES = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10
#: Loop steps (certify ops, batch rounds, drives) per measurement window.
#: Rates and CPU per op are medians over a run's windows, so a burst of
#: noise from other tenants of the machine moves one window, not the figure.
WINDOW_STEPS = {"certify-cold": 100, "batch-shared": 5, "sweep-drive": 6}
#: Caches whose hits and misses the traced run reports.
CACHES = ("holds", "graph_functions", "networks", "identifiers", "formula_compile")
ENGINES = ("legacy", "compiled", "delta", "vector")


def tail(workload: str, latencies: List[float]) -> Tuple[int, float]:
    """(percentile, value) of the workload's tail latency."""
    for percentile in TAIL_CANDIDATES:
        if percentile > TAIL_PERCENTILE[workload]:
            continue
        if len(latencies) * (100 - percentile) / 100.0 >= TAIL_BEYOND:
            cuts = statistics.quantiles(latencies, n=100, method="inclusive")
            return percentile, cuts[percentile - 1]
    return 50, statistics.median(latencies)


def windowed(workload: str, tally: Any, rate: Callable[[List[Any], Optional[float]], float]) -> float:
    """Median of ``rate(steps, cpu before)`` over the run's full windows."""
    size = WINDOW_STEPS[workload]
    values = []
    for start in range(0, max(1, len(tally.steps) - size + 1), size):
        window = tally.steps[start:start + size]
        cpu_before = tally.steps[start - 1][3] if start else tally.cpu_start
        values.append(rate(window, cpu_before))
    return statistics.median(values)


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def properties(items: List[Any], shared: Optional[float] = None) -> Dict[str, Any]:
    """Workload properties: unique instances, yes/no split, shared share."""
    if items and hasattr(items[0], "spec"):
        # Drives: every grid point draws its own seed; sweep points are
        # no-instances, lower-bound points are neither.
        points = sum(op.expect_points for op in items)
        sweeps = sum(op.expect_points for op in items if op.spec["kind"] == "sweep")
        return {"requests": points, "unique_instances": points, "yes": 0, "no": sweeps,
                "shared_share": shared}
    instances = []
    for item in items:
        if hasattr(item, "batches"):
            instances.extend(instance for batch in item.batches for instance in batch)
        else:
            instances.append(item)
    yes = sum(1 for instance in instances if instance.expect)
    return {
        "requests": len(instances),
        "unique_instances": len({instance.key for instance in instances}),
        "yes": yes,
        "no": len(instances) - yes,
        "shared_share": shared,
    }


def shared_share(rounds: List[Any]) -> float:
    members = sum(sum(len(b) for b in r.batches) for r in rounds)
    return sum(r.shared_share() * sum(len(b) for b in r.batches) for r in rounds) / members


# -- untraced: the real program over TCP ------------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    import harness
    import workloads

    if workload == "sweep-drive":
        target, setups = harness.start_measured(
            lambda: harness.Fleet(FLEET_MEMBERS), SETUPS
        )
    else:
        target, setups = harness.start_measured(lambda: harness.Server(ROOT), SETUPS)
    connections: List[Any] = []

    def cpu() -> float:
        return sum(harness.proc_cpu_s(pid) for pid in target.pids)

    try:
        if workload == "certify-cold":
            connections.append(harness.LineConnection(
                target.address, workloads.CERTIFY_DEADLINE_S + harness.READ_GRACE_S))
            tally, sent = harness.run_certify_cold(
                connections[0], workloads.certify_cold_rounds(seed), seconds=seconds,
                cpu_probe=cpu)
            share = None
        elif workload == "batch-shared":
            for _ in range(workloads.CONNECTIONS):
                connections.append(harness.LineConnection(
                    target.address, workloads.BATCH_DEADLINE_S + harness.READ_GRACE_S))
            working, rounds = workloads.batch_shared_plan(seed)
            harness.warm_working_set(connections[0], working)
            tally, sent = harness.run_batch_shared(
                connections, rounds, seconds=seconds, cpu_probe=cpu)
            share = shared_share(sent)
        else:
            tally, sent = harness.run_sweep_drive(
                target.addresses, workloads.sweep_drive_ops(seed), seconds=seconds,
                cpu_probe=cpu)
            share = None
        rss = sum(harness.proc_peak_rss_mb(pid) for pid in target.pids)
        routed: Dict[str, int] = {}
        addresses = target.addresses if workload == "sweep-drive" else [target.address]
        for address in addresses:
            probe = harness.LineConnection(address, 30.0)
            try:
                for engine, count in harness.stats(probe)["service"]["routing"].items():
                    routed[engine] = routed.get(engine, 0) + count
            finally:
                probe.close()
        for connection in connections:
            connection.close()
    except BaseException:
        target.kill()
        raise
    target.stop()

    percentile, tail_value = tail(workload, tally.latencies)
    ops_per_step = 1 if workload != "batch-shared" else workloads.CONNECTIONS
    report = properties(sent, share)
    report["routed"] = routed
    report["ops"] = tally.attempted
    report["tail"] = {"percentile": percentile, "samples": len(tally.latencies)}
    report["setups_s"] = setups
    print(f"workload {workload} seed {seed}: " + json.dumps(report, sort_keys=True))
    for failure in tally.failures:
        print(f"failure: {failure}")
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "latency_p50_ms": metric(statistics.median(tally.latencies) * 1000.0, "ms"),
        "latency_tail_ms": metric(tail_value * 1000.0, "ms"),
        "requests_per_s": metric(windowed(
            workload, tally, lambda w, _: sum(s[1] for s in w) / sum(s[0] for s in w)), "1/s"),
        "points_per_s": metric(windowed(
            workload, tally, lambda w, _: sum(s[2] for s in w) / sum(s[0] for s in w)), "1/s"),
        "ok_ratio": metric(1.0 - tally.failed / tally.attempted, "ratio"),
        "server_cpu_ms_per_op": metric(windowed(
            workload, tally, lambda w, before: (w[-1][3] - before) * 1000.0 / (len(w) * ops_per_step)),
            "ms"),
        "server_rss_mb": metric(rss, "MiB"),
    }
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


# -- traced: the same stream in-process -----------------------------------------------------


class _InProcessFleet:
    """Fleet members as in-process TCP servers, stopped with ``shutdown``."""

    def __init__(self, members: int) -> None:
        from repro.service.core import CertificationService
        from repro.service.protocol import TCPProtocolServer

        # LocalFleet's default member width.
        self.services = [CertificationService(workers=2) for _ in range(members)]
        self.servers = [TCPProtocolServer(service) for service in self.services]
        self.threads = [
            threading.Thread(target=server.serve_until_shutdown, daemon=True)
            for server in self.servers
        ]
        for thread in self.threads:
            thread.start()
        self.addresses = [server.address for server in self.servers]

    def stop(self) -> None:
        import harness

        for address in self.addresses:
            harness.send_shutdown(address)
        for thread in self.threads:
            thread.join(timeout=30)
        for service in self.services:
            service.close()


def _pass(workload: str, seed: int, seconds: Optional[float], limit: Optional[int],
          tracer: Any = None) -> Dict[str, Any]:
    """One in-process pass over the workload's stream, from cleared caches."""
    import harness
    import workloads
    from repro.caching import clear_caches
    from repro.service.core import CertificationService

    clear_caches()
    on_op = tracer.root if tracer is not None else None
    if workload == "sweep-drive":
        fleet = _InProcessFleet(FLEET_MEMBERS)
        try:
            before = [harness.stats(harness.InProcess(s)) for s in fleet.services]
            tally, sent = harness.run_sweep_drive(
                fleet.addresses, workloads.sweep_drive_ops(seed), seconds, limit, on_op)
            after = [harness.stats(harness.InProcess(s)) for s in fleet.services]
        finally:
            fleet.stop()
        return {"tally": tally, "sent": sent, "before": before, "after": after}
    service = CertificationService()
    try:
        transport = harness.InProcess(service)
        if workload == "certify-cold":
            before = [harness.stats(transport)]
            tally, sent = harness.run_certify_cold(
                transport, workloads.certify_cold_rounds(seed), seconds, limit, on_op)
        else:
            working, rounds = workloads.batch_shared_plan(seed)
            harness.warm_working_set(transport, working)
            before = [harness.stats(transport)]
            transports = [harness.InProcess(service) for _ in range(workloads.CONNECTIONS)]
            tally, sent = harness.run_batch_shared(transports, rounds, seconds, limit, on_op)
        after = [harness.stats(transport)]
    finally:
        service.close()
    return {"tally": tally, "sent": sent, "before": before, "after": after}


def _cache_delta(run: Dict[str, Any], cache: str, field: str) -> int:
    # Every service in a process shares the registered caches: read one.
    return run["after"][0]["caches"][cache][field] - run["before"][0]["caches"][cache][field]


def _unique_holds_keys(workload: str, sent: List[Any]) -> int:
    if workload == "sweep-drive":
        # Each sweep point asks holds once, on a scheme instance of its own.
        return sum(
            len(op.spec["sizes"]) for op in sent if op.spec["kind"] == "sweep"
        )
    if workload == "batch-shared":
        # The working set was decided before the pass; only fresh keys compute.
        return len({instance.key for plan in sent for instance in plan.fresh})
    return len({instance.key for instance in sent})


def run_traced(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    import harness
    import workloads
    from tracer import Tracer

    # One untimed op first, so lazy imports and first-call set-up land in
    # neither pass.  Half the run then measures the untraced pass; the
    # traced replay of the same ops takes about as long again.
    _pass(workload, seed, None, 1)
    plain = _pass(workload, seed, seconds / 2.0, None)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _pass(workload, seed, None, len(plain["sent"]), tracer)
    finally:
        tracer.uninstall()
    startup_s = 0.0
    if workload == "sweep-drive":
        fleet, _ = harness.start_measured(lambda: harness.Fleet(FLEET_MEMBERS), 1)
        startup_s = fleet.announced_s
        fleet.stop()
    tally = traced["tally"]
    sent = traced["sent"]
    ops = tally.attempted
    analysis = tracer.analyse()

    per_op = 1000.0 / ops
    metrics: Dict[str, Dict[str, Any]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = metric(value, unit)

    put("trace.ops", ops, "count")
    put("trace.overhead_ratio", tally.busy_s / plain["tally"].busy_s, "ratio")
    put("trace.coverage", analysis.coverage(), "ratio")
    put("protocol.codec_ms", analysis.layer_self_s("protocol") * per_op, "ms")
    put("protocol.bytes_out", tracer.bytes_out, "bytes")
    waits = tracer.queue_waits
    put("service.queue_wait_ms", statistics.mean(waits) * 1000.0 if waits else 0.0, "ms")
    put("service.self_ms", analysis.layer_self_s("service") * per_op, "ms")
    put("resolve.ms", analysis.layer_self_s("resolve") * per_op, "ms")
    put("resolve.formula_compile_misses", _cache_delta(traced, "formula_compile", "misses"), "count")
    put("graphs.build_ms", analysis.layer_self_s("graphs") * per_op, "ms")
    put("oracle.holds_ms", analysis.layer_self_s("oracle") * per_op, "ms")
    put("oracle.calls", analysis.count("oracle.holds"), "count")
    put("prove.ms", analysis.layer_self_s("prove") * per_op, "ms")
    label_ops: Dict[str, int] = {}
    for item in sent:
        label_ops[item.label] = label_ops.get(item.label, 0) + 1
    for label in workloads.LABELS:
        count = label_ops.get(label, 0)
        for layer, prefix in (("oracle", "oracle.holds_ms"), ("prove", "prove.ms")):
            value = analysis.layer_self_s(layer, lambda item, label=label: item.label == label)
            put(f"{prefix}.{label}", value * 1000.0 / count if count else 0.0, "ms")
    put("engines.verify_ms", analysis.layer_self_s("engines") * per_op, "ms")
    put("engines.assignments", tracer.assignments, "count")
    put("engines.simulations", tracer.simulations, "count")
    for engine in ENGINES:
        routed = sum(
            after["service"]["routing"].get(engine, 0) - before["service"]["routing"].get(engine, 0)
            for before, after in zip(traced["before"], traced["after"])
        )
        put(f"engines.routed.{engine}", routed, "count")
    for cache in CACHES:
        for field in ("hits", "misses"):
            put(f"caching.{cache}.{field}", _cache_delta(traced, cache, field), "count")
    hits = _cache_delta(traced, "holds", "hits")
    misses = _cache_delta(traced, "holds", "misses")
    put("caching.holds.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
    put("caching.holds.dup_computes", misses - _unique_holds_keys(workload, sent), "count")

    point_ms: List[float] = []
    dispatch_ms: List[float] = []
    attempts = 0
    shard_compute = analysis.by_op("protocol.handle_line")
    walls = analysis.op_walls()
    for op_id, root in analysis.ops.items():
        if root.report is None:
            continue
        point_ms.extend(p["elapsed_s"] * 1000.0 for p in root.report.result.to_dict()["points"])
        attempts += sum(root.report.attempts.values())
        dispatch_ms.append((walls[op_id] - max(shard_compute.get(op_id, [0.0]))) * 1000.0)
    merges = analysis.by_op("fabric.merge")
    put("experiments.point_ms", statistics.mean(point_ms) if point_ms else 0.0, "ms")
    put("experiments.points", len(point_ms), "count")
    put("experiments.self_ms", analysis.layer_self_s("experiments") * per_op, "ms")
    put("fabric.startup_s", startup_s, "s")
    put("fabric.dispatch_ms", statistics.mean(dispatch_ms) if dispatch_ms else 0.0, "ms")
    put("fabric.merge_ms",
        sum(sum(v) for v in merges.values()) * 1000.0 / len(dispatch_ms) if dispatch_ms else 0.0,
        "ms")
    put("fabric.attempts", attempts, "count")

    share = shared_share(sent) if workload == "batch-shared" else None
    props = properties(sent, share)
    put("workload.unique_instances", props["unique_instances"], "count")
    put("workload.yes_share", props["yes"] / props["requests"] if props["requests"] else 0.0, "ratio")
    put("workload.shared_share", share or 0.0, "ratio")

    layers = ("protocol", "service", "resolve", "graphs", "oracle", "prove", "engines",
              "experiments", "fabric")
    self_ms = {layer: analysis.layer_self_s(layer) * 1000.0 for layer in layers}
    print(f"workload {workload} seed {seed}: traced {ops} ops; layer self ms: "
          + json.dumps({k: round(v, 1) for k, v in sorted(self_ms.items(), key=lambda kv: -kv[1])}))
    print("largest self time: " + max(self_ms, key=self_ms.get))
    write_outputs(workload, seed, metrics, analysis, self_ms)

    agree = tally.verdicts == plain["tally"].verdicts
    if not agree:
        print("traced verdicts differ from the untraced pass")
    for failure in tally.failures:
        print(f"failure: {failure}")
    return {
        "correct": agree and tally.wrong == 0 and plain["tally"].wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def write_outputs(workload: str, seed: int, metrics: Dict[str, Any], analysis: Any,
                  self_ms: Dict[str, float]) -> None:
    """Spans, metrics and the holds/prove cost table of one traced run."""
    OUT.mkdir(exist_ok=True)
    holds = analysis.self_by_label("oracle")
    prove = analysis.self_by_label("prove")
    requests: Dict[Tuple[str, str, int], int] = {}
    for root in analysis.ops.values():
        key = (root.item.label, root.item.family, root.item.size)
        requests[key] = requests.get(key, 0) + 1
    rows = []
    for key in sorted(set(holds) | set(prove)):
        label, family, size = key
        h_s, h_n = holds.get(key, (0.0, 0))
        p_s, p_n = prove.get(key, (0.0, 0))
        rows.append({
            "scheme": label, "family": family, "size": size, "requests": requests.get(key, 0),
            "holds_calls": h_n, "holds_ms": h_s * 1000.0,
            "prove_calls": p_n, "prove_ms": p_s * 1000.0,
        })
    stem = f"{workload}-seed{seed}"
    with open(OUT / f"trace-{stem}.json", "w") as handle:
        json.dump({"metrics": metrics, "layer_self_ms": self_ms, "costs": rows,
                   "spans": analysis.dump()}, handle)
    lines = [
        f"# holds/prove cost table: {workload}, seed {seed}",
        "",
        "Self time in ms, summed over the requests; rows by total cost.",
        "",
        "| scheme | family | size | requests | holds calls | holds ms | prove calls | prove ms |",
        "|---|---|---:|---:|---:|---:|---:|---:|",
    ]
    for row in sorted(rows, key=lambda r: -(r["holds_ms"] + r["prove_ms"])):
        lines.append(
            f"| {row['scheme']} | {row['family']} | {row['size']} | {row['requests']} | "
            f"{row['holds_calls']} | {row['holds_ms']:.1f} | {row['prove_calls']} | "
            f"{row['prove_ms']:.1f} |"
        )
    (OUT / f"costs-{stem}.md").write_text("\n".join(lines) + "\n")
    print(f"spans and costs written to {OUT.relative_to(ROOT)}/trace-{stem}.json, costs-{stem}.md")


WORKLOADS = ("certify-cold", "batch-shared", "sweep-drive")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # A terminated run unwinds like an error, so its servers are killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = run_traced if args.trace else run_untraced
    result = run(args.workload, args.seed, args.seconds)
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
