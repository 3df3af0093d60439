"""The ``serve`` workload: ``repro serve`` in its own process, driven over
two keep-alive connections with a seeded, Zipf-skewed target mix.

Phases, in order:

1. warm-up until the result cache (LRU) is full;
2. saturation: a fixed window of pipelined requests per connection
   (``throughput_per_s``);
3. open loop at :data:`OPEN_LOOP_RATE`, each request timed from its due
   time (p50 and p99 on the description line);
4. :data:`CYCLES` cycles of: :data:`REFRESH_PAIRS` times, publish a
   second graph version and ``POST /refresh``, then publish the served
   version back and ``POST /refresh`` (timed: ``refresh_ms``); then a
   sweep over every distinct target once, on the cache the refresh just
   emptied (timed: ``wall_s``).

Phases 1-3 run on one server, phase 4 on a second one over the same
store.  Set-up (``setup_s``) is spawn until the first
``/health`` 200, the median over these and one more server started
first.  Throughput, set-up, refresh and sweep times are scaled to the
reference host speed by probes taken beside them (:mod:`hostspeed`);
open-loop latency is not, as it does not follow the probe.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from itertools import accumulate
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.service import EvolutionStore
from repro.service.core import DEFAULT_CACHE_SIZE

import hostspeed
import layers
import load
from child import peak_rss_kb
from inputs import serve_targets
from stats import median, nearest_rank, share
from tracing import layer_self_times, self_times

BOOT = Path(__file__).resolve().parent / "serve_boot.py"
#: Offered rate of the open-loop phase (requests per second).  About a
#: tenth of what one server process sustains on a 2-core box (about
#: 10k/s in the saturation phase), so the phase measures latency, not
#: queueing.
OPEN_LOOP_RATE = 1000.0
#: Pipelined requests in flight per connection in the saturation phase.
WINDOW = 32
#: Zipf exponent of the target mix: with about 3.7k distinct targets and
#: a 1024-entry LRU it gives a hit rate near 0.8.
ZIPF_EXPONENT = 1.0
#: Refresh-and-sweep cycles per run, and swaps away and back per cycle.
CYCLES, REFRESH_PAIRS = 5, 2
#: Equal slices of the saturation phase (throughput) and of the open
#: loop.  Throughput is the median over its slices, each scaled by the
#: probes on either side.  The open-loop p50 (median of the slice
#: medians) and p99 (over all samples: 6000 at the default 20 s, 60
#: beyond it; 1000 a slice), and each slice's p50 and p99, are on the
#: description line only: host wake-up delays and stalls decide them
#: (README.md, "Steadiness").
SATURATION_SLICES, OPEN_LOOP_SLICES = 9, 6
STARTUP_TIMEOUT_S = 60.0
#: Shares of ``--seconds`` spent in the saturation and open-loop phases.
SATURATION_SHARE, OPEN_LOOP_SHARE = 0.35, 0.3
#: The server runs on this CPU and the client on the others; host-speed
#: probes run here too, where the work they scale is done.
SERVER_CPU = max(os.sched_getaffinity(0))


class Server:
    """One ``repro serve --port 0`` process (traced: under
    ``serve_boot.py``, which writes its spans to ``spans_path`` on exit);
    its stdout goes to a log file in the run directory, where it
    announces its port.  ``setup_s`` is spawn to the first ``/health``
    200, scaled by host-speed probes taken just before and after."""

    def __init__(self, root: Path, store: Path, env: Dict[str, str],
                 log: Path, spans_path: Optional[Path] = None):
        arguments = ["serve", str(store), "--port", "0"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli"] + arguments
        else:
            command = [sys.executable, str(BOOT), str(spans_path), "--"] + arguments
        self.control, self.peak_rss_kb = None, None
        probes = [hostspeed.probe_s(SERVER_CPU)]
        with open(log, "wb") as out:
            spawned = time.perf_counter()
            self.process = subprocess.Popen(
                command, cwd=root, env=env, stdin=subprocess.DEVNULL,
                stdout=out)
        try:
            os.sched_setaffinity(self.process.pid, {SERVER_CPU})
            self.port = self._read_port(log)
            self.control = load.Connection(self.port)
            status, _ = self.control.call("GET", "/health")
            self.raw_setup_s = time.perf_counter() - spawned
            if status != 200:
                raise RuntimeError(f"/health answered {status}")
            probes.append(hostspeed.probe_s(SERVER_CPU))
        except BaseException:
            self.stop()
            raise
        self.setup_s = self.raw_setup_s / hostspeed.slowdown(probes)

    @staticmethod
    def _read_port(log: Path) -> int:
        deadline = time.perf_counter() + STARTUP_TIMEOUT_S
        while time.perf_counter() < deadline:
            text = log.read_text(encoding="utf-8", errors="replace")
            if "\n" in text:
                return int(text.split("\n", 1)[0].strip().rsplit(":", 1)[1])
            time.sleep(0.001)
        raise RuntimeError("server did not report its port in time")

    def stats(self) -> dict:
        status, body = self.control.call("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """Record the peak RSS of the process, then interrupt and reap it."""
        if self.control is not None:
            self.control.close()
        if self.process.poll() is None:
            self.peak_rss_kb = peak_rss_kb(self.process.pid)
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise RuntimeError("server did not stop on SIGINT")


class Mix:
    """The seeded request mix: Zipf ranks over a seeded order of the
    distinct targets."""

    def __init__(self, targets: Sequence[str], seed: int) -> None:
        self.targets = list(targets)
        self.requests = [load.request_bytes("GET", t) for t in self.targets]
        rng = random.Random(f"perfbench-serve-{seed}")
        self.order = list(range(len(self.targets)))
        rng.shuffle(self.order)
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
                   for rank in range(len(self.order))]
        self.cumulative = list(accumulate(weights))
        self.rng = rng

    def draw(self, count: int) -> List[int]:
        ranks = self.rng.choices(range(len(self.order)),
                                 cum_weights=self.cumulative, k=count)
        return [self.order[rank] for rank in ranks]


def _bad(responses, expected: Sequence[bytes]) -> int:
    """Responses that are not 200 or whose body differs from the
    reference body of their target."""
    return sum(1 for target, status, body in responses
               if status != 200 or body != expected[target])


def _warm_up(server: Server, mix: Mix, report: dict, expected) -> None:
    sent, capacity = 0, min(DEFAULT_CACHE_SIZE, len(mix.targets))
    for _ in range(40):
        stream = mix.draw(2 * 1024)
        responses, _, _ = load.pipelined(
            server.port, mix.requests, [stream[0::2], stream[1::2]], WINDOW)
        report["failed"] += _bad(responses, expected)
        sent += len(responses)
        if server.stats()["cache_entries"] >= capacity:
            break
    else:
        report["problems"].append("warm-up never filled the LRU")
    report["attempted"] += sent
    report["phases"]["warmup"] = {"sent": sent}


def _saturate(server: Server, mix: Mix, seconds: float, report: dict,
              expected) -> float:
    """Throughput: the median over :data:`SATURATION_SLICES` equal slices
    of each slice's rate, scaled by the host-speed probes on either side
    of it."""
    before = server.stats()
    probes = [hostspeed.probe_s(SERVER_CPU)]
    rates, sent, bad = [], 0, 0
    for _ in range(SATURATION_SLICES):
        stream = mix.draw(200_000)
        until = time.perf_counter() + seconds / SATURATION_SLICES
        responses, begin, marks = load.pipelined(
            server.port, mix.requests, [stream[0::2], stream[1::2]], WINDOW,
            until=until)
        probes.append(hostspeed.probe_s(SERVER_CPU))
        rates.append(len(responses) / (marks[-1][0] - begin))
        sent += len(responses)
        bad += _bad(responses, expected)
    after = server.stats()
    report["attempted"] += sent
    report["failed"] += bad
    report["phases"]["saturation"] = {
        "sent": sent, "succeeded": sent - bad, "failed": bad,
        "window": WINDOW, "hit_rate": _hit_rate(before, after),
        "raw_per_slice_per_s": rates, "probes_s": probes,
    }
    return median([rate * hostspeed.slowdown(probes[k:k + 2])
                   for k, rate in enumerate(rates)])


def _hit_rate(before: dict, after: dict) -> float:
    hits = after["cache_hits"] - before["cache_hits"]
    misses = after["cache_misses"] - before["cache_misses"]
    return share(hits, hits + misses)


def _open_loop(server: Server, mix: Mix, seconds: float, report: dict,
               expected):
    before = server.stats()
    count = max(1, int(OPEN_LOOP_RATE * seconds))
    phase = load.OpenLoop(server.port, mix.requests, mix.draw(count),
                          OPEN_LOOP_RATE)
    phase.run()
    after = server.stats()
    responses = phase.responses
    bad = _bad(responses, expected)
    first, last = phase.due[0], max(phase.done_at)
    achieved = count / (last - first) if last > first else 0.0
    lateness = [sent - due for sent, due in zip(phase.sent_at, phase.due)]
    quarter = max(1, len(phase.backlog) // 4)
    head = sum(b for _, b in phase.backlog[:quarter]) / quarter
    tail = sum(b for _, b in phase.backlog[-quarter:]) / quarter
    growing = tail > 2 * head + 4
    short = achieved < 0.95 * OPEN_LOOP_RATE
    latencies = [(done - due) * 1000.0
                 for done, due in zip(phase.done_at, phase.due)]
    size = count // OPEN_LOOP_SLICES
    slices = [latencies[k * size:(k + 1) * size]
              for k in range(OPEN_LOOP_SLICES)]
    middles = [median(part) for part in slices]
    tails = [nearest_rank(part, 0.99) for part in slices]
    p99 = nearest_rank(latencies, 0.99)
    report["attempted"] += count
    report["phases"]["open_loop"] = {
        "sent": count, "succeeded": count - bad, "failed": bad,
        "offered_per_s": OPEN_LOOP_RATE, "achieved_per_s": achieved,
        "lateness_p50_ms": median(lateness) * 1000.0,
        "lateness_p99_ms": nearest_rank(lateness, 0.99) * 1000.0,
        "from_send_p50_ms": median([(done - sent) * 1000.0 for done, sent
                                    in zip(phase.done_at, phase.sent_at)]),
        "lateness_max_ms": max(lateness) * 1000.0,
        "backlog_first_quarter": head, "backlog_last_quarter": tail,
        "hit_rate": _hit_rate(before, after),
        "samples": count, "samples_beyond_p99": count - math.ceil(0.99 * count),
        "p50_ms": median(middles), "p99_ms": p99, "slices": OPEN_LOOP_SLICES,
        "p50_per_slice_ms": middles, "p99_per_slice_ms": tails,
    }
    if growing or short:
        # A phase that could not hold its offered rate measures the
        # generator or a collapse, not latency: all of it fails.
        report["failed"] += count - bad
        report["problems"].append(
            "open-loop backlog grew" if growing else
            f"open loop achieved {achieved:.0f}/s of {OPEN_LOOP_RATE:.0f}/s")
        return False, phase, (before, after)
    report["failed"] += bad
    return True, phase, (before, after)


def _cycles(server: Server, mix: Mix, store: Path, graphs, versions,
            report: dict, expected, cycles: int):
    """Refresh away and back, then sweep every target cold; returns the
    swap-back refresh latencies (ms) and the sweep wall clocks (s).  A
    host-speed probe follows each of them, and each is scaled by the
    probes on either side of it."""
    publisher = EvolutionStore(store)
    raw = {"refresh_ms": [], "sweep_s": []}
    scaled = {"refresh_ms": [], "sweep_s": []}
    probes = [hostspeed.probe_s(SERVER_CPU)]

    def record(name: str, value: float) -> None:
        probes.append(hostspeed.probe_s(SERVER_CPU))
        raw[name].append(value)
        scaled[name].append(value / hostspeed.slowdown(probes[-2:]))

    everything = list(range(len(mix.targets)))
    swaps = ((graphs[1], versions[1], False),
             (graphs[0], versions[0], True)) * REFRESH_PAIRS
    for cycle in range(cycles):
        for graph, version, timed in swaps:
            publisher.publish(graph)
            start = time.perf_counter()
            status, body = server.control.call("POST", "/refresh")
            elapsed = (time.perf_counter() - start) * 1000.0
            report["attempted"] += 1
            answer = json.loads(body) if status == 200 else {}
            if answer.get("graph_version") != version or not answer.get("refreshed"):
                report["failed"] += 1
                report["problems"].append(
                    f"refresh reported {answer or status}, expected {version}")
            elif timed:
                record("refresh_ms", elapsed)
        order = list(everything)
        random.Random(f"perfbench-sweep-{cycle}").shuffle(order)
        responses, begin, marks = load.pipelined(
            server.port, mix.requests, [order[0::2], order[1::2]], WINDOW)
        record("sweep_s", marks[-1][0] - begin)
        report["attempted"] += len(responses)
        report["failed"] += _bad(responses, expected)
        if len(responses) != len(order):
            report["failed"] += len(order) - len(responses)
    report["phases"]["refresh_sweep"] = {
        "cycles": cycles, "refreshes": len(swaps) * cycles,
        "sweep_requests": cycles * len(everything),
        "raw_refresh_ms": raw["refresh_ms"], "raw_sweep_s": raw["sweep_s"],
        "probes_s": probes,
    }
    return scaled["refresh_ms"], scaled["sweep_s"]


def run(root: Path, inputs: Path, manifest: dict, seed: int, seconds: float,
        traced: bool, run_dir: Path, env: Dict[str, str],
        trace_path: Path) -> dict:
    store = run_dir / "store"
    shutil.copytree(inputs / "store_served", store)
    graphs = [EvolutionStore(inputs / "store_served").load_graph(),
              EvolutionStore(inputs / "store_other").load_graph()]
    versions = [manifest["graph_version"], manifest["other_version"]]
    targets = serve_targets(graphs[0])
    bodies = json.loads((inputs / "bodies.json").read_text(encoding="utf-8"))
    expected = [bodies[target].encode("utf-8") for target in targets]
    mix = Mix(targets, seed)
    cycles = CYCLES if seconds >= 10 else 1
    report = {"attempted": 0, "failed": 0, "problems": [], "phases": {}}

    spans = [run_dir / "spans_load.json", run_dir / "spans_refresh.json"]
    servers: List[Server] = []

    def start(spans_path: Optional[Path] = None) -> Server:
        log = run_dir / f"server{len(servers)}.log"
        servers.append(Server(root, store, env, log, spans_path))
        return servers[-1]

    # The generator's own collector pauses would show up as lateness.
    gc.disable()
    allowed = os.sched_getaffinity(0)
    spinners = None
    try:
        spinners = load.Spinners()
        if len(allowed) > 1:
            os.sched_setaffinity(0, allowed - {SERVER_CPU})
        if traced:
            # Untraced sweeps first: the tracing overhead is measured on
            # the same operation against the same store.
            server = start()
            try:
                _, plain_sweeps = _cycles(server, mix, store, graphs,
                                          versions, report, expected, cycles)
            finally:
                server.stop()
        else:
            start().stop()
        # Load phases and refresh cycles run on separate servers: how
        # many replaced graphs a refresh leaves for the collector would
        # otherwise decide the load server's peak RSS.
        server = start(spans[0] if traced else None)
        try:
            _warm_up(server, mix, report, expected)
            throughput = _saturate(server, mix, SATURATION_SHARE * seconds,
                                   report, expected)
            steady, phase, stats = _open_loop(
                server, mix, OPEN_LOOP_SHARE * seconds, report, expected)
        finally:
            server.stop()
        peak_rss_kb = server.peak_rss_kb
        if peak_rss_kb is None:
            raise RuntimeError("the load server exited before it was stopped")
        server = start(spans[1] if traced else None)
        try:
            refreshes, sweeps = _cycles(server, mix, store, graphs, versions,
                                        report, expected, cycles)
        finally:
            server.stop()
    finally:
        os.sched_setaffinity(0, allowed)
        if spinners is not None:
            spinners.close()
        gc.enable()

    if traced:
        traces = [json.loads(path.read_text()) for path in spans]
        trace_path.write_text(json.dumps(traces))
        report["metrics"] = _layer_metrics(traces, phase, stats,
                                           plain_sweeps, sweeps)
        return report
    report["phases"]["servers"] = {
        "raw_setup_s": [server.raw_setup_s for server in servers]}
    if not steady or not refreshes:
        report["metrics"] = {}
        return report
    report["metrics"] = {
        "setup_s": (median([server.setup_s for server in servers]), "s"),
        "wall_s": (median(sweeps), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "throughput_per_s": (throughput, "1/s"),
        "refresh_ms": (median(refreshes), "ms"),
    }
    return report


def _layer_metrics(traces: List[dict], phase: "load.OpenLoop", stats,
                   plain_sweeps: List[float], sweeps: List[float]) -> dict:
    """Per-layer metrics: request layers over the open-loop phase of the
    traced load server, store reloads on the traced refresh server."""
    spans, refresh_spans = traces[0]["spans"], traces[1]["spans"]
    window = (phase.due[0], max(phase.done_at))
    requests = {span["id"]: span for span in spans
                if span["name"] == "service.core"
                and window[0] <= span["start"] <= window[1]}
    # Request trees: a handle_request span and the query spans in it.
    in_phase = [span for span in spans
                if span["id"] in requests or span["parent"] in requests]
    by_layer = layer_self_times(in_phase)
    roots = list(requests.values())
    unaccounted = (sum(s["end"] - s["start"] for s in roots)
                   - sum(by_layer.values()))
    inside_cpu = sum(s["cpu_end"] - s["cpu_start"] for s in roots)
    process_cpu = (max(s["cpu_end"] for s in roots)
                   - min(s["cpu_start"] for s in roots)) if roots else 0.0
    server_time = {(s["tags"]["conn"], s["tags"]["seq"]): s["end"] - s["start"]
                   for s in roots}
    waits = [phase.done_at[i] - phase.due[i] - server_time[request_id]
             for i, request_id in phase.ids.items()
             if request_id in server_time]
    before, after = stats
    refresh_own = self_times(refresh_spans)
    loads = [refresh_own[s["id"]] for s in refresh_spans
             if s["name"] == "service.store.load"]
    values = {name: 0.0 for name, _ in layers.PER_LAYER}
    values.update({
        "service.core.self_s": by_layer.get("service.core", 0.0),
        "evolution.queries.self_s": by_layer.get("evolution.queries", 0.0),
        "service.core.requests": after["requests"] - before["requests"],
        "service.core.cache_hit_share": _hit_rate(before, after),
        "service.http.busy_s": process_cpu - inside_cpu,
        "service.http.wait_ms": (sum(waits) / len(waits) * 1000.0
                                 if waits else 0.0),
        "service.store.load_s": median(loads) if loads else 0.0,
        "root.self_s": by_layer.get("service.core", 0.0),
        "trace.unaccounted_s": unaccounted,
        "trace.overhead_s": median(sweeps) - median(plain_sweeps),
        "trace.spans": len(spans) + len(refresh_spans),
    })
    return {name: (values[name], unit) for name, unit in layers.PER_LAYER}
