"""The benchmark's four workloads: input generation, runs, checks.

Every workload turns ``--seed`` into a JSON-able input spec first
(:func:`make_spec`); the program only ever sees those generated inputs.
The runners drive the program through its public surfaces (the
``repro.analysis`` library, ``ExplorationEngine.scan`` over a ``sqlite:``
store, and ``repro serve`` over HTTP) and check every output against
``truth.json``.  A wrong output counts as a failed operation; it never
aborts the run.

Why each workload exists, and which end-to-end metric each per-layer
metric is expected to move, is recorded in ``README.md`` beside this
file.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRUTH_PATH = BENCH_DIR / "truth.json"

#: Environment variables that would silently change the engine's
#: configuration (workers, store, progress output, fault injection).
CLEARED_ENV = ("REPRO_ENGINE_WORKERS", "REPRO_ENGINE_STORE", "REPRO_PROGRESS", "REPRO_CHAOS")

#: ``repro refute``'s default ``--max-states``.
CLI_MAX_STATES = 600_000

REFUTE_INSTANCES = (("delegation", 5, 1), ("tob", 3, 1), ("arbiter", 4, 1))
REDUCED_INSTANCES = (("delegation", 6, 1), ("tob", 3, 1))
SCAN_INSTANCE = ("delegation", 6, 1)
#: Segment (delta checkpoint) cadence of the scanned store, in expansions.
SCAN_FLUSH_INTERVAL = 10_000
#: The planned stop lands between these shares of the instance's states.
SCAN_STOP_RANGE = (0.25, 0.75)

#: Cold job shapes of ``serve-mix``: (candidate, n, reduction).  Each is
#: requested with every resilience in SERVE_RESILIENCES and every
#: proposal class, so the key pool is candidate x n x f x reduction x
#: proposals.  The shapes are small jobs of similar cost (0.3-1.1 s
#: alone in the server), so the median cold latency does not jump
#: between shapes of very different cost from one seed to the next.
SERVE_SHAPES = (
    ("delegation", 4, "none"),
    ("delegation", 4, "symmetry"),
    ("delegation", 4, "por"),
    ("delegation", 4, "full"),
    ("delegation", 5, "full"),
    ("arbiter", 3, "none"),
    ("arbiter", 3, "full"),
)
SERVE_RESILIENCES = (1, 2)
#: Cache-hit requests that follow each cold request of a client.
SERVE_HITS_PER_COLD = 4
SERVE_TENANTS = 8
SERVE_CLIENTS = 2
#: Rounds per run are ``--seconds`` divided by this, rounded: a fixed
#: number, so that every run serves the same multiset of cold shapes
#: however fast the machine is that day (a round takes 7-9 s on 2 cores).
SERVE_ROUND_SECONDS = 7.5
#: Servers spawned per run to time set-up; the last one serves.
SERVE_SETUPS = 3


def instance_name(candidate: str, n: int, f: int) -> str:
    return f"{candidate}-{n}-{f}"


def verdict_digest(verdict: dict) -> str:
    """sha256 of a verdict document in canonical JSON form."""
    text = json.dumps(verdict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_truth() -> dict:
    with open(TRUTH_PATH, encoding="utf-8") as stream:
        return json.load(stream)


# -- input generation ---------------------------------------------------------


def make_spec(workload: str, seed: int, truth: dict) -> dict:
    """The generated inputs of one run: a pure function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("refute", "refute-reduced"):
        instances = REFUTE_INSTANCES if workload == "refute" else REDUCED_INSTANCES
        order = [list(instance) for instance in instances]
        rng.shuffle(order)
        return {
            "instances": order,
            "reduction": "none" if workload == "refute" else "full",
            "max_states": CLI_MAX_STATES,
        }
    if workload == "scan-sqlite":
        states = truth["scan"][instance_name(*SCAN_INSTANCE)]["states"]
        low, high = SCAN_STOP_RANGE
        stops = [int(states * rng.uniform(low, high)) for _ in range(64)]
        return {
            "instance": list(SCAN_INSTANCE),
            "flush_interval": SCAN_FLUSH_INTERVAL,
            "stops": stops,
        }
    if workload == "serve-mix":
        return _serve_spec(rng, truth)
    raise ValueError(f"unknown workload {workload!r}")


def _serve_spec(rng: random.Random, truth: dict) -> dict:
    """Per-client request streams in rounds of one cold job per shape.

    The proposal classes of every shape are split between the clients,
    so no client ever asks for a key the other one computes: a hit is a
    hit and nothing coalesces.  Each cold request is followed by
    SERVE_HITS_PER_COLD requests for keys the same client already
    computed, each with a seeded symmetric variant of its proposals.
    All clients take the shapes of a round in the same seeded order, so
    the cold jobs that share the server's GIL are jobs of one shape;
    otherwise which jobs happen to overlap, and with them the cold
    latencies and the server's peak memory, would change with the seed.
    """
    clients = min(SERVE_CLIENTS, os.cpu_count() or 1)
    pools: list[dict] = [dict() for _ in range(clients)]
    for candidate, n, reduction in SERVE_SHAPES:
        keys = []
        for f in SERVE_RESILIENCES:
            classes = truth["serve"]["classes"][instance_name(candidate, n, f)]
            keys.extend((f, members) for members in classes)
        rng.shuffle(keys)
        for index, key in enumerate(keys):
            pools[index % clients].setdefault((candidate, n, reduction), []).append(key)
    rounds = min(len(keys) for pool in pools for keys in pool.values())
    orders = []
    for _ in range(rounds):
        order = list(SERVE_SHAPES)
        rng.shuffle(order)
        orders.append(order)
    streams = []
    for pool in pools:
        done: list[tuple] = []
        stream = []
        for round_index, order in enumerate(orders):
            requests = []
            for shape in order:
                candidate, n, reduction = shape
                f, members = pool[shape][round_index]
                done.append((candidate, n, f, reduction, members))
                requests.append(_request(rng, "cold", candidate, n, f, reduction, members))
                for _ in range(SERVE_HITS_PER_COLD):
                    c, cn, cf, cred, cmembers = rng.choice(done)
                    requests.append(_request(rng, "hit", c, cn, cf, cred, cmembers))
            stream.append(requests)
        streams.append(stream)
    return {
        "clients": clients,
        "tenants": SERVE_TENANTS,
        "hits_per_cold": SERVE_HITS_PER_COLD,
        "streams": streams,
    }


def _request(rng, kind, candidate, n, f, reduction, members) -> dict:
    proposals = rng.choice(members)
    return {
        "expect": kind,
        "body": {
            "candidate": candidate,
            "n": n,
            "f": f,
            "reduction": reduction,
            "proposals": {str(pid): value for pid, value in proposals},
            "tenant": f"tenant-{rng.randrange(SERVE_TENANTS)}",
        },
    }


# -- run bookkeeping ----------------------------------------------------------


@dataclass
class RunResult:
    """What one workload run measured and checked."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    #: End-to-end metrics, by the names in BENCHMARK.json.
    metrics: dict = field(default_factory=dict)
    #: Per-layer metrics (traced runs only), by the names in BENCHMARK.json.
    layers: dict = field(default_factory=dict)
    #: Workload-specific figures, printed above the JSON line.
    report: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failures.append(what)


class Context:
    """Per-run scratch space inside the checkout, removed at the end."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.out_dir = ROOT / ".perfbench"
        scratch_root = self.out_dir / "tmp"
        scratch_root.mkdir(parents=True, exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root))
        self.runs_dir = self.fresh_dir("runs")
        self.children: list[subprocess.Popen] = []
        #: Span files of traced operations, merged by :meth:`write_trace`.
        self.span_files: list[Path] = []

    def fresh_dir(self, name: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.scratch))

    def child_env(self) -> dict:
        """The environment of every process the run starts.

        ``TMPDIR`` keeps temporary files (Python's and SQLite's) in the
        run's scratch space too.
        """
        env = {name: value for name, value in os.environ.items() if name not in CLEARED_ENV}
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_RUNS_DIR"] = str(self.runs_dir)
        env["TMPDIR"] = str(self.scratch)
        return env

    def trace_path(self) -> Path:
        return self.out_dir / "traces" / f"{self.workload}-seed{self.seed}.jsonl"

    def write_trace(self) -> None:
        """Merge the span files of this run's traced operations into one file.

        Span ids are unique within an operation; ``op`` tells operations apart.
        """
        path = self.trace_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as merged:
            for span_file in self.span_files:
                with open(span_file, encoding="utf-8") as stream:
                    shutil.copyfileobj(stream, merged)

    def close(self) -> None:
        for child in self.children:
            stop_process(child)
        shutil.rmtree(self.scratch, ignore_errors=True)


def stop_process(process: subprocess.Popen, signum=signal.SIGINT, timeout=30.0) -> None:
    """Stop a child gracefully, then by force; always reap it."""
    if process.poll() is None:
        process.send_signal(signum)
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    for stream in (process.stdout, process.stderr):
        if stream is not None:
            stream.close()


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int] | None:
    """(percentile, value, samples) of the highest percentile that still
    has at least ten samples beyond it, or None with too few samples."""
    ordered = sorted(values)
    count = len(ordered)
    for percentile in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if count * (100.0 - percentile) / 100.0 >= 10:
            rank = min(count - 1, int(count * percentile / 100.0))
            return percentile, ordered[rank], count
    return None


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest child process reaped so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def merge_summaries(summaries) -> dict:
    """Add up per-name span summaries (``calls``, ``total``, ``self``)."""
    merged: dict[str, dict] = {}
    for summary in summaries:
        for name, row in summary.items():
            into = merged.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            for key in into:
                into[key] += row[key]
    return merged


def _layer_table(summary: dict, ops: int) -> dict:
    """Busy time, self time and calls per span name, per operation."""
    table = {}
    for name, row in summary.items():
        table[f"{name}_s"] = row["total"] / ops
        table[f"{name}.self_s"] = row["self"] / ops
        table[f"{name}.calls"] = row["calls"] / ops
    return table


def _engine_layers(table: dict, result: RunResult) -> None:
    """Copy the span table into the per-layer metric names."""
    get = lambda name: table.get(name, 0.0)  # noqa: E731
    layers = result.layers
    layers["analysis.view.successors_s"] = get("analysis.view.successors_s")
    layers["analysis.view.successors.calls"] = get("analysis.view.successors.calls")
    layers["analysis.valence.decision_sets_s"] = get("analysis.valence.decision_sets_s")
    layers["analysis.valence.analyses"] = get("analysis.valence.analyze.calls")
    layers["analysis.hook.find_hook_s"] = get("analysis.hook.find_hook_s")
    layers["analysis.hook.lemma8_s"] = get("analysis.hook.lemma8_s")
    layers["analysis.refutation.silenced_s"] = get("analysis.refutation.silenced_s")
    layers["engine.api.explore_s"] = get("engine.api.explore_s")
    layers["engine.api.self_s"] = get("engine.api.explore.self_s")
    layers["engine.reduction.canon_s"] = get("engine.reduction.canon_s")
    layers["engine.reduction.canon.calls"] = get("engine.reduction.canon.calls")
    layers["engine.reduction.successors_s"] = get("engine.reduction.successors_s")
    for part in ("encode_digest", "decode"):
        layers[f"engine.codec.{part}_s"] = get(f"engine.codec.{part}_s")
        layers[f"engine.codec.{part}.calls"] = get(f"engine.codec.{part}.calls")
    for part in ("add", "get", "flush"):
        layers[f"engine.store.{part}_s"] = get(f"engine.store.{part}_s")
        layers[f"engine.store.{part}.calls"] = get(f"engine.store.{part}.calls")
    encodes = get("engine.codec.encode_digest.calls")
    layers["engine.codec.novel_ratio"] = (
        get("engine.store.add.calls") / encodes if encodes else 0.0
    )
    layers["engine.checkpoint.segments"] = get("engine.checkpoint.save_segment.calls")
    layers["obs.ledger.heartbeat_s"] = get("obs.ledger.heartbeat_s")


# -- operations in fresh interpreters -----------------------------------------

#: Run once before timing, so that byte-compiled modules and the OS file
#: cache are warm before the first measured operation.
WARMUP_INSTANCE = ("delegation", 3, 1)
#: Seconds one operation's interpreter may take before it is killed.
CHILD_TIMEOUT = 120
#: What a failed operation raises; counted as a failure, never fatal.
CHILD_ERRORS = (subprocess.SubprocessError, OSError, ValueError, KeyError)


class ChildFailed(subprocess.SubprocessError):
    """An operation's interpreter exited with an error status."""


def run_child(ctx: Context, request: dict, traced: bool = False) -> dict:
    """Run one operation in a fresh interpreter (``child.py``); return its outputs.

    Every verdict and every scan leg starts from an empty heap, as a CLI
    run does, so no operation pays for the garbage-collector work or the
    caches that an earlier one left behind.  A traced child's spans are
    merged into the run's trace file by :meth:`Context.write_trace`.
    """
    workdir = ctx.fresh_dir("op")
    command = [
        sys.executable,
        str(BENCH_DIR / "child.py"),
        json.dumps(request),
        str(workdir / "out.json"),
    ]
    if traced:
        command.append(str(workdir / "spans.jsonl"))
    completed = subprocess.run(
        command,
        cwd=ctx.scratch,
        env=ctx.child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    if completed.returncode != 0:
        lines = completed.stderr.strip().splitlines() or [f"exit {completed.returncode}"]
        raise ChildFailed(lines[-1])
    if traced:
        ctx.span_files.append(workdir / "spans.jsonl")
    with open(workdir / "out.json", encoding="utf-8") as stream:
        return json.load(stream)


@dataclass
class OpStats:
    """Outputs of the untraced and traced operations of one run."""

    setups: list = field(default_factory=list)
    rss: list = field(default_factory=list)
    summaries: list = field(default_factory=list)

    def add(self, out: dict) -> None:
        if "summary" in out:
            self.summaries.append(out["summary"])
        else:
            self.setups.append(out["setup"])
            self.rss.append(out["peak_rss_mb"])


# -- refute and refute-reduced ------------------------------------------------


def _verdict(ctx, spec, instance, want, op_id, result, stats, traced=False):
    """One checked verdict in a fresh interpreter; returns its outputs or None."""
    request = {
        "op": "verdict",
        "op_id": op_id,
        "instance": list(instance),
        "reduction": spec["reduction"],
        "max_states": spec["max_states"],
    }
    result.attempted += 1
    try:
        out = run_child(ctx, request, traced)
    except CHILD_ERRORS as error:
        result.fail(f"{op_id}: {type(error).__name__}: {error}")
        return None
    stats.add(out)
    problems = []
    if not out["refuted"]:
        problems.append("not refuted")
    if want is not None:
        if out["mechanism"] != want["mechanism"]:
            problems.append(f"mechanism {out['mechanism']}")
        if verdict_digest(out["verdict"]) != want["verdict_sha256"]:
            problems.append("verdict document differs")
        if (out["states"], out["transitions"]) != (want["states"], want["transitions"]):
            problems.append(
                f"explored {out['states']}/{out['transitions']} states/transitions, "
                f"recorded {want['states']}/{want['transitions']}"
            )
        if out["last"] != [want["last_states"], want["last_transitions"]]:
            problems.append("last exploration counts differ")
    if problems:
        result.fail(f"{op_id}: {'; '.join(problems)}")
    return out


def _refute_passes(ctx, spec, truth, seconds, result, stats):
    """Verdict passes until ``seconds`` have elapsed.

    In a traced run every verdict runs twice in a row, untraced and then
    traced, each in its own fresh interpreter.
    """
    expected = truth["refute"][spec["reduction"]]
    _verdict(ctx, spec, WARMUP_INSTANCE, None, "warmup", result, OpStats())
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        record = {"wall": 0.0, "traced_wall": 0.0, "states": 0, "verdicts": {}}
        for candidate, n, f in spec["instances"]:
            name = instance_name(candidate, n, f)
            op_id = f"verdict:{name}:{len(passes)}"
            args = (ctx, spec, (candidate, n, f), expected[name], op_id, result, stats)
            out = _verdict(*args)
            if out is not None:
                record["wall"] += out["wall"]
                record["states"] += out["states"]
                record["verdicts"][name] = out["wall"]
            if ctx.trace:
                out = _verdict(*args, traced=True)
                if out is not None:
                    record["traced_wall"] += out["wall"]
        passes.append(record)
    return passes


def run_refute(ctx: Context, spec: dict, truth: dict, seconds: float) -> RunResult:
    result = RunResult()
    stats = OpStats()
    passes = _refute_passes(ctx, spec, truth, seconds, result, stats)
    walls = [record["wall"] for record in passes]
    rates = [record["states"] / record["wall"] for record in passes if record["wall"] > 0]
    result.metrics["setup_s"] = median(stats.setups)
    result.metrics["op_p50_s"] = median(walls)
    result.metrics["throughput_per_s"] = median(rates)
    result.metrics["peak_rss_mb"] = max(stats.rss, default=0.0)
    result.report["refute_wall_s"] = median(walls)
    result.report["refute_passes"] = len(passes)
    for name in sorted({name for record in passes for name in record["verdicts"]}):
        result.report[f"verdict_s.{name}"] = median(
            [record["verdicts"][name] for record in passes if name in record["verdicts"]]
        )
    if not ctx.trace:
        return result
    ops = len(passes)
    _engine_layers(_layer_table(merge_summaries(stats.summaries), ops), result)
    result.layers["engine.api.states"] = sum(record["states"] for record in passes) / ops
    result.layers["engine.api.transitions"] = sum(
        truth["refute"][spec["reduction"]][name]["transitions"]
        for record in passes
        for name in record["verdicts"]
    ) / ops
    for name in {instance_name(*instance) for instance in REFUTE_INSTANCES + REDUCED_INSTANCES}:
        result.layers[f"analysis.adversary.verdict_s.{name}"] = result.report.get(
            f"verdict_s.{name}", 0.0
        )
    result.layers["trace.overhead_frac"] = (
        sum(record["traced_wall"] for record in passes) / sum(walls) - 1.0
    )
    ctx.write_trace()
    return result


# -- scan-sqlite --------------------------------------------------------------


def _scan_cycle(ctx, spec, instance, stop, want, op_id, result, stats, traced=False):
    """A scan stopped by a budget at ``stop`` states, then resumed to completion.

    Each leg runs in its own fresh interpreter, as a resume after a
    restart would.  Returns the cycle's record, or None if it failed.
    """
    workdir = ctx.fresh_dir("scan")
    request = {
        "op": "scan",
        "op_id": op_id,
        "instance": list(instance),
        "uri": f"sqlite:{workdir / 'store'}?flush={spec['flush_interval']}",
        "checkpoints": str(workdir / "checkpoints"),
        "max_states": stop,
        "resume": False,
    }
    result.attempted += 1
    try:
        first = run_child(ctx, request, traced)
        if first["stopped"] != "states":
            result.fail(f"{op_id}: planned stop at {stop} states did not happen")
            return None
        resumed = run_child(
            ctx, {**request, "max_states": CLI_MAX_STATES, "resume": True}, traced
        )
    except CHILD_ERRORS as error:
        result.fail(f"{op_id}: {type(error).__name__}: {error}")
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stats.add(first)
    stats.add(resumed)
    if resumed["stopped"] is not None:
        result.fail(f"{op_id}: resumed scan ran out of its {resumed['stopped']} budget")
        return None
    if want is not None and (resumed["states"], resumed["transitions"]) != (
        want["states"],
        want["transitions"],
    ):
        result.fail(
            f"{op_id}: resumed scan found {resumed['states']}/{resumed['transitions']} "
            f"states/transitions, uninterrupted count is "
            f"{want['states']}/{want['transitions']}"
        )
    return {
        "wall": first["wall"] + resumed["wall"],
        "states": resumed["states"],
        "spilled": resumed["spilled"],
        "recover": resumed["recover"],
    }


def run_scan(ctx: Context, spec: dict, truth: dict, seconds: float) -> RunResult:
    """Scan cycles until ``seconds`` have elapsed.

    In a traced run every cycle runs twice in a row, untraced and then
    traced, with the same stop point.
    """
    result = RunResult()
    stats = OpStats()
    instance = tuple(spec["instance"])
    want = truth["scan"][instance_name(*instance)]
    _scan_cycle(ctx, spec, WARMUP_INSTANCE, 20, None, "warmup", result, OpStats())
    plain, traced = [], []
    started = time.perf_counter()
    index = 0
    while not plain or time.perf_counter() - started < seconds:
        stop = spec["stops"][index % len(spec["stops"])]
        args = (ctx, spec, instance, stop, want, f"scan:{index}", result, stats)
        record = _scan_cycle(*args)
        if record is not None:
            plain.append(record)
        if ctx.trace:
            record = _scan_cycle(*args, traced=True)
            if record is not None:
                traced.append(record)
        index += 1
    walls = [record["wall"] for record in plain]
    rates = [record["states"] / record["wall"] for record in plain]
    result.metrics["setup_s"] = median(stats.setups)
    result.metrics["op_p50_s"] = median(walls)
    result.metrics["throughput_per_s"] = median(rates)
    result.metrics["peak_rss_mb"] = max(stats.rss, default=0.0)
    result.report["scan_states_per_s"] = median(rates)
    result.report["scan_cycles"] = len(plain)
    if not ctx.trace or not traced or not plain:
        return result
    ops = len(traced)
    _engine_layers(_layer_table(merge_summaries(stats.summaries), ops), result)
    result.layers["engine.api.states"] = float(want["states"])
    result.layers["engine.api.transitions"] = float(want["transitions"])
    result.layers["engine.store.spilled_states"] = sum(r["spilled"] for r in traced) / ops
    result.layers["engine.checkpoint.recover_s"] = median(
        [r["recover"] for r in traced if r["recover"] is not None]
    )
    result.layers["trace.overhead_frac"] = (
        sum(r["wall"] for r in traced) / sum(r["wall"] for r in plain[: len(traced)]) - 1.0
    )
    ctx.write_trace()
    return result


# -- serve-mix ----------------------------------------------------------------


def start_server(ctx: Context, traced: bool, spans_path: Path | None = None):
    """Spawn ``repro serve`` on a fresh data dir; returns (process, port, setup_s).

    Set-up time runs from the spawn to the first 200 reply of /healthz.
    A traced server is started through ``serve_launcher.py``, which
    installs the span wrappers in the server process before it serves.
    """
    data_dir = ctx.fresh_dir("serve-data")
    serve_args = ["serve", "--data-dir", str(data_dir), "--port", "0"]
    if traced:
        command = [
            sys.executable,
            str(BENCH_DIR / "serve_launcher.py"),
            str(spans_path),
            *serve_args,
        ]
    else:
        command = [sys.executable, "-m", "repro", *serve_args]
    errors = open(ctx.scratch / f"server-{len(ctx.children)}.err", "w")
    started = time.perf_counter()
    process = subprocess.Popen(
        command,
        cwd=ctx.scratch,
        env=ctx.child_env(),
        stdout=subprocess.PIPE,
        stderr=errors,
        text=True,
    )
    errors.close()
    ctx.children.append(process)
    ready, _, _ = select.select([process.stdout], [], [], 60)
    banner = process.stdout.readline() if ready else ""
    match = re.search(r"listening on http://[^:]+:(\d+)", banner)
    if match is None:
        raise RuntimeError(f"server did not start: {banner!r}")
    port = int(match.group(1))
    deadline = started + 60
    while True:
        try:
            status, _ = http_request(port, "GET", "/healthz")
            if status == 200:
                break
        except OSError:
            pass
        if time.perf_counter() > deadline:
            raise RuntimeError("server never answered /healthz")
        time.sleep(0.002)
    return process, port, time.perf_counter() - started


def http_request(port: int, method: str, path: str, body: dict | None = None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class _Client:
    """One closed-loop caller: next request only after the last completes."""

    def __init__(self, port: int, rounds: list, truth: dict) -> None:
        self.port = port
        self.rounds = rounds
        self.truth = truth
        self.records: list[dict] = []
        self.cold_verdicts: dict[str, str] = {}

    def run(self) -> None:
        for requests in self.rounds:
            for request in requests:
                self.records.append(self.one(request))

    def one(self, request: dict) -> dict:
        body = request["body"]
        record = {"expect": request["expect"], "kind": None, "error": None}
        truth_key = (
            f"{instance_name(body['candidate'], body['n'], body['f'])}-{body['reduction']}"
        )
        try:
            started = time.perf_counter()
            status, payload = http_request(self.port, "POST", "/jobs", body)
            admitted = time.perf_counter()
            if status == 429:
                record["kind"] = "refused"
                raise _Failed(f"refused (429) for {truth_key}")
            document = json.loads(payload)
            if status == 200 and document.get("cached"):
                record["kind"] = "hit"
                verdict = document["verdict"]
                key = document["key"]
            elif status == 202:
                record["kind"] = "coalesced" if document.get("coalesced") else "cold"
                job_id = document["id"]
                key = document["key"]
                status, _ = http_request(self.port, "GET", f"/jobs/{job_id}/events")
                if status != 200:
                    raise _Failed(f"events stream answered {status}")
                status, payload = http_request(self.port, "GET", f"/jobs/{job_id}")
                if status != 200:
                    raise _Failed(f"job document answered {status}")
                document = json.loads(payload)
                if document["state"] != "completed":
                    raise _Failed(f"job {job_id} ended {document['state']}")
                verdict = document["verdict"]
                record["queue_wait"] = document["started_at"] - document["submitted_at"]
                record["run"] = document["finished_at"] - document["started_at"]
                server_wall = document["finished_at"] - document["submitted_at"]
            else:
                raise _Failed(f"POST /jobs answered {status}")
            latency = time.perf_counter() - started
            record["latency"] = latency
            if record["kind"] != "hit":
                record["admit"] = admitted - started
                record["respond"] = latency - server_wall
            digest = verdict_digest(verdict)
            if digest != self.truth["serve"]["verdicts"][truth_key]:
                raise _Failed(f"verdict for {truth_key} differs from the library's")
            if record["kind"] == "hit":
                cold = self.cold_verdicts.get(key)
                if cold is not None and cold != digest:
                    raise _Failed(f"cache hit for {truth_key} differs from its cold answer")
            else:
                self.cold_verdicts[key] = digest
        except _Failed as failure:
            record["error"] = str(failure)
        except (OSError, ValueError, KeyError, TypeError) as error:
            record["error"] = f"{type(error).__name__}: {error}"
        return record


class _Failed(Exception):
    pass


def _serve_phase(ctx, spec, truth, seconds, result, traced=False, spans_path=None):
    """Serve the seeded streams against one server; returns the phase record."""
    process, port, setup = start_server(ctx, traced, spans_path)
    try:
        rounds = max(1, round(seconds / SERVE_ROUND_SECONDS))
        clients = [_Client(port, stream[:rounds], truth) for stream in spec["streams"]]
        if len(clients) > (os.cpu_count() or 1):
            raise RuntimeError("the load generator may not use more clients than nproc")
        threads = [threading.Thread(target=client.run) for client in clients]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        status, text = http_request(port, "GET", "/metrics")
        counters = _prometheus_counters(text.decode("utf-8")) if status == 200 else {}
    finally:
        stop_process(process)
    records = [record for client in clients for record in client.records]
    return {"setup": setup, "elapsed": elapsed, "records": records, "counters": counters}


def _prometheus_counters(text: str) -> dict:
    counters = {}
    for line in text.splitlines():
        match = re.match(r"^(\w+?)_total(?:\{[^}]*\})? (\S+)$", line)
        if match:
            name = match.group(1)
            counters[name] = counters.get(name, 0.0) + float(match.group(2))
    return counters


def _serve_summary(phase: dict, result: RunResult) -> dict:
    """Count the phase's requests and failures; return its report figures."""
    records = phase["records"]
    result.attempted += len(records)
    for record in records:
        if record["error"] is not None:
            result.fail(record["error"])
    good = [record for record in records if record["error"] is None]
    cold = [record["latency"] for record in good if record["kind"] == "cold"]
    hits = [record["latency"] for record in good if record["kind"] == "hit"]
    return {
        "serve_cold_p50_s": median(cold),
        "serve_cold_tail_s": tail(cold),
        "serve_hit_p50_s": median(hits),
        "serve_hit_tail_s": tail(hits),
        "serve_jobs_per_s": len(good) / phase["elapsed"],
        "serve_cold_jobs": len(cold),
        "serve_hits": len(hits),
        "serve_unexpected_misses": sum(
            1 for record in good if record["expect"] == "hit" and record["kind"] != "hit"
        ),
    }


def _serve_layers(phase: dict, summary: dict, result: RunResult) -> None:
    good = [r for r in phase["records"] if r["error"] is None]
    cold = [r for r in good if r["kind"] == "cold"]
    layers = result.layers
    layers["serve.admit_s"] = median([r["admit"] for r in cold])
    lookup = sum(
        summary.get(name, {}).get("total", 0.0)
        for name in ("serve.lookup.from_json", "serve.lookup.job_key", "serve.lookup.cache_get")
    )
    posts = summary.get("serve.lookup.from_json", {}).get("calls", 0)
    layers["serve.lookup_s"] = lookup / posts if posts else 0.0
    journal = sum(
        summary.get(name, {}).get("total", 0.0)
        for name in ("serve.journal.create", "serve.journal.record_done")
    )
    layers["serve.journal_s"] = journal / len(cold) if cold else 0.0
    layers["serve.queue_wait_s"] = median([r["queue_wait"] for r in cold])
    layers["serve.run_s"] = median([r["run"] for r in cold])
    layers["serve.respond_s"] = median([r["respond"] for r in cold])
    counters = phase["counters"]
    hits = counters.get("repro_serve_cache_hits", 0.0)
    misses = counters.get("repro_serve_cache_misses", 0.0)
    layers["serve.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layers["serve.jobs.coalesced"] = float(sum(1 for r in phase["records"] if r["kind"] == "coalesced"))
    layers["serve.refused"] = float(sum(1 for r in phase["records"] if r["kind"] == "refused"))
    if cold:
        _engine_layers(_layer_table(summary, len(cold)), result)


def run_serve(ctx: Context, spec: dict, truth: dict, seconds: float) -> RunResult:
    """Serve the seeded streams from a plain server.

    A traced run then serves the same streams again from a traced
    server, on a fresh data dir, so every cold job runs the engine again.
    """
    result = RunResult()
    setups = []
    for _ in range(SERVE_SETUPS - 1):
        process, _port, setup = start_server(ctx, traced=False)
        setups.append(setup)
        stop_process(process)
    phase = _serve_phase(ctx, spec, truth, seconds, result)
    setups.append(phase["setup"])
    result.report = _serve_summary(phase, result)
    result.metrics["setup_s"] = median(setups)
    result.metrics["op_p50_s"] = result.report["serve_cold_p50_s"]
    result.metrics["throughput_per_s"] = result.report["serve_jobs_per_s"]
    result.metrics["peak_rss_mb"] = children_peak_rss_mb()
    if not ctx.trace:
        return result
    spans_path = ctx.trace_path()
    traced = _serve_phase(ctx, spec, truth, seconds, result, True, spans_path)
    traced_report = _serve_summary(traced, result)
    with open(spans_path.with_suffix(".summary.json"), encoding="utf-8") as stream:
        summary = json.load(stream)
    _serve_layers(traced, summary, result)
    result.layers["trace.overhead_frac"] = (
        result.report["serve_jobs_per_s"] / traced_report["serve_jobs_per_s"] - 1.0
    )
    return result


RUNNERS = {
    "refute": run_refute,
    "refute-reduced": run_refute,
    "scan-sqlite": run_scan,
    "serve-mix": run_serve,
}
