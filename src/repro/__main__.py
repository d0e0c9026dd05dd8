"""Command-line entry point: ``python -m repro <command>``.

Exposes the headline reproductions without writing any code:

* ``refute``  — run the full Theorem 2/9 adversary pipeline against a
  built-in candidate and print the witness, stage by stage;
* ``trace``   — run the same pipeline with the tracer on, writing a JSONL
  event trace replayable via :mod:`repro.obs.replay`;
* ``stats``   — run the pipeline with metrics on and print the registry;
* ``obs``     — inspect traces offline: ``obs summarize`` (per-span
  latency table), ``obs flame`` (folded stacks for flamegraph.pl),
  ``obs diff`` (compare two traces), ``obs chrome`` (Chrome
  ``trace_event`` JSON for chrome://tracing / Perfetto), and ``obs
  prom`` (Prometheus textfile from a trace or a metrics snapshot);
* ``boost-kset`` — run the Section 4 possibility construction;
* ``boost-fd``   — run the Section 6.3 possibility construction;
* ``paxos``      — run the shared-memory Paxos extension;
* ``serve``      — run the long-lived verdict server: ``POST /jobs``
  analysis requests over HTTP/JSON, answered from a fingerprint-keyed
  verdict cache when possible, scheduled fairly across tenants
  otherwise (see :mod:`repro.serve` and ``docs/serve.md``);
* ``sim``        — one seeded deterministic simulation of a candidate
  over a :class:`~repro.sim.FaultyNetwork`, or ``sim --replay FILE``:
  bit-for-bit verification of a saved counterexample script (exit 1 on
  divergence);
* ``fuzz``       — seeded adversary fuzzing: random candidates and
  fault schedules, safety/liveness checks each run, failing schedules
  shrunk to minimal replay scripts (see ``docs/simulation.md``);
* ``runs``       — inspect the run ledger: every pipeline, sim, fuzz,
  serve, and benchmark run registers a durable run id under
  ``--runs-dir`` (default ``$REPRO_RUNS_DIR``, else ``.repro/runs``);
  ``runs list``/``show`` reconstruct finished or crashed runs, ``runs
  tail`` follows a live run's heartbeat from another process, ``runs
  diff`` compares two runs' counters, and ``runs gc`` compacts the
  ledger (see ``docs/observability.md``);
* ``list``       — list the built-in candidates and constructions.

``repro --version`` prints the package version (also reported by the
server's ``/healthz`` and embedded in every JSON error document).

Exit codes for ``refute``/``trace``/``stats``: 0 when the candidate was
refuted, 1 when it was not, 2 when the exploration budget
(``--max-states`` / ``--deadline``) was exhausted before the pipeline
finished — in which case the checkpoint path and the exact resume
command are printed, so the run is continuable, not just dead.  An
engine failure (a checkpoint the run cannot use, a store error) is an
error on stderr and exit 1.

The pipeline commands drive :class:`repro.engine.ExplorationEngine`
directly, in one process: ``--deadline SECONDS`` bounds each stage's
wall clock, and ``--checkpoint DIR`` / ``--resume DIR`` snapshot
interrupted explorations and continue them on the next invocation
instead of starting over (under the same ``--store``, which must then
name a path: a scratch ``--store sqlite`` is a usage error).  ``--store URI`` keeps
packed states in a disk-backed :class:`~repro.engine.StateStore`
(``sqlite:/path``; default from ``$REPRO_ENGINE_STORE``, else no store)
with streaming delta checkpoints, and
``--rss-limit-mb MB`` enforces an address-space ceiling on the run.  ``--json`` replaces the narrative
with one machine-readable document built from the results' shared
``summary()``/``to_json()`` protocol.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys

from .serve.wire import CANDIDATES, WireError, build_system, package_version


def _build_candidate(name: str, n: int, resilience: int):
    try:
        return build_system(name, n, resilience)
    except WireError as error:
        raise SystemExit(error.detail) from None


def _store_uri(text: str) -> str:
    """``--store`` type: a URI :meth:`~repro.engine.StoreConfig.from_uri` accepts.

    Rejecting a bad URI at parse time makes it a usage error (exit 2)
    before any run-ledger record exists.
    """
    from .engine import StoreConfig

    try:
        StoreConfig.from_uri(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text


def _balanced_proposals(system) -> dict:
    """Alternating 0/1 proposals (the probe/bench convention)."""
    return {endpoint: index % 2 for index, endpoint in enumerate(system.process_ids)}


def _print_exploration_summary(metrics, elapsed: float) -> None:
    counters = metrics.snapshot()["counters"]
    states = counters.get("explore.states", 0)
    transitions = counters.get("explore.transitions", 0)
    print(
        f"Explored {states} states / {transitions} transitions "
        f"in {elapsed:.3f}s"
    )


def _apply_rss_limit(limit_mb: int, say) -> None:
    """Enforce ``limit_mb`` MiB of address space via ``setrlimit``.

    ``RLIMIT_RSS`` is a no-op on modern Linux kernels, so the ceiling is
    applied to ``RLIMIT_AS`` instead — a slight over-approximation of
    resident size (it counts mapped-but-untouched pages), which is the
    conservative direction for a memory ceiling.  Failure to apply the
    limit (unsupported platform, cap below current usage) warns and
    continues rather than killing the run: the engine still records
    ``peak_rss_kb`` against ``rss_limit_mb`` in its report.
    """
    try:
        import resource

        limit = limit_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ImportError, ValueError, OSError) as error:
        print(
            f"warning: could not enforce --rss-limit-mb {limit_mb}: {error}",
            file=sys.stderr,
        )
    else:
        say(f"RSS ceiling: {limit_mb} MB (RLIMIT_AS)")


def _open_run_handle(
    args: argparse.Namespace,
    kind: str,
    instance: str,
    *,
    budget: dict | None = None,
    store: str | None = None,
    artifacts: dict | None = None,
):
    """Mint a run-ledger record for this invocation, or ``None``.

    The directory comes from ``--runs-dir``, then ``$REPRO_RUNS_DIR``,
    then ``.repro/runs``; the disabled spellings (``none``, ``off``,
    ``0``, empty) return ``None`` and the command runs ledger-less.  An
    unwritable ledger warns and degrades rather than failing the run.
    """
    from .obs.ledger import RunLedger, resolve_runs_dir

    directory = resolve_runs_dir(getattr(args, "runs_dir", None))
    if directory is None:
        return None
    try:
        return RunLedger(directory).open(
            kind,
            instance,
            budget=budget,
            store=store,
            artifacts=artifacts,
        )
    except OSError as error:
        print(f"warning: run ledger unavailable: {error}", file=sys.stderr)
        return None


def _ledger_counters(metrics) -> dict:
    """The numeric counters and gauges a terminal run record carries."""
    snapshot = metrics.snapshot()
    values = {**snapshot.get("gauges", {}), **snapshot.get("counters", {})}
    return {
        name: value
        for name, value in values.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def _finish_run(run, status: str, counters: dict, **fields) -> None:
    """Append a run's terminal record, its phases read off ``counters``.

    The ``engine.phase.*`` counters sum every exploration of the run, so
    the record's ``phases`` and ``counters`` cover the same work.
    """
    prefix = "engine.phase."
    run.finish(
        status,
        counters=counters,
        phases={
            name[len(prefix):]: value
            for name, value in counters.items()
            if name.startswith(prefix)
        },
        **fields,
    )


def _run_pipeline(args: argparse.Namespace, tracer, metrics, run_artifacts=None):
    """Shared refute/trace/stats driver.

    Returns ``(verdict|None, exit_code, document|None)``: ``verdict=None``
    with exit code 2 means the budget was exhausted (the metrics registry
    still holds the work done so far); ``document`` is the
    JSON-serializable report built from the shared ``summary()``/
    ``to_json()`` protocol when ``--json`` was given, else ``None``.

    Unless the ledger is disabled the run registers a run id
    (``repro runs show <id>``), threads it through the tracer into every
    trace event, and appends a terminal record — ``completed``,
    ``exhausted`` or ``failed`` (an :class:`~repro.engine.EngineError`
    such as a store error, or a checkpoint that cannot be resumed: its
    message goes to stderr and the process exits 1) — when the pipeline
    ends; a crash leaves the record non-terminal, which readers derive
    as ``interrupted``.
    """
    from .analysis import ExplorationBudget, format_verdict, refute_candidate
    from .engine import (
        Budget,
        CheckpointError,
        EngineError,
        ExplorationEngine,
        ReductionConfig,
    )
    from .obs import timed

    emit_json = bool(getattr(args, "json", False))
    say = (lambda *a, **k: None) if emit_json else print
    system = _build_candidate(args.candidate, args.n, args.resilience)
    say(f"Candidate: {args.candidate} (n={args.n}, f={args.resilience})")
    reduction = ReductionConfig.from_name(getattr(args, "reduction", "none"))
    audit = getattr(args, "audit_reduction", False)
    if audit and not reduction.enabled:
        raise SystemExit("--audit-reduction requires --reduction other than none")
    checkpoint_dir = args.resume if args.resume is not None else args.checkpoint
    store = getattr(args, "store", None)
    rss_limit_mb = getattr(args, "rss_limit_mb", None)
    if rss_limit_mb is not None:
        _apply_rss_limit(rss_limit_mb, say)
    budget = Budget(max_states=args.max_states, deadline_seconds=args.deadline)
    artifacts = dict(run_artifacts or {})
    if checkpoint_dir is not None:
        # In the opening record, not finish(): an interrupted run must
        # still tell `repro runs show` how to resume.
        artifacts["checkpoint_dir"] = str(checkpoint_dir)
        artifacts["resume"] = (
            f"repro {args.command} {args.candidate} -n {args.n} "
            f"-f {args.resilience} --resume {checkpoint_dir}"
        )
        if store is not None:
            artifacts["resume"] += f" --store {shlex.quote(store)}"
    run = _open_run_handle(
        args,
        getattr(args, "command", "refute") or "refute",
        f"{args.candidate}(n={args.n},f={args.resilience})",
        budget=budget.to_json(),
        store=store,
        artifacts=artifacts,
    )
    if run is not None:
        if getattr(tracer, "enabled", False):
            # Every trace event this run emits carries the run id; the
            # NULL tracer is a shared singleton and stays untouched.
            tracer.run_id = run.run_id
        say(f"Run id: {run.run_id}")
    engine = ExplorationEngine(
        budget=budget,
        store=store,
        checkpoint_dir=checkpoint_dir,
        resume=args.resume is not None,
        rss_limit_mb=rss_limit_mb,
        progress=True if getattr(args, "progress", False) else None,
        run=run,
    )
    document = (
        {"candidate": {"name": args.candidate, "n": args.n, "f": args.resilience}}
        if emit_json
        else None
    )
    if document is not None and run is not None:
        document["run_id"] = run.run_id

    def exhausted(error, elapsed: float | None):
        say(f"Exploration budget exhausted: {error}")
        checkpoint = getattr(error, "checkpoint", None)
        if checkpoint is not None:
            say(f"Checkpoint: {checkpoint}")
            say(f"Resume:     {getattr(error, 'resume_command', None)}")
        if run is not None:
            report = engine.last_report
            resume_command = getattr(error, "resume_command", None)
            if resume_command is not None:
                run.add_artifact("resume", resume_command)
            _finish_run(
                run,
                "exhausted",
                _ledger_counters(metrics),
                peak_rss_kb=0 if report is None else report.peak_rss_kb,
                error=str(error),
            )
        if not emit_json and elapsed is not None:
            _print_exploration_summary(metrics, elapsed)
        if document is not None:
            document["verdict"] = None
            document["error"] = (
                error.to_json()
                if hasattr(error, "to_json")
                else {"error": "budget_exhausted", "detail": str(error)}
            )
            document["engine"] = (
                None if engine.last_report is None else engine.last_report.to_json()
            )
        return None, 2, document

    if audit:
        from .engine import audit_reduction

        root = system.initialization(_balanced_proposals(system)).final_state
        try:
            comparison = audit_reduction(system, root, reduction, budget=budget)
        except ExplorationBudget as error:
            return exhausted(error, None)
        say(
            f"Reduction audit OK: full {comparison.full_states} states -> "
            f"reduced {comparison.reduced_states} "
            f"(ratio {comparison.state_ratio:.2f}x), verdicts identical"
        )
    if getattr(args, "seed", None) is not None:
        from .analysis import random_decision_probe

        probe = random_decision_probe(
            system, seed=args.seed, tracer=tracer, metrics=metrics
        )
        say(probe.summary())
        if document is not None:
            document["probe"] = probe.to_json()
    stopped = None
    with timed(metrics, "pipeline.wall_seconds") as timer:
        try:
            verdict = refute_candidate(
                system,
                tracer=tracer,
                metrics=metrics,
                engine=engine,
                reduction=reduction if reduction.enabled else None,
            )
        except ExplorationBudget as error:
            stopped = error
        except (CheckpointError, EngineError) as error:
            if run is not None:
                _finish_run(run, "failed", _ledger_counters(metrics), error=str(error))
            raise SystemExit(str(error)) from None
    if stopped is not None:
        # After the block: the timer sets its elapsed time on exit.
        return exhausted(stopped, timer.elapsed)
    report = engine.last_report
    if run is not None:
        _finish_run(
            run,
            "completed",
            _ledger_counters(metrics),
            verdict=verdict.to_json(),
            peak_rss_kb=0 if report is None else report.peak_rss_kb,
        )
    if document is not None:
        document["verdict"] = verdict.to_json()
        document["engine"] = None if report is None else report.to_json()
    else:
        print(format_verdict(verdict))
        _print_exploration_summary(metrics, timer.elapsed)
    return verdict, 0 if verdict.refuted else 1, document


def _emit_document(document) -> None:
    import json

    if document is not None:
        print(json.dumps(document, indent=2, sort_keys=True))


def cmd_refute(args: argparse.Namespace) -> int:
    from .obs import NULL_TRACER, MetricsRegistry

    _, code, document = _run_pipeline(args, NULL_TRACER, MetricsRegistry())
    _emit_document(document)
    return code


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs import JsonlSink, MetricsRegistry, Tracer, use_tracer

    output = args.output or f"{args.candidate}-trace.jsonl"
    metrics = MetricsRegistry()
    with JsonlSink(output) as sink:
        tracer = Tracer(sink)
        # Install process-wide too, so layers without a tracer parameter
        # (service input dispatch) report into the same trace.
        with use_tracer(tracer):
            _, code, document = _run_pipeline(
                args, tracer, metrics, run_artifacts={"trace": output}
            )
        if document is not None:
            document["trace"] = {"events": sink.events_written, "path": output}
        else:
            print(f"Trace: {sink.events_written} events -> {output}")
    _emit_document(document)
    return code


def cmd_stats(args: argparse.Namespace) -> int:
    from .obs import MetricsRegistry, NULL_TRACER, render_metrics_table

    if args.compare_reduction:
        from .engine import (
            Budget,
            BudgetExhausted,
            ReductionConfig,
            compare_reduction,
        )

        reduction = ReductionConfig.from_name(args.reduction)
        if not reduction.enabled:
            reduction = ReductionConfig.from_name("full")
        system = _build_candidate(args.candidate, args.n, args.resilience)
        root = system.initialization(_balanced_proposals(system)).final_state
        print(f"Candidate: {args.candidate} (n={args.n}, f={args.resilience})")
        try:
            comparison = compare_reduction(
                system,
                root,
                reduction,
                budget=Budget(
                    max_states=args.max_states, deadline_seconds=args.deadline
                ),
            )
        except BudgetExhausted as error:
            print(f"Exploration budget exhausted: {error}")
            return 2
        print(
            f"Symmetry group: {comparison.group_size} permutations "
            f"({comparison.stabilizer_size} fixing the balanced inputs)"
        )
        print(
            f"Full:    {comparison.full_states} states / "
            f"{comparison.full_transitions} transitions"
        )
        print(
            f"Reduced: {comparison.reduced_states} states / "
            f"{comparison.reduced_transitions} transitions"
        )
        print(
            f"Ratio:   {comparison.state_ratio:.2f}x states, "
            f"{comparison.transition_ratio:.2f}x transitions "
            f"(orbit hits {comparison.orbit_hits}, "
            f"pruned tasks {comparison.pruned_tasks})"
        )
        return 0
    metrics = MetricsRegistry()
    _, code, document = _run_pipeline(args, NULL_TRACER, metrics)
    if document is not None:
        document["metrics"] = metrics.snapshot()
        _emit_document(document)
    else:
        print()
        print(render_metrics_table(metrics.snapshot()))
    return code


def cmd_boost_kset(args: argparse.Namespace) -> int:
    from .analysis import run_consensus_round
    from .protocols import classic_parameters, kset_boost_system
    from .system import upfront_failures

    params = classic_parameters(args.n)
    print(
        f"Section 4: n={params.n}, k={params.k} from "
        f"{params.groups} x {params.n_prime}-process consensus "
        f"(f'={params.inner_resilience} -> f={params.boosted_resilience})"
    )
    proposals = {endpoint: endpoint for endpoint in range(params.n)}
    for failures in range(params.n):
        check = run_consensus_round(
            kset_boost_system(params),
            proposals,
            failure_schedule=upfront_failures(list(range(failures))),
            k=params.k,
            max_steps=200_000,
        )
        distinct = len(set(check.decisions.values()))
        print(f"  {failures} failures: ok={check.ok} distinct={distinct}")
        if not check.ok:
            return 1
    return 0


def cmd_boost_fd(args: argparse.Namespace) -> int:
    from .analysis import run_consensus_round
    from .protocols import consensus_via_pairwise_fds_system
    from .system import upfront_failures

    n = args.n
    print(f"Section 6.3: consensus for any f from 1-resilient pair detectors (n={n})")
    for failures in range(n):
        check = run_consensus_round(
            consensus_via_pairwise_fds_system(n),
            {i: i % 2 for i in range(n)},
            failure_schedule=upfront_failures(list(range(failures))),
            max_steps=300_000,
        )
        print(f"  {failures} failures: ok={check.ok} decisions={check.decisions}")
        if not check.ok:
            return 1
    return 0


def cmd_paxos(args: argparse.Namespace) -> int:
    from .analysis import run_consensus_round
    from .protocols.shared_paxos import shared_paxos_system
    from .system import upfront_failures

    n = args.n
    print(f"Shared-memory Paxos + Omega (n={n})")
    for failures in range(n):
        check = run_consensus_round(
            shared_paxos_system(n),
            {i: i % 2 for i in range(n)},
            failure_schedule=upfront_failures(list(range(failures))),
            max_steps=300_000,
        )
        print(f"  {failures} failures: ok={check.ok} decisions={check.decisions}")
        if not check.ok:
            return 1
    return 0


def _write_text(text: str, output: str | None) -> None:
    """Print ``text``, or write it to ``output`` and report the path."""
    if output is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        with open(output, "w", encoding="utf-8") as stream:
            stream.write(text if text.endswith("\n") else text + "\n")
        print(f"Wrote {output}")


def _load_trace_spans(path: str):
    from .obs import assemble_spans
    from .obs.replay import load_events

    return assemble_spans(load_events(path))


def cmd_obs_summarize(args: argparse.Namespace) -> int:
    from .obs import render_span_table, summarize_spans

    profile = summarize_spans(_load_trace_spans(args.trace))
    if args.json:
        import json

        print(json.dumps(profile, indent=2, sort_keys=True))
    else:
        print(render_span_table(profile))
    return 0


def cmd_obs_flame(args: argparse.Namespace) -> int:
    from .obs import folded_stacks, render_folded_stacks

    folded = folded_stacks(_load_trace_spans(args.trace))
    _write_text(render_folded_stacks(folded), args.output)
    return 0


def cmd_obs_diff(args: argparse.Namespace) -> int:
    from .obs import diff_span_profiles, render_span_diff, summarize_spans

    rows = diff_span_profiles(
        summarize_spans(_load_trace_spans(args.before)),
        summarize_spans(_load_trace_spans(args.after)),
    )
    if args.json:
        import json

        print(json.dumps(rows, indent=2))
    else:
        print(render_span_diff(rows))
    return 0


def cmd_obs_chrome(args: argparse.Namespace) -> int:
    from .obs import write_chrome_trace
    from .obs.replay import load_events

    output = args.output or f"{args.trace}.chrome.json"
    count = write_chrome_trace(load_events(args.trace), output)
    print(f"Wrote {count} trace events -> {output}")
    return 0


def _load_snapshot(path: str) -> tuple:
    """A metrics snapshot from either input kind ``obs prom`` accepts.

    A JSON document (one object: a raw ``snapshot()`` dict, or a ``stats
    --json`` report carrying one under ``"metrics"``) is used directly; a
    JSONL event trace is reduced via
    :func:`~repro.obs.export.snapshot_from_trace`.  Returns ``(snapshot,
    run_ids)`` where ``run_ids`` are the distinct run-ledger ids the
    trace events carried (empty for snapshot documents).
    """
    import json

    from .obs import snapshot_from_trace
    from .obs.replay import load_events

    with open(path, "r", encoding="utf-8") as stream:
        head = stream.read(1)
        if not head:
            raise SystemExit(f"{path}: empty input")
        stream.seek(0)
        if head == "{":
            try:
                document = json.load(stream)
            except json.JSONDecodeError:
                document = None
            if isinstance(document, dict) and not document.get("kind"):
                snapshot = document.get("metrics", document)
                if not isinstance(snapshot, dict):
                    raise SystemExit(f"{path}: no metrics snapshot in document")
                return snapshot, set()
    events = load_events(path)
    run_ids = {event.run for event in events if event.run}
    return snapshot_from_trace(events), run_ids


def cmd_obs_prom(args: argparse.Namespace) -> int:
    from .obs import prometheus_textfile

    labels = {}
    for pair in getattr(args, "label", None) or ():
        name, sep, value = pair.partition("=")
        if not sep or not name.strip():
            raise SystemExit(f"bad --label {pair!r}; expected name=value")
        labels[name.strip()] = value.strip()
    snapshot, run_ids = _load_snapshot(args.input)
    if "run" not in labels and len(run_ids) == 1:
        # A single-run trace labels itself: every series gets run=<id>.
        labels["run"] = next(iter(run_ids))
    _write_text(
        prometheus_textfile(snapshot, labels=labels or None), args.output
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .obs import JsonlSink, MetricsRegistry, Tracer
    from .serve import ServeConfig, serve_forever

    config = ServeConfig(
        host=args.host,
        port=args.port,
        fleet=args.fleet,
        data_dir=args.data_dir,
        cache_capacity=args.cache_size,
        max_queue_depth=args.max_queue_depth,
        max_tenant_depth=args.max_tenant_depth,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        checkpoint_interval=args.checkpoint_interval,
        runs_dir=args.runs_dir,
        metrics=MetricsRegistry(),
    )
    if args.trace is not None:
        with JsonlSink(args.trace) as sink:
            config.tracer = Tracer(sink)
            return serve_forever(config)
    return serve_forever(config)


def _parse_faults(text: str | None):
    """``drop=1,duplicate=2`` -> :class:`~repro.sim.FaultBudget`."""
    from .sim import FaultBudget

    if not text:
        return FaultBudget()
    document = {}
    for pair in text.split(","):
        name, _, value = pair.partition("=")
        try:
            document[name.strip()] = int(value)
        except ValueError:
            raise SystemExit(
                f"bad --faults entry {pair!r}; expected name=int"
            ) from None
    try:
        return FaultBudget.from_json(document)
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _sim_spec(args: argparse.Namespace):
    from .sim import CandidateSpec

    budget = _parse_faults(args.faults)
    return CandidateSpec(
        family=args.family,
        n=args.n,
        resilience=args.resilience,
        faults=tuple(sorted(budget.to_json().items())),
        gen_seed=args.gen_seed,
    )


def cmd_sim(args: argparse.Namespace) -> int:
    import json

    from .sim import (
        CandidateSpec,
        ReplayMismatch,
        SimConfig,
        build_candidate,
        load_script,
        save_script,
        script_document,
        simulate,
        verify_replay,
    )

    if args.replay is not None:
        document = load_script(args.replay)
        spec = CandidateSpec.from_json(document.get("candidate", {}))
        system = build_candidate(spec)
        try:
            result = verify_replay(system, document)
        except ReplayMismatch as mismatch:
            print(f"REPLAY MISMATCH: {mismatch}")
            return 1
        if args.json:
            print(json.dumps(result.to_json(), indent=2, sort_keys=True))
        else:
            print(f"Replay OK: {spec.describe()}")
            print(result.summary())
        return 0
    if args.family is None:
        raise SystemExit("repro sim: give a candidate family or --replay FILE")
    spec = _sim_spec(args)
    system = build_candidate(spec)
    config = SimConfig(
        seed=args.seed, max_steps=args.steps, fault_rate=args.fault_rate
    )
    run = _open_run_handle(
        args,
        "sim",
        f"{spec.describe()} seed={args.seed}",
        budget={"max_steps": args.steps},
    )
    result = simulate(system, config, run=run)
    if args.output is not None:
        save_script(args.output, script_document(spec.to_json(), result))
        if run is not None:
            run.add_artifact("script", args.output)
    if run is not None:
        _finish_run(
            run,
            "violation" if result.violations else "completed",
            {
                "sim.steps": result.steps,
                "sim.faults": result.fault_count,
                "sim.violations": len(result.violations),
            },
        )
    if args.json:
        document = result.to_json()
        document["candidate"] = spec.to_json()
        if run is not None:
            document["run_id"] = run.run_id
        if args.output is not None:
            document["script"] = args.output
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(f"Candidate: {spec.describe()}")
        print(result.summary())
        if args.output is not None:
            print(f"Replay script: {args.output}")
            print(f"Replay:        repro sim --replay {args.output}")
    return 1 if result.violations else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from .obs import NULL_TRACER, JsonlSink, MetricsRegistry, Tracer
    from .sim import FAMILIES, save_script, fuzz

    specs = None
    families = tuple(args.family) if args.family else FAMILIES
    if args.faults:
        if len(families) != 1:
            raise SystemExit("--faults pins one spec; give exactly one --family")
        args.gen_seed = getattr(args, "gen_seed", None)
        args.family = families[0]
        specs = [_sim_spec(args)]
    metrics = MetricsRegistry()
    run = _open_run_handle(
        args,
        "fuzz",
        f"campaigns={args.campaigns} runs={args.runs} seed={args.seed}",
        budget={"campaigns": args.campaigns, "runs": args.runs},
        artifacts=None if args.trace is None else {"trace": args.trace},
    )

    def campaign(tracer):
        return fuzz(
            specs,
            campaigns=args.campaigns,
            runs=args.runs,
            seed=args.seed,
            max_steps=args.steps,
            fault_rate=args.fault_rate,
            crash_budget=args.crash_budget,
            families=families,
            stop_after=None if args.stop_after == 0 else args.stop_after,
            tracer=tracer,
            metrics=metrics,
            run=run,
        )

    if args.trace is not None:
        with JsonlSink(args.trace) as sink:
            report = campaign(
                Tracer(sink, run_id=None if run is None else run.run_id)
            )
    else:
        report = campaign(NULL_TRACER)
    saved = None
    if args.output is not None and report.found:
        save_script(args.output, report.found[0].to_document())
        saved = args.output
        if run is not None:
            run.add_artifact("script", saved)
    if run is not None:
        _finish_run(
            run,
            "violation" if report.found else "completed",
            _ledger_counters(metrics),
        )
    if args.json:
        document = report.to_json()
        if run is not None:
            document["run_id"] = run.run_id
        if saved is not None:
            document["script"] = saved
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(report.summary())
        if saved is not None:
            print(f"Replay script: {saved}")
            print(f"Replay:        repro sim --replay {saved}")
    if args.expect_violation and not report.found:
        print("expected a violation; none found", file=sys.stderr)
        return 1
    return 0


def _runs_ledger(args: argparse.Namespace):
    """The :class:`~repro.obs.ledger.RunLedger` a ``runs`` command reads."""
    from .obs.ledger import RunLedger, resolve_runs_dir

    directory = resolve_runs_dir(getattr(args, "runs_dir", None))
    if directory is None:
        raise SystemExit(
            "run ledger disabled; give --runs-dir DIR or set $REPRO_RUNS_DIR"
        )
    return RunLedger(directory)


def _find_run(ledger, run_id: str):
    try:
        return ledger.find(run_id)
    except KeyError as error:
        raise SystemExit(str(error)) from None


def _format_wall(record) -> str:
    if record.finished_at is None:
        return "-"
    return f"{max(0.0, record.finished_at - record.started_at):.1f}s"


def cmd_runs_list(args: argparse.Namespace) -> int:
    import json
    import time

    ledger = _runs_ledger(args)
    records = sorted(ledger.latest().values(), key=lambda r: r.started_at)
    if args.kind:
        records = [record for record in records if record.kind == args.kind]
    if args.last:
        records = records[-args.last :]
    rows = [(record, ledger.status_of(record)) for record in records]
    if args.json:
        print(
            json.dumps(
                [
                    {**record.to_json(), "status": status}
                    for record, status in rows
                ],
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    if not rows:
        print(f"No runs in {ledger.path}")
        return 0
    print(f"{'RUN':34}  {'STATUS':12}  {'KIND':8}  {'WALL':>8}  INSTANCE")
    for record, status in rows:
        started = time.strftime(
            "%H:%M:%S", time.localtime(record.started_at)
        )
        instance = record.instance or "-"
        print(
            f"{record.run_id:34}  {status:12}  {record.kind:8}  "
            f"{_format_wall(record):>8}  {instance}  (started {started})"
        )
    return 0


def cmd_runs_show(args: argparse.Namespace) -> int:
    import json
    import time

    from .obs.ledger import INTERRUPTED, RUNNING
    from .obs.progress import format_line

    ledger = _runs_ledger(args)
    record = _find_run(ledger, args.run_id)
    heartbeat = ledger.read_heartbeat(record.run_id)
    status = ledger.status_of(record, heartbeat)
    if args.json:
        print(
            json.dumps(
                {
                    "record": record.to_json(),
                    "status": status,
                    "heartbeat": heartbeat,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    derived = " (derived: no terminal record)" if status != record.status else ""
    print(f"Run:      {record.run_id}")
    print(f"Status:   {status}{derived}")
    instance = f"  {record.instance}" if record.instance else ""
    print(f"Kind:     {record.kind}{instance}")
    print(
        "Started:  "
        + time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(record.started_at))
        + f"  (pid {record.pid})"
    )
    if record.finished_at is not None:
        print(f"Wall:     {_format_wall(record)}")
    if record.store:
        print(f"Store:    {record.store}")
    if record.budget:
        print(f"Budget:   {json.dumps(record.budget, sort_keys=True)}")
    if record.verdict is not None:
        print(f"Verdict:  {json.dumps(record.verdict, sort_keys=True)}")
    if record.peak_rss_kb:
        print(f"Peak RSS: {record.peak_rss_kb / 1024:.0f} MB")
    for title, table in (
        ("Counters", record.counters),
        ("Phases", record.phases),
        ("Artifacts", record.artifacts),
        ("Links", record.links),
    ):
        if table:
            print(f"{title}:")
            for name in sorted(table):
                print(f"  {name:28} {table[name]}")
    if status == RUNNING and heartbeat is not None:
        print("Live:     " + format_line(heartbeat))
    if status == INTERRUPTED:
        resume = record.artifacts.get("resume")
        if resume:
            print(f"Resume:   {resume}")
    if record.error:
        print(f"Error:    {record.error}")
    return 0


def cmd_runs_tail(args: argparse.Namespace) -> int:
    import json
    import time

    from .obs.ledger import RUNNING
    from .obs.progress import format_line

    ledger = _runs_ledger(args)
    record = _find_run(ledger, args.run_id)
    run_id = record.run_id
    deadline = (
        None if args.duration is None else time.monotonic() + args.duration
    )
    last_beat = None
    while True:
        try:
            record = ledger.find(run_id)
        except KeyError:  # gc'd mid-tail; keep the record we have
            pass
        heartbeat = ledger.read_heartbeat(run_id)
        status = ledger.status_of(record, heartbeat)
        if heartbeat is not None and heartbeat.get("t") != last_beat:
            last_beat = heartbeat.get("t")
            if args.json:
                print(json.dumps(heartbeat, sort_keys=True), flush=True)
            else:
                print(
                    f"{run_id}  {status:12} " + format_line(heartbeat), flush=True
                )
        if status != RUNNING:
            if args.json:
                print(
                    json.dumps({"run": run_id, "status": status}), flush=True
                )
            else:
                print(f"{run_id}: {status}", flush=True)
            return 0
        if deadline is not None and time.monotonic() >= deadline:
            return 0
        time.sleep(args.interval)


def cmd_runs_diff(args: argparse.Namespace) -> int:
    import json

    from .obs.ledger import diff_runs

    ledger = _runs_ledger(args)
    before = _find_run(ledger, args.before)
    after = _find_run(ledger, args.after)
    rows = diff_runs(before, after)
    if args.json:
        print(
            json.dumps(
                {
                    "before": before.run_id,
                    "after": after.run_id,
                    "rows": rows,
                },
                indent=2,
            )
        )
        return 0
    print(f"before: {before.run_id} ({before.status}) {before.instance}")
    print(f"after:  {after.run_id} ({after.status}) {after.instance}")
    print(f"{'METRIC':40} {'BEFORE':>14} {'AFTER':>14} {'DELTA':>12} {'RATIO':>8}")
    for row in rows:
        def cell(value):
            if value is None:
                return "-"
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.2f}x"
        print(
            f"{row['metric']:40} {cell(row['before']):>14} "
            f"{cell(row['after']):>14} {cell(row['delta']):>12} {ratio:>8}"
        )
    return 0


def cmd_runs_gc(args: argparse.Namespace) -> int:
    ledger = _runs_ledger(args)
    summary = ledger.gc(keep=args.keep)
    print(
        f"{summary['runs']} runs kept, {summary['dropped']} dropped, "
        f"{summary['finalized_interrupted']} finalized interrupted, "
        f"{summary['pruned_heartbeats']} heartbeats pruned"
    )
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    print("Candidates for `refute`:")
    for name, blurb in CANDIDATES.items():
        print(f"  {name:12} {blurb}")
    print("\nConstructions: boost-kset (Section 4), boost-fd (Section 6.3), paxos")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Executable reproduction of 'The Impossibility of "
        "Boosting Distributed Service Resilience'",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {package_version()}",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_runs_dir_argument(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--runs-dir",
            default=None,
            metavar="DIR",
            help="run-ledger directory (default $REPRO_RUNS_DIR, else "
            ".repro/runs; 'none' disables the ledger)",
        )

    def add_pipeline_arguments(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument("candidate", choices=sorted(CANDIDATES))
        subparser.add_argument("-n", type=int, default=3, help="number of processes")
        subparser.add_argument(
            "-f", "--resilience", type=int, default=1, help="service resilience f"
        )
        subparser.add_argument("--max-states", type=int, default=600_000)
        subparser.add_argument(
            "--seed",
            type=int,
            default=None,
            help="also run a seeded random-fair decision probe first",
        )
        subparser.add_argument(
            "--store",
            type=_store_uri,
            default=os.environ.get("REPRO_ENGINE_STORE") or None,
            metavar="URI",
            help="state store for explorations (default from "
            "$REPRO_ENGINE_STORE, else none: the in-RAM loop, the "
            "fastest); 'sqlite:/path' holds packed states on disk for "
            "10^6+-state runs under a bounded RSS ('sqlite' alone: a "
            "scratch directory, deleted when the run ends, so it cannot "
            "be checkpointed)",
        )
        subparser.add_argument(
            "--rss-limit-mb",
            type=int,
            default=None,
            metavar="MB",
            help="enforce an address-space ceiling (RLIMIT_AS) of MB "
            "mebibytes on this process before exploring; the engine "
            "report records peak RSS against the ceiling",
        )
        subparser.add_argument(
            "--json",
            action="store_true",
            help="suppress the narrative and print one JSON document "
            "built from the results' to_json() payloads (also on the "
            "budget-exhausted exit-2 path)",
        )
        subparser.add_argument(
            "--deadline",
            type=float,
            default=None,
            help="wall-clock budget in seconds per pipeline stage",
        )
        subparser.add_argument(
            "--checkpoint",
            metavar="DIR",
            default=None,
            help="snapshot exploration progress into DIR; a checkpoint "
            "resumes only under the configuration that wrote it, so with "
            "--store it needs a store path (sqlite:DIR), not a scratch one",
        )
        subparser.add_argument(
            "--resume",
            metavar="DIR",
            default=None,
            help="resume interrupted explorations from DIR (implies --checkpoint DIR)",
        )
        subparser.add_argument(
            "--reduction",
            choices=["none", "symmetry", "por", "full"],
            default="none",
            help="state-space reduction: symmetry quotient, ample-set "
            "partial order, or both (POR is dropped automatically for "
            "the hook-search stage; see docs/reduction.md)",
        )
        subparser.add_argument(
            "--audit-reduction",
            action="store_true",
            help="before the pipeline, explore BOTH the full and reduced "
            "graphs from a balanced initialization and assert identical "
            "verdicts (slow; verification mode)",
        )
        subparser.add_argument(
            "--progress",
            action="store_true",
            help="render a live states/s progress line on stderr while "
            "explorations run (also enabled by $REPRO_PROGRESS)",
        )
        add_runs_dir_argument(subparser)

    refute = subparsers.add_parser("refute", help="run the adversary pipeline")
    add_pipeline_arguments(refute)
    refute.set_defaults(handler=cmd_refute)

    trace = subparsers.add_parser(
        "trace", help="run the adversary pipeline with a JSONL event trace"
    )
    add_pipeline_arguments(trace)
    trace.add_argument(
        "-o",
        "--output",
        default=None,
        help="trace path (default: <candidate>-trace.jsonl)",
    )
    trace.set_defaults(handler=cmd_trace)

    stats = subparsers.add_parser(
        "stats", help="run the adversary pipeline and print metrics"
    )
    add_pipeline_arguments(stats)
    stats.add_argument(
        "--compare-reduction",
        action="store_true",
        help="skip the pipeline: explore the full and reduced graphs "
        "from a balanced initialization and print the size ratio",
    )
    stats.set_defaults(handler=cmd_stats)

    obs = subparsers.add_parser(
        "obs", help="inspect JSONL traces: span profiles, flamegraphs, exporters"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    summarize = obs_sub.add_parser(
        "summarize", help="per-span-kind latency table from a trace"
    )
    summarize.add_argument("trace", help="JSONL trace path")
    summarize.add_argument(
        "--json", action="store_true", help="print the profile as JSON"
    )
    summarize.set_defaults(handler=cmd_obs_summarize)

    flame = obs_sub.add_parser(
        "flame", help="folded stacks (flamegraph.pl input) from a trace"
    )
    flame.add_argument("trace", help="JSONL trace path")
    flame.add_argument(
        "-o", "--output", default=None, help="write to file instead of stdout"
    )
    flame.set_defaults(handler=cmd_obs_flame)

    diff = obs_sub.add_parser(
        "diff", help="compare the span profiles of two traces"
    )
    diff.add_argument("before", help="baseline JSONL trace")
    diff.add_argument("after", help="comparison JSONL trace")
    diff.add_argument("--json", action="store_true", help="print rows as JSON")
    diff.set_defaults(handler=cmd_obs_diff)

    chrome = obs_sub.add_parser(
        "chrome",
        help="Chrome trace_event JSON (chrome://tracing, Perfetto) from a trace",
    )
    chrome.add_argument("trace", help="JSONL trace path")
    chrome.add_argument(
        "-o", "--output", default=None, help="output path (default: <trace>.chrome.json)"
    )
    chrome.set_defaults(handler=cmd_obs_chrome)

    prom = obs_sub.add_parser(
        "prom",
        help="Prometheus textfile from a JSONL trace or a metrics snapshot "
        "(raw snapshot JSON or a `stats --json` document)",
    )
    prom.add_argument("input", help="JSONL trace or JSON snapshot path")
    prom.add_argument(
        "-o", "--output", default=None, help="write to file instead of stdout"
    )
    prom.add_argument(
        "--label",
        action="append",
        metavar="NAME=VALUE",
        default=None,
        help="constant label added to every series (repeatable); a "
        "single-run trace adds run=<run_id> automatically",
    )
    prom.set_defaults(handler=cmd_obs_prom)

    kset = subparsers.add_parser("boost-kset", help="Section 4 construction")
    kset.add_argument("-n", type=int, default=4, help="number of processes (even)")
    kset.set_defaults(handler=cmd_boost_kset)

    fd = subparsers.add_parser("boost-fd", help="Section 6.3 construction")
    fd.add_argument("-n", type=int, default=3)
    fd.set_defaults(handler=cmd_boost_fd)

    paxos = subparsers.add_parser("paxos", help="shared-memory Paxos extension")
    paxos.add_argument("-n", type=int, default=3)
    paxos.set_defaults(handler=cmd_paxos)

    serve = subparsers.add_parser(
        "serve",
        help="run the verdict server: HTTP/JSON analysis jobs with "
        "caching, fair queueing, and load shedding (see docs/serve.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765, help="0 = ephemeral")
    serve.add_argument(
        "--fleet",
        type=int,
        default=2,
        help="concurrent analysis jobs (0 = accept-only; jobs queue but never run)",
    )
    serve.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="journal + verdict cache + engine checkpoints live here; "
        "restart with the same DIR to resume in-flight jobs "
        "(default: no persistence)",
    )
    serve.add_argument("--cache-size", type=int, default=1024, metavar="KEYS")
    serve.add_argument("--max-queue-depth", type=int, default=64)
    serve.add_argument("--max-tenant-depth", type=int, default=16)
    serve.add_argument(
        "--tenant-rate",
        type=float,
        default=5.0,
        help="per-tenant submissions per second (token-bucket refill)",
    )
    serve.add_argument(
        "--tenant-burst", type=float, default=10.0, help="per-tenant burst capacity"
    )
    serve.add_argument("--checkpoint-interval", type=int, default=20_000)
    serve.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL event trace of every engine run to PATH",
    )
    serve.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help="run-ledger directory for dispatched jobs (default "
        "<data-dir>/runs; 'none' disables)",
    )
    serve.set_defaults(handler=cmd_serve)

    sim = subparsers.add_parser(
        "sim",
        help="one seeded deterministic simulation, or --replay verification "
        "of a saved counterexample script (see docs/simulation.md)",
    )
    sim.add_argument(
        "family",
        nargs="?",
        choices=["exchange", "arbiter", "random-table"],
        help="candidate family to simulate (omit with --replay)",
    )
    sim.add_argument("--seed", type=int, default=0, help="schedule seed")
    sim.add_argument("--steps", type=int, default=400, help="step bound")
    sim.add_argument("-n", type=int, default=2, help="number of processes")
    sim.add_argument(
        "-f", "--resilience", type=int, default=0, help="network resilience f"
    )
    sim.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault budget, e.g. drop=1,duplicate=2,partitions=1",
    )
    sim.add_argument(
        "--fault-rate",
        type=float,
        default=0.3,
        help="probability the scheduler prefers a fault task when one is enabled",
    )
    sim.add_argument(
        "--gen-seed",
        type=int,
        default=None,
        help="random-table family: the seed its decision tables are drawn from",
    )
    sim.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="verify a saved replay script bit-for-bit instead of simulating",
    )
    sim.add_argument(
        "-o", "--output", default=None, help="save the run as a replay script"
    )
    sim.add_argument("--json", action="store_true", help="print the result as JSON")
    add_runs_dir_argument(sim)
    sim.set_defaults(handler=cmd_sim)

    fuzzer = subparsers.add_parser(
        "fuzz",
        help="seeded adversary fuzzing with counterexample shrinking "
        "(see docs/simulation.md)",
    )
    fuzzer.add_argument("--seed", type=int, default=0, help="campaign seed")
    fuzzer.add_argument(
        "--campaigns", type=int, default=8, help="random candidate specs to draw"
    )
    fuzzer.add_argument(
        "--runs", type=int, default=8, help="seeded schedules per candidate"
    )
    fuzzer.add_argument("--steps", type=int, default=300, help="step bound per run")
    fuzzer.add_argument(
        "--family",
        action="append",
        choices=["exchange", "arbiter", "random-table"],
        default=None,
        help="restrict the families drawn (repeatable)",
    )
    fuzzer.add_argument("-n", type=int, default=2, help="processes for a pinned spec")
    fuzzer.add_argument(
        "-f", "--resilience", type=int, default=0, help="resilience for a pinned spec"
    )
    fuzzer.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="pin ONE spec (requires exactly one --family): fault budget "
        "like drop=1,duplicate=2",
    )
    fuzzer.add_argument(
        "--fault-rate",
        type=float,
        default=0.3,
        help="per-step probability of preferring an enabled fault task",
    )
    fuzzer.add_argument(
        "--crash-budget",
        type=int,
        default=0,
        help="random process crashes injected per schedule",
    )
    fuzzer.add_argument(
        "--stop-after",
        type=int,
        default=1,
        help="stop after this many counterexamples (0 = never)",
    )
    fuzzer.add_argument(
        "--expect-violation",
        action="store_true",
        help="exit 1 if the campaign finds no counterexample (CI mode)",
    )
    fuzzer.add_argument(
        "-o",
        "--output",
        default=None,
        help="save the first counterexample as a replay script",
    )
    fuzzer.add_argument("--json", action="store_true", help="print the report as JSON")
    fuzzer.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL event trace of the campaign to PATH "
        "(fuzz_candidate / sim_run / shrink_step events; feeds "
        "`repro obs summarize` and `repro obs prom`)",
    )
    add_runs_dir_argument(fuzzer)
    fuzzer.set_defaults(handler=cmd_fuzz)

    runs = subparsers.add_parser(
        "runs",
        help="inspect the run ledger: list, show, tail, diff, gc "
        "(see docs/observability.md)",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    runs_list = runs_sub.add_parser("list", help="every run, newest last")
    add_runs_dir_argument(runs_list)
    runs_list.add_argument(
        "--kind",
        default=None,
        help="filter by run kind (refute, trace, stats, serve, sim, "
        "fuzz, bench, ...)",
    )
    runs_list.add_argument(
        "-n",
        "--last",
        type=int,
        default=None,
        metavar="N",
        help="show only the newest N runs",
    )
    runs_list.add_argument("--json", action="store_true")
    runs_list.set_defaults(handler=cmd_runs_list)

    runs_show = runs_sub.add_parser(
        "show", help="one run's full record (unique id prefixes accepted)"
    )
    add_runs_dir_argument(runs_show)
    runs_show.add_argument("run_id")
    runs_show.add_argument("--json", action="store_true")
    runs_show.set_defaults(handler=cmd_runs_show)

    runs_tail = runs_sub.add_parser(
        "tail",
        help="follow a live run's heartbeat from another process; exits "
        "when the run reaches a terminal (or derived-interrupted) status",
    )
    add_runs_dir_argument(runs_tail)
    runs_tail.add_argument("run_id")
    runs_tail.add_argument(
        "--interval", type=float, default=0.5, help="poll interval seconds"
    )
    runs_tail.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop after SECONDS even if the run is still live",
    )
    runs_tail.add_argument(
        "--json", action="store_true", help="print raw heartbeat JSON lines"
    )
    runs_tail.set_defaults(handler=cmd_runs_tail)

    runs_diff = runs_sub.add_parser(
        "diff", help="compare two runs' counters and phase breakdowns"
    )
    add_runs_dir_argument(runs_diff)
    runs_diff.add_argument("before")
    runs_diff.add_argument("after")
    runs_diff.add_argument("--json", action="store_true")
    runs_diff.set_defaults(handler=cmd_runs_diff)

    runs_gc = runs_sub.add_parser(
        "gc",
        help="compact the ledger: finalize derived-interrupted runs, "
        "prune stale heartbeats, optionally drop old terminal runs",
    )
    add_runs_dir_argument(runs_gc)
    runs_gc.add_argument(
        "--keep",
        type=int,
        default=None,
        metavar="N",
        help="drop all but the newest N terminal runs",
    )
    runs_gc.set_defaults(handler=cmd_runs_gc)

    lister = subparsers.add_parser("list", help="list built-ins")
    lister.set_defaults(handler=cmd_list)

    args = parser.parse_args(argv)
    store = getattr(args, "store", None)
    checkpoint = getattr(args, "resume", None) or getattr(args, "checkpoint", None)
    if checkpoint is not None and store is not None:
        from .engine import StoreConfig

        if StoreConfig.from_uri(store).path is None:
            parser.error(
                f"--checkpoint/--resume need a store that outlives the run: "
                f"--store {store} is a scratch directory deleted when the run "
                "ends; use --store sqlite:DIR, or no --store"
            )
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
