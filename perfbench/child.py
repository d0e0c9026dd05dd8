"""One measured operation in a fresh interpreter, as a CLI run would see it.

Usage: ``python3 child.py REQUEST_JSON OUT_PATH [SPANS_PATH]``

``REQUEST_JSON`` is one of

* ``{"op": "verdict", "instance": [candidate, n, f], "reduction": ..., "max_states": ...}``:
  ``refute_candidate`` at the CLI defaults (in-RAM engine, one worker);
* ``{"op": "scan", "instance": [...], "uri": ..., "checkpoints": ..., "max_states": ...,
  "resume": bool}``: ``ExplorationEngine.scan`` through a store with a
  checkpoint directory, either the budget-stopped first leg or the
  resume that runs to completion.

The child times its own set-up (imports plus building the system, from
the first line of this file) and the operation itself, and writes the
raw outputs to ``OUT_PATH`` as JSON; the benchmark process checks them.
With ``SPANS_PATH`` the span wrappers of ``spans.py`` are installed
around the operation only, the spans are written to ``SPANS_PATH`` when
it ends, and their per-name summary goes into ``OUT_PATH``.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def build(request: dict):
    """Import the program and build what the operation needs."""
    import repro.analysis  # noqa: F401
    import repro.engine  # noqa: F401
    from repro.analysis import DeterministicSystemView
    from repro.serve.wire import build_system

    system = build_system(*request["instance"])
    if request["op"] != "scan":
        return system, None, None
    root = system.initialization(
        {e: i % 2 for i, e in enumerate(system.process_ids)}
    ).final_state
    return system, DeterministicSystemView(system), root


def verdict(request: dict, system, call) -> dict:
    import repro.analysis as analysis
    import repro.engine as engine
    from repro.obs import MetricsRegistry

    reduction = engine.ReductionConfig.from_name(request["reduction"])
    explorer = engine.ExplorationEngine(
        workers=1, budget=engine.Budget(max_states=request["max_states"])
    )
    metrics = MetricsRegistry()
    found, wall = call(
        lambda: analysis.refute_candidate(
            system,
            metrics=metrics,
            engine=explorer,
            reduction=reduction if reduction.enabled else None,
        )
    )
    counters = metrics.snapshot()["counters"]
    report = explorer.last_report
    return {
        "wall": wall,
        "refuted": found.refuted,
        "mechanism": found.mechanism,
        "verdict": found.to_json(),
        "states": counters.get("explore.states", 0),
        "transitions": counters.get("explore.transitions", 0),
        "last": None if report is None else [report.states, report.transitions],
    }


def scan(request: dict, view, root, call, traced: bool) -> dict:
    import repro.engine as engine

    explorer = engine.ExplorationEngine(
        workers=1,
        budget=engine.Budget(max_states=request["max_states"]),
        store=request["uri"],
        checkpoint_dir=request["checkpoints"],
        resume=request["resume"],
    )
    # The scan call and its first expansion, seen through prune= (traced
    # runs only): their distance is the resume's recovery time.
    marks = []

    def prune(_state):
        if len(marks) == 1:
            marks.append(time.perf_counter())
        return False

    def run():
        marks.append(time.perf_counter())
        try:
            return explorer.scan(view, root, prune=prune if traced else None)
        except engine.BudgetExhausted as stopped:
            return stopped

    outcome, wall = call(run)
    out = {"wall": wall, "recover": marks[1] - marks[0] if len(marks) > 1 else None}
    if isinstance(outcome, engine.BudgetExhausted):
        out["stopped"] = outcome.resource
        return out
    out.update(
        stopped=None,
        states=outcome.states,
        transitions=outcome.transitions,
        spilled=outcome.spilled_states,
    )
    return out


def main(argv: list[str]) -> int:
    request = json.loads(argv[0])
    out_path = argv[1]
    spans_path = Path(argv[2]) if len(argv) > 2 else None
    system, view, root = build(request)
    setup = time.perf_counter() - STARTED
    recorder = None
    if spans_path is not None:
        from spans import SpanRecorder

        recorder = SpanRecorder()

    def call(function):
        """Run ``function``, traced if asked; return (its result, wall seconds)."""
        if recorder is not None:
            recorder.install()
        try:
            before = time.perf_counter()
            if recorder is None:
                value = function()
            else:
                with recorder.operation(request.get("op_id", request["op"]), request["op"]):
                    value = function()
            return value, time.perf_counter() - before
        finally:
            if recorder is not None:
                recorder.uninstall()

    if request["op"] == "verdict":
        out = verdict(request, system, call)
    else:
        out = scan(request, view, root, call, recorder is not None)
    out["setup"] = setup
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.dump(spans_path)
        out["summary"] = recorder.summary()
    with open(out_path, "w", encoding="utf-8") as stream:
        json.dump(out, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
