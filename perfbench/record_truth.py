"""Record the outputs the benchmark checks against into ``truth.json``.

Run from the checkout root: ``python3 perfbench/record_truth.py``.

Re-record only when the program's intended outputs change; a later
change that merely alters speed must leave ``truth.json`` as it is, so
that every benchmark run keeps checking the same answers.  Recorded:

* ``refute``: per instance and reduction, the verdict's mechanism, the
  sha256 of its canonical JSON document, the states and transitions the
  whole pipeline explored (the ``explore.*`` counters) and those of its
  last exploration;
* ``scan``: the states and transitions of an uninterrupted ``sqlite:``
  scan, which must equal those of the in-RAM exploration;
* ``serve``: the proposal classes of each serve-mix instance (proposal
  vectors the verdict cache keys alike, through the symmetry group) and
  the library verdict digest of every serve-mix job shape.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402
from repro.analysis import DeterministicSystemView  # noqa: E402
from repro.engine import Budget, ExplorationEngine  # noqa: E402
from repro.serve.cache import job_key  # noqa: E402
from repro.serve.wire import JobSpec, build_system  # noqa: E402


def verdict_record(ctx, candidate: str, n: int, f: int, reduction: str) -> dict:
    """A verdict and its counts, computed as the measured runs compute them."""
    request = {
        "op": "verdict",
        "instance": [candidate, n, f],
        "reduction": reduction,
        "max_states": workloads.CLI_MAX_STATES,
    }
    out = workloads.run_child(ctx, request)
    if not out["refuted"]:
        raise SystemExit(f"{candidate}({n},{f}) {reduction}: not refuted")
    return {
        "mechanism": out["mechanism"],
        "verdict_sha256": workloads.verdict_digest(out["verdict"]),
        "states": out["states"],
        "transitions": out["transitions"],
        "last_states": out["last"][0],
        "last_transitions": out["last"][1],
    }


def scan_record(ctx, candidate: str, n: int, f: int) -> dict:
    system = build_system(candidate, n, f)
    view = DeterministicSystemView(system)
    root = system.initialization(
        {e: i % 2 for i, e in enumerate(system.process_ids)}
    ).final_state
    budget = Budget(max_states=workloads.CLI_MAX_STATES)
    graph = ExplorationEngine(workers=1, budget=budget).explore(view, root)
    report = ExplorationEngine(
        workers=1, budget=budget, store=f"sqlite:{ctx.fresh_dir('scan')}/store"
    ).scan(DeterministicSystemView(system), root)
    transitions = sum(len(rows) for rows in graph.edges.values())
    if (report.states, report.transitions) != (len(graph.states), transitions):
        raise SystemExit("sqlite scan and in-RAM exploration disagree")
    return {"states": report.states, "transitions": report.transitions}


def proposal_classes(candidate: str, n: int, f: int) -> list:
    system = build_system(candidate, n, f)
    pids = list(system.process_ids)
    classes: dict[bytes, list] = {}
    for values in itertools.product((0, 1), repeat=len(pids)):
        proposals = tuple(zip(pids, values))
        spec = JobSpec(candidate=candidate, n=n, resilience=f, proposals=proposals)
        classes.setdefault(job_key(spec, system), []).append([list(p) for p in proposals])
    return sorted(classes.values())


def main() -> int:
    ctx = workloads.Context("record-truth", 0, False)
    try:
        truth = record(ctx)
    finally:
        ctx.close()
    with open(workloads.TRUTH_PATH, "w", encoding="utf-8") as stream:
        json.dump(truth, stream, indent=1, sort_keys=True)
        stream.write("\n")
    return 0


def record(ctx) -> dict:
    truth: dict = {"refute": {"none": {}, "full": {}}, "scan": {}, "serve": {}}
    for reduction, instances in (
        ("none", workloads.REFUTE_INSTANCES),
        ("full", workloads.REDUCED_INSTANCES),
    ):
        for candidate, n, f in instances:
            name = workloads.instance_name(candidate, n, f)
            truth["refute"][reduction][name] = verdict_record(ctx, candidate, n, f, reduction)
            print(reduction, name, truth["refute"][reduction][name], flush=True)
    scan_name = workloads.instance_name(*workloads.SCAN_INSTANCE)
    truth["scan"][scan_name] = scan_record(ctx, *workloads.SCAN_INSTANCE)
    print("scan", scan_name, truth["scan"][scan_name], flush=True)
    classes: dict = {}
    verdicts: dict = {}
    for candidate, n, reduction in workloads.SERVE_SHAPES:
        for f in workloads.SERVE_RESILIENCES:
            name = workloads.instance_name(candidate, n, f)
            if name not in classes:
                classes[name] = proposal_classes(candidate, n, f)
            verdicts[f"{name}-{reduction}"] = verdict_record(ctx, candidate, n, f, reduction)[
                "verdict_sha256"
            ]
            print("serve", name, reduction, len(classes[name]), "classes", flush=True)
    truth["serve"] = {"classes": classes, "verdicts": verdicts}
    return truth


if __name__ == "__main__":
    sys.exit(main())
