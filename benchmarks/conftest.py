"""Shared helpers for the benchmark harness.

Every benchmark file corresponds to one row of the experiment index in
DESIGN.md (E1-E15) and regenerates the executable evidence for one
figure, lemma, theorem, or construction of the paper.  Results are
recorded in EXPERIMENTS.md.

Benchmarks both *time* the operation (pytest-benchmark) and *assert* the
reproduced claim, so `pytest benchmarks/ --benchmark-only` doubles as a
verification pass.

``report()`` additionally appends each evidence table to a
machine-readable ``BENCH_*.json`` artifact at the repo root (default
``BENCH_obs.json``; pass ``artifact=`` for a dedicated file), so bench
output accumulates as data (one ``{"title", "rows", "time"}`` record per
call) rather than only as captured stdout.  The artifacts are committed
evidence: a corrupt or shrinking artifact is refused loudly instead of
silently rewritten, so a bad run can never destroy previously recorded
entries.

Each ``report()`` call also registers one ``kind="bench"`` record in the
run ledger (``$REPRO_RUNS_DIR``, default ``.repro/runs``), with the
table's numeric columns as counters — so ``repro runs diff`` compares
bench rows across time exactly like engine runs, covering the perf
trajectory.  Ledger failures never fail a benchmark.
"""

import gc
import json
import os
import time
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_ARTIFACT = _REPO_ROOT / "BENCH_obs.json"


def _load_records(path: Path) -> list:
    """Existing artifact records; refuses to treat corrupt data as empty."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    try:
        records = json.loads(text)
    except json.JSONDecodeError as error:
        raise RuntimeError(
            f"{path.name} exists but is not valid JSON ({error}); refusing to "
            "overwrite recorded benchmark evidence — fix or remove the file"
        ) from error
    if not isinstance(records, list):
        raise RuntimeError(
            f"{path.name} does not hold a JSON list; refusing to overwrite it"
        )
    return records


def _write_records(path: Path, records: list) -> None:
    """Write the artifact, refusing any write that would drop entries."""
    existing = _load_records(path)
    if len(records) < len(existing):
        raise RuntimeError(
            f"refusing to shrink {path.name} from {len(existing)} to "
            f"{len(records)} records; benchmark evidence only accumulates"
        )
    path.write_text(
        json.dumps(records, indent=2, default=str) + "\n", encoding="utf-8"
    )


def _append_record(record: dict, artifact: Path = BENCH_ARTIFACT) -> None:
    records = _load_records(artifact)
    records.append(record)
    _write_records(artifact, records)


def _ledger_bench_record(title: str, rows, artifact: Path) -> None:
    """Register one ``kind="bench"`` run per reported table, best-effort.

    Dict rows contribute their numeric columns as counters (later rows
    win on a name collision, prefixed ``row<i>.`` when there are several
    dict rows); the artifact path rides along so ``repro runs show``
    points back at the evidence table.
    """
    try:
        from repro.obs.ledger import RunLedger, resolve_runs_dir
    except ImportError:  # pragma: no cover - bench run without src on path
        return
    directory = resolve_runs_dir(environ=os.environ)
    if directory is None:
        return
    if not directory.is_absolute():
        directory = _REPO_ROOT / directory
    dict_rows = [row for row in rows if isinstance(row, dict)]
    counters = {}
    for index, row in enumerate(dict_rows):
        prefix = f"row{index}." if len(dict_rows) > 1 else ""
        for name, value in row.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            counters[f"{prefix}{name}"] = value
    try:
        RunLedger(directory).record(
            "bench",
            title,
            counters=counters,
            artifacts={"artifact": str(artifact)},
        )
    except OSError:  # pragma: no cover - read-only checkout
        pass


class GcCollections:
    """Wall-clock seconds and counts of cyclic-GC collections (``gc.callbacks``).

    Use as a context manager around a timed run; ``seconds`` and
    ``counts`` hold per-generation totals afterwards (index = generation).
    Every generation is timed: a raised gen0 threshold moves collection
    work between generations, so gen2 alone can read 0 while young
    collections still cost the run.  A cache that keeps many tracked
    objects alive shows up as gen2 time.
    """

    def __enter__(self):
        self.seconds = [0.0, 0.0, 0.0]
        self.counts = [0, 0, 0]
        self._started = None
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            generation = info["generation"]
            self.seconds[generation] += time.perf_counter() - self._started
            self.counts[generation] += 1
            self._started = None

    def columns(self) -> dict:
        """The bench-row GC columns: all generations, then gen2 alone."""
        return {
            "gc_seconds": round(sum(self.seconds), 3),
            "gc_collections": list(self.counts),
            "gc_gen2_seconds": round(self.seconds[2], 3),
            "gc_gen2_collections": self.counts[2],
        }


def report(title: str, rows, artifact: str | None = None) -> None:
    """Print a small evidence table under the benchmark output.

    Also appends the table to the machine-readable artifact —
    ``BENCH_obs.json`` by default, or the repo-root ``BENCH_*.json``
    named by ``artifact`` — and registers a ``kind="bench"`` run in the
    run ledger so ``repro runs diff`` covers the perf trajectory.
    """
    print(f"\n[{title}]")
    rows = list(rows)
    for row in rows:
        print(f"  {row}")
    path = BENCH_ARTIFACT if artifact is None else _REPO_ROOT / artifact
    _append_record(
        {
            "title": title,
            "rows": [row if isinstance(row, (dict, list)) else str(row) for row in rows],
            "time": time.time(),
        },
        artifact=path,
    )
    _ledger_bench_record(title, rows, path)
