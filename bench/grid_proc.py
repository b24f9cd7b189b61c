"""The grid process of one benchmark run.

Started by ``run.py`` with one JSON argument. It imports lyricsense, makes
one wire handshake when the workload has an endpoint, prints ``ready``
and then reads commands from stdin, one a line. ``pass`` runs one whole
grid pass (``run_grid`` then ``emit_report``, as ``lyricsense grid`` does)
and prints one JSON line with its figures; ``traced`` does the same with
the tracer installed and adds the per-layer metrics. Any other line, or
the end of stdin, ends the process. Between commands the process is idle,
so that ``run.py`` can time its reference loop and read the peak memory.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import sys
from time import perf_counter

from lyricsense import harness
from lyricsense.wire import RemoteLM


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _server_cpu_s(pid: int) -> float:
    """CPU seconds (user + system) of the server process so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _one_pass(grid, cfg: dict) -> dict:
    gc.collect()
    start = perf_counter()
    result = harness.run_grid(grid, cfg["corpus"], cfg["out"], workers=cfg["workers"])
    harness.emit_report(result, cfg["out"])
    wall_s = perf_counter() - start
    return {
        "wall_s": wall_s,
        "rows": len(result.rows),
        "failures": len(result.failures),
        "tokens": sum(len(row.prediction.split()) for row in result.rows),
        "sha256": _sha256(os.path.join(cfg["out"], "grid.jsonl")),
    }


def _traced_pass(grid, cfg: dict, tracer) -> dict:
    server_pid = cfg.get("server_pid")
    tracer.reset()
    tracer.install()
    try:
        before = _server_cpu_s(server_pid) if server_pid else 0.0
        record = _one_pass(grid, cfg)
        after = _server_cpu_s(server_pid) if server_pid else 0.0
    finally:
        tracer.uninstall()
    record["layers"] = tracer.layer_metrics(server_cpu_s=after - before)
    tracer.reset()
    return record


def main() -> None:
    cfg = json.loads(sys.argv[1])
    if cfg.get("endpoint"):
        RemoteLM(cfg["endpoint"]).close()
    grid = harness.ExperimentGrid.from_dict(cfg["grid"])
    tracer = None
    if cfg["trace"]:
        import tracing

        tracer = tracing.Tracer(served_model=cfg.get("model"))
    print("ready", flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "pass":
            record = _one_pass(grid, cfg)
        elif command == "traced" and tracer is not None:
            record = _traced_pass(grid, cfg, tracer)
        else:
            break
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
