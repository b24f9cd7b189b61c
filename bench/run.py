"""Benchmark of the lyricsense experiment grid.

Usage, from the root of a lyricsense checkout:

    python3 bench/run.py --workload grid_local --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Each workload prepares its inputs from ``--seed``, measures the set-up
of a fresh grid process several times, then has the last of those
processes repeat whole grid passes for ``--seconds`` seconds. Every set-up
and every pass is bracketed by a fixed reference loop timed in this
process, on the same CPU, and its time is reported at the reference speed
(see ``_at_reference_speed``). The outputs are checked (see ``check.py``)
and the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
MINI_CORPUS = os.path.join(SRC, "lyricsense", "data", "mini_corpus.jsonl")

WORKLOADS = ("grid_local", "grid_remote", "grid_wide")
SETUP_TRIALS = 5
MIN_PASSES = 3
REFERENCE_S = 0.1
REMOTE_PROMPTS = ["question_context_meta"]
WIDE_PROMPTS = ["lyrics_meaning", "none"]
REMOTE_ORDER = 2
READY_TIMEOUT_S = 60.0
PASS_TIMEOUT_S = 120.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _readline(proc: subprocess.Popen, timeout: float) -> str:
    """Next stdout line of ``proc``; kills it if none comes in time."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
    finally:
        timer.cancel()
    if not line:
        raise RuntimeError(f"process {proc.args[:4]} ended or timed out without output")
    return line.strip()


def _stop(proc: subprocess.Popen | None) -> None:
    if proc is None or proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _reference_loop_s() -> float:
    """Seconds this process takes for a fixed mix of dict, string and small numpy work.

    The mix resembles what a grid pass spends its time on, and takes about
    ``REFERENCE_S`` seconds on a quiet core of the reference host.
    """
    import numpy as np

    start = perf_counter()
    counts: dict = {}
    total = 0.0
    for i in range(320_000):
        key = i % 997
        counts[key] = counts.get(key, 0) + 1
        total += (i * 0.5) ** 0.5
    words: dict = {}
    for word in " ".join(str(i % 311) for i in range(100_000)).split():
        words[word] = words.get(word, 0) + 1
    logits = np.linspace(0.0, 1.0, 5003)
    for _ in range(1_600):
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        int(np.argmax(probs))
    return perf_counter() - start


def _at_reference_speed(wall_s: float, loop_before_s: float, loop_after_s: float) -> float:
    """``wall_s`` as it would read on a host that runs the reference loop in ``REFERENCE_S``.

    This shared host's speed drifts by a third within minutes, for every
    workload at once. The loop, timed right before and right after the
    interval on the same CPU, measures that drift, and dividing by it
    leaves the program's own cost.
    """
    return wall_s * REFERENCE_S / ((loop_before_s + loop_after_s) / 2)


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc status")


class Stack:
    """A grid process, and for the remote workload its serve-mock server."""

    def __init__(self, cfg: dict) -> None:
        self.server = None
        self.proc = None
        start = perf_counter()
        try:
            if cfg.get("model"):
                self.server = subprocess.Popen(
                    [sys.executable, "-m", "lyricsense", "serve-mock", "--model", cfg["model"], "--port", "0"],
                    stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT,
                )
                endpoint = _readline(self.server, READY_TIMEOUT_S).rsplit(" ", 1)[-1]
                models = [{"id": "remote", "type": "remote", "endpoint": endpoint}]
                cfg = dict(cfg, endpoint=endpoint, server_pid=self.server.pid,
                           grid=dict(cfg["grid"], models=models))
            self.cfg = cfg
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(BENCH_DIR, "grid_proc.py"), json.dumps(cfg)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT,
            )
            if _readline(self.proc, READY_TIMEOUT_S) != "ready":
                raise RuntimeError("grid process did not report ready")
        except BaseException:
            self.close()
            raise
        self.setup_s = perf_counter() - start

    def one_pass(self, command: str) -> dict:
        """One grid pass: ``command`` is ``pass``, or ``traced`` for a traced one."""
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return json.loads(_readline(self.proc, PASS_TIMEOUT_S))

    def peak_rss_kb(self) -> int:
        return sum(_vm_hwm_kb(p.pid) for p in (self.proc, self.server) if p is not None)

    def close(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                pass
        for proc in (self.proc, self.server):
            _stop(proc)


def prepare(workload: str, seed: int, out_dir: str) -> dict:
    """Inputs of one workload: the grid process config, with the served model file if any."""
    if workload == "grid_local":
        # default_grid(seed): 3 n-gram orders x 7 prompts x 5 decoders x 10 samples.
        return {"corpus": MINI_CORPUS, "grid": {"seed": seed}, "workers": 1}
    if workload == "grid_remote":
        from lyricsense.corpus import clean_corpus, flatten, load_corpus, split
        from lyricsense.harness import training_texts
        from lyricsense.lm import fit_ngram

        train, _validation, _test = split(flatten(clean_corpus(load_corpus(MINI_CORPUS).records)), seed=seed)
        model_path = os.path.join(out_dir, "lm.json")
        fit_ngram(training_texts(train), order=REMOTE_ORDER).save(model_path)
        grid = {"prompts": REMOTE_PROMPTS, "seed": seed}
        return {"corpus": MINI_CORPUS, "grid": grid, "workers": 1, "model": model_path}
    if workload == "grid_wide":
        import wide_corpus

        corpus = os.path.join(out_dir, "wide_corpus.jsonl")
        wide_corpus.write(seed, corpus)
        return {"corpus": corpus, "grid": {"prompts": WIDE_PROMPTS, "seed": seed}, "workers": 1}
    raise ValueError(f"unknown workload {workload!r}")


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import check

    out_dir = os.path.join(RUN_DIR, workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cfg = prepare(workload, seed, out_dir)
    model_path = cfg.get("model")
    cfg.update(out=os.path.join(out_dir, "grid"), trace=trace)

    setups = []
    loop_s = [_reference_loop_s()]
    for trial in range(SETUP_TRIALS):
        stack = Stack(cfg)
        loop_s.append(_reference_loop_s())
        setups.append(_at_reference_speed(stack.setup_s, loop_s[-2], loop_s[-1]))
        if trial < SETUP_TRIALS - 1:
            stack.close()
    try:
        # Untraced and traced passes alternate in a traced run, so that
        # the overhead is taken under the same conditions.
        commands = ("pass", "traced") if trace else ("pass",)
        passes = []
        deadline = perf_counter() + seconds
        while len(passes) < MIN_PASSES * len(commands) or perf_counter() < deadline:
            for command in commands:
                record = stack.one_pass(command)
                loop_s.append(_reference_loop_s())
                record["scaled_s"] = _at_reference_speed(record["wall_s"], loop_s[-2], loop_s[-1])
                passes.append(record)
        peak_rss_kb = stack.peak_rss_kb()
        grid_dict = stack.cfg["grid"]
    finally:
        stack.close()
    wall_rows_per_s = statistics.median(p["rows"] / p["wall_s"] for p in passes)
    print(f"{workload}: {len(passes)} passes; wall-clock rows_per_s {wall_rows_per_s:.4g}; "
          f"reference loop {statistics.median(loop_s):.4g} s (nominal {REFERENCE_S} s)", file=sys.stderr)
    model_files = {"remote": model_path} if model_path else {}
    ctx = check.GridContext(grid_dict, cfg["corpus"], model_files)
    expected_rows = len(ctx.expected_keys())
    errors = check.check_passes(passes, expected_rows)
    errors += check.check_rows(ctx, os.path.join(cfg["out"], "grid.jsonl"))
    if model_path:
        from lyricsense.harness import ExperimentGrid, emit_report, run_grid

        local = dict(grid_dict, models=[{"id": "remote", "type": "ngram_file", "path": model_path}])
        reference_dir = os.path.join(out_dir, "reference")
        emit_report(run_grid(ExperimentGrid.from_dict(local), cfg["corpus"], reference_dir), reference_dir)
        errors += check.check_same_rows(
            os.path.join(cfg["out"], "grid.jsonl"), os.path.join(reference_dir, "grid.jsonl")
        )
    for message in errors:
        print(f"{workload}: check failed: {message}", file=sys.stderr)

    attempted = expected_rows * len(passes)
    failed = sum(expected_rows - p["rows"] for p in passes)
    if trace:
        traced = [p["layers"] for p in passes if "layers" in p]
        metrics = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
        untraced_wall = statistics.median(p["scaled_s"] for p in passes if "layers" not in p)
        traced_wall = statistics.median(p["scaled_s"] for p in passes if "layers" in p)
        metrics["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
        units = _per_layer_units()
        report = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    else:
        report = {
            "rows_per_s": {"value": statistics.median(p["rows"] / p["scaled_s"] for p in passes), "unit": "1/s"},
            "tokens_per_s": {"value": statistics.median(p["tokens"] / p["scaled_s"] for p in passes), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB"},
        }
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": report}


def _per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the lyricsense experiment grid.")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "lyricsense", "__init__.py")):
        print(f"error: no lyricsense sources under {SRC}; run from a lyricsense checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Every process of the run shares one CPU, so that the remote workload's
    # client and server hand each step to each other without waking a
    # second CPU; the in-process workloads are single-threaded anyway.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        # Every workload in turn, one summary line each; the last line
        # merges them with metric names prefixed by the workload.
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            one = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            figures = ", ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in one["metrics"].items())
            print(f"{workload}: correct={one['correct']} attempted={one['attempted']} "
                  f"failed={one['failed']} {figures}", flush=True)
            result["correct"] &= one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            result["metrics"].update({f"{workload}.{k}": m for k, m in one["metrics"].items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
