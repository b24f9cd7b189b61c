"""Outside-in span tracing of one lyricsense grid pass.

``Tracer.install`` replaces the public functions and methods that
``harness`` calls with wrappers that record one span per call (id, parent
id, name, start, end) in memory, plus a few counters taken from arguments
and results. ``Tracer.layer_metrics`` turns the spans of one pass into the
per-layer metrics. Wire bytes are counted at the client's socket
streams (``socket.SocketIO``), which in the grid process carry only the
``RemoteLM`` frames. Nothing inside the program is changed; ``uninstall``
restores every original, so traced and untraced passes can alternate in
one process.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import socket
import threading
from collections import Counter, defaultdict
from time import perf_counter

from lyricsense import decoding, harness
from lyricsense.lm import NGramModel
from lyricsense.wire import RemoteLM, WireError

# Span name of each decoding strategy function, keyed by its public name.
STRATEGIES = {
    "greedy": "greedy",
    "beam_search": "beam",
    "sample": "sampling",
    "top_k_sample": "top_k",
    "top_p_sample": "top_p",
}


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self, served_model: str | None = None) -> None:
        """``served_model`` is the model file behind the workload's endpoint, if any."""
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._root = None
        self._originals: list[tuple[object, str, object]] = []
        self._bytes_lock = threading.Lock()
        self.remote_order = NGramModel.load(served_model).order if served_model else 0
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self.tails: dict[object, set] = defaultdict(set)
        self.vocab_sizes: dict[object, int] = {}

    def reset(self) -> None:
        """Forget the spans and counters recorded so far."""
        self.spans.clear()
        self.counts.clear()
        self.tails.clear()
        self.vocab_sizes.clear()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, after=None, root=False):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # Worker threads of run_grid start with an empty stack; their
            # spans hang under the run_grid span.
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            if root:
                self._root = sid
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except WireError:
                if name.startswith("wire."):
                    self.counts["wire.errors"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                if root:
                    self._root = None
                spans.append((sid, parent, name, t0, t1))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr, name, after=None, root=False) -> None:
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, after, root))

    def install(self) -> None:
        """Wrap every layer boundary."""
        for attr in ("load_corpus", "clean_corpus", "flatten", "split"):
            self._patch(harness, attr, f"corpus.{attr}")
        self._patch(harness, "render", "prompts.render")
        self._patch(harness, "render_with_target", "prompts.render_with_target")
        self._patch(harness, "fit_ngram", "lm.fit_ngram", self._after_fit)
        self._patch(NGramModel, "next", "lm.next", self._after_ngram_next)
        self._patch(RemoteLM, "__init__", "wire.connect", self._after_connect)
        self._patch(RemoteLM, "next", "wire.next", self._after_remote_next)
        self._patch(harness, "decode", "decoding.decode", self._after_decode)
        for attr, label in STRATEGIES.items():
            self._patch(decoding, attr, f"decoding.{label}")
        self._patch(harness, "evaluate", "metrics.evaluate", self._after_evaluate)
        self._patch(harness, "run_grid", "harness.run_grid", self._after_run_grid, root=True)
        self._patch(harness, "emit_report", "harness.emit_report", self._after_emit)
        self._count_bytes(socket.SocketIO, "readinto")
        self._count_bytes(socket.SocketIO, "write")

    def _count_bytes(self, owner, attr) -> None:
        """Add the byte count each call returns to the ``wire.bytes`` counter."""
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        counts, lock = self.counts, self._bytes_lock

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            with lock:
                counts["wire.bytes"] += result or 0
            return result

        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # Counters taken from arguments and results ---------------------------

    def _after_fit(self, args, model) -> None:
        self.counts["lm.fit_texts"] += len(args[0])
        self.vocab_sizes[id(model)] = len(model.vocabulary())

    @staticmethod
    def _tail(context, order: int, bos: int) -> tuple:
        width = order - 1
        tail = tuple(context[-width:]) if width else ()
        return (bos,) * (width - len(tail)) + tail

    def _after_ngram_next(self, args, _dist) -> None:
        model, context = args[0], args[1]
        self.tails[id(model)].add(self._tail(context, model.order, model.vocabulary().bos_id))
        self.vocab_sizes[id(model)] = len(model.vocabulary())

    def _after_connect(self, args, _result) -> None:
        client = args[0]
        self.vocab_sizes[("remote", client.endpoint)] = len(client.vocabulary())

    def _after_remote_next(self, args, _dist) -> None:
        client, context = args[0], args[1]
        key = ("remote", client.endpoint)
        self.tails[key].add(self._tail(context, self.remote_order, client.vocabulary().bos_id))

    def _after_decode(self, _args, generation) -> None:
        self.counts["decoding.tokens"] += len(generation.ids)
        self.counts[f"decoding.finish_{generation.finish_reason.value}"] += 1

    def _after_evaluate(self, args, _report) -> None:
        self.counts["metrics.lyrics_chars"] += len(args[2])

    def _after_run_grid(self, _args, result) -> None:
        self.counts["harness.rows"] += len(result.rows)
        self.counts["harness.failures"] += len(result.failures)

    def _after_emit(self, _args, paths) -> None:
        self.counts["harness.report_bytes"] += sum(os.path.getsize(p) for p in paths)

    def layer_metrics(self, server_cpu_s: float = 0.0) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset.

        ``server_cpu_s`` is the serve-mock process's CPU time over the
        pass, read from /proc by the caller.
        """
        spans = self.spans
        by_name: dict[str, list] = defaultdict(list)
        children: dict[int, list] = defaultdict(list)
        names = {}
        for span in spans:
            sid, parent, name, _t0, _t1 = span
            by_name[name].append(span)
            children[parent].append(span)
            names[sid] = name

        def total(*span_names: str) -> float:
            return sum(t1 - t0 for n in span_names for _s, _p, _n, t0, t1 in by_name[n])

        def count(*span_names: str) -> int:
            return sum(len(by_name[n]) for n in span_names)

        def self_time(span_name: str) -> float:
            """Time in ``span_name`` spans not covered by spans of another layer below them."""
            layer = span_name.split(".")[0]
            out = 0.0
            for sid, _p, _n, t0, t1 in by_name[span_name]:
                covered = []
                pending = list(children[sid])
                while pending:
                    child = pending.pop()
                    if child[2].split(".")[0] == layer:
                        pending.extend(children[child[0]])
                    else:
                        covered.append((max(child[3], t0), min(child[4], t1)))
                out += (t1 - t0) - _union_length(covered)
            return out

        counts = self.counts
        vocab_sizes = self.vocab_sizes
        contexts = {key: len(tails) for key, tails in self.tails.items()}
        cache_bytes = sum(n * vocab_sizes.get(key, 0) * 8 for key, n in contexts.items())
        steps = sorted((t1 - t0) * 1e3 for _s, _p, _n, t0, t1 in by_name["wire.next"])
        handshakes = sorted((t1 - t0) * 1e3 for _s, _p, _n, t0, t1 in by_name["wire.connect"])
        metrics = {
            "corpus.load_s": total("corpus.load_corpus", "corpus.clean_corpus", "corpus.flatten", "corpus.split"),
            "prompts.render_calls": count("prompts.render", "prompts.render_with_target"),
            "prompts.render_s": total("prompts.render", "prompts.render_with_target"),
            "lm.fit_calls": count("lm.fit_ngram"),
            "lm.fit_texts": counts["lm.fit_texts"],
            "lm.fit_s": total("lm.fit_ngram"),
            "lm.vocab_size": max(vocab_sizes.values(), default=0),
            "lm.next_calls": count("lm.next"),
            "lm.next_s": total("lm.next"),
            "lm.contexts": sum(contexts.values()),
            "lm.cache_mb": cache_bytes / 2**20,
            "wire.connections": count("wire.connect"),
            "wire.handshake_ms": _percentile(handshakes, 0.5),
            "wire.steps": len(steps),
            "wire.step_ms_p50": _percentile(steps, 0.5),
            "wire.step_ms_p99": _percentile(steps, 0.99),
            "wire.client_s": total("wire.connect", "wire.next"),
            "wire.server_cpu_s": server_cpu_s,
            "wire.bytes_per_step": counts["wire.bytes"] / len(steps) if steps else 0.0,
            "wire.errors": counts["wire.errors"],
        }
        for label in STRATEGIES.values():
            metrics[f"decoding.{label}_s"] = total(f"decoding.{label}")
        for label in STRATEGIES.values():
            metrics[f"decoding.{label}_steps"] = sum(
                1
                for n in ("lm.next", "wire.next")
                for _s, parent, _n, _t0, _t1 in by_name[n]
                if names.get(parent) == f"decoding.{label}"
            )
        metrics.update(
            {
                "decoding.self_s": self_time("decoding.decode"),
                "decoding.tokens": counts["decoding.tokens"],
                "decoding.finish_eos": counts["decoding.finish_eos"],
                "decoding.finish_max_len": counts["decoding.finish_max_len"],
                "metrics.evaluate_calls": count("metrics.evaluate"),
                "metrics.evaluate_s": total("metrics.evaluate"),
                "metrics.lyrics_chars": counts["metrics.lyrics_chars"],
                "harness.run_grid_s": total("harness.run_grid"),
                "harness.self_s": self_time("harness.run_grid"),
                "harness.emit_report_s": total("harness.emit_report"),
                "harness.report_bytes": counts["harness.report_bytes"],
                "harness.rows": counts["harness.rows"],
                "harness.failures": counts["harness.failures"],
            }
        )
        return metrics


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -math.inf
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of a sorted list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
