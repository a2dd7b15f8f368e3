"""Traced-run launcher: runs `agentcast` with spans around its public functions.

    python perfbench/launcher.py TRACE_OUT AGENTCAST_ARGS...

It imports agentcast.cli, replaces each function in TARGETS with a timing
wrapper in every agentcast module that imported it (and on the class, for
methods), runs agentcast.cli.main and, at exit, writes the spans it kept in
memory to TRACE_OUT: one JSON line with the import time and the spans, then
one with the time that writing them took. A span is
[id, parent id, name, start, end, thread id, exception name, note], with
CLOCK_MONOTONIC times so the benchmark process can line them up with the
stub's own timestamps.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time


def _agent(args, kwargs, result):
    if result is None:
        return None
    return [args[0].agent_id, len(result.transcript.steps), result.transcript.final.kind]


def _malformed(args, kwargs, result):
    return type(result).__name__ == "MalformedEmission"


def _question(args, kwargs, result):
    return args[2].id


def _tree_index(args, kwargs, result):
    return args[1]


def _search_key(args, kwargs, result):
    provider, query, before = args[:3]
    k = args[3] if len(args) > 3 else kwargs.get("k")
    return [query, str(before), k, None if result is None else len(result)]


def _count(args, kwargs, result):
    return None if result is None else len(result)


def _prompt_chars(args, kwargs, result):
    return sum(len(m.content) for m in args[1].messages)


# (module, attribute or Class.method, layer, note taken from the call; a
# note sees result None when the call raised)
TARGETS = (
    ("agentcast.react", "run_react", "react", _agent),
    ("agentcast.react", "assemble_messages", "react", None),
    ("agentcast.react", "compact_steps", "react", None),
    ("agentcast.react", "parse_emission", "react", _malformed),
    ("agentcast.llm", "HTTPBackend.complete", "llm", _prompt_chars),
    ("agentcast.llm", "ReplayBackend.complete", "llm", _prompt_chars),
    ("agentcast.llm", "RateLimiter.acquire", "llm", None),
    ("agentcast.llm", "fingerprint", "llm", None),
    ("agentcast.llm", "load_cassette", "llm", None),
    ("agentcast.tools", "search", "tools", _search_key),
    ("agentcast.tools", "LiveSearchProvider.search", "tools", _count),
    ("agentcast.tools", "FixtureSearchProvider.search", "tools", _count),
    ("agentcast.tools", "execute_code", "tools", None),
    ("agentcast.hierarchy", "forecast_one", "hierarchy", _question),
    ("agentcast.hierarchy", "save_transcript_tree", "hierarchy", None),
    ("agentcast.hierarchy", "write_tree_index", "hierarchy", _tree_index),
    ("agentcast.models", "read_questions", "models", None),
    ("agentcast.models", "read_records", "models", None),
    ("agentcast.models", "write_questions", "models", None),
    ("agentcast.models", "write_records", "models", None),
    ("agentcast.models", "write_jsonl", "models", None),
    ("agentcast.metrics", "brier", "metrics", None),
    ("agentcast.metrics", "accuracy", "metrics", None),
    ("agentcast.metrics", "calibration_index", "metrics", None),
    ("agentcast.metrics", "ensemble_std", "metrics", None),
    ("agentcast.metrics", "apply_drop_rule", "metrics", None),
    ("agentcast.metrics", "aggregate", "metrics", None),
    ("agentcast.market", "fetch_window", "market", None),
    ("agentcast.market", "llm_filter", "market", None),
    ("agentcast.market", "classify_category", "market", None),
    ("agentcast.market", "backfill_resolutions", "market", None),
)

LAYERS = {name: layer for _, name, layer, _ in TARGETS}


class Tracer:
    """Keeps spans in memory; parent links follow the calling thread's stack."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn, name: str, note):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            error = None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                info = note(args, kwargs, result) if note is not None else None
                spans.append([sid, parent, name, start, end, threading.get_ident(), error, info])

        return traced

    def install(self) -> None:
        """Wrap every target wherever agentcast imported it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "agentcast" or n.startswith("agentcast.")]
        for module_name, name, _layer, note in TARGETS:
            owner = sys.modules[module_name]
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(cls.__dict__[meth], name, note))
                continue
            original = getattr(owner, name)
            wrapped = self.wrap(original, name, note)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    began_import = time.monotonic()
    import agentcast.cli

    imported = time.monotonic()
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = agentcast.cli.main(argv)
    finally:
        began_write = time.monotonic()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": imported - began_import, "spans": tracer.spans}, fh, separators=(",", ":"))
            fh.flush()
            fh.write("\n" + json.dumps({"write_s": time.monotonic() - began_write}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
