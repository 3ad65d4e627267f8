"""In-memory span recorder, and the entry point of one traced CLI process.

As a script it imports `lextremes`, wraps every public function of each
module at every `lextremes.*` attribute bound to it, calls
`lextremes.cli.main(argv)` and writes the recorded spans to a JSON file
when the command ends:

    python3 bench/spans.py --out spans.json [--malloc] -- scan-t1 --q 1009

Each span is (name, start, end, parent, args): `name` is
`<module>.<function>` without the `lextremes.` prefix, `parent` the index
of the enclosing span (or None), and `args` a reduced copy of the call's
arguments (numbers kept, objects with an integer `q` reduced to q, weight
schemes to their cutoff, everything else dropped) so that the benchmark
can count work per modulus.  With `--malloc` only `lfunc.l_value_batch`
is wrapped, and each call records its tracemalloc peak instead of being
timed for the layer table.

Only the standard library is imported before `lextremes`, so the import
times that `-X importtime` reports belong to the program.
"""

from __future__ import annotations

import functools
import inspect
import json
import numbers
import sys
import time
import tracemalloc

MALLOC_TARGET = "lfunc.l_value_batch"


def _reduce(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    q = getattr(value, "q", None)
    if isinstance(q, numbers.Integral):
        return int(q)
    cutoff = getattr(value, "cutoff", None)
    if isinstance(cutoff, numbers.Real):
        return float(cutoff)
    return None


class SpanRecorder:
    """Records one span per call of each wrapped function, in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._bound: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, malloc: bool = False):
        """A wrapper of `fn` that records a span named `name` for every call."""
        params = [
            p.name
            for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None}
            span["args"] = {k: _reduce(v) for k, v in zip(params, args)}
            span["args"].update((k, _reduce(v)) for k, v in kwargs.items())
            stack.append(len(spans))
            spans.append(span)
            if malloc:
                tracemalloc.start()
            span["start"] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                if malloc:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()

        return wrapper

    def install(self, modules, prefix: str, only=None, malloc: bool = False) -> list[str]:
        """Wrap every public function defined in `modules`, at every attribute
        of `modules` bound to it; returns the wrapped names.

        `prefix` is stripped from module names to form span names; `only`
        limits wrapping to a set of span names.
        """
        modules = list(modules)
        targets = {}
        for module in modules:
            short = module.__name__.removeprefix(prefix)
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                name = f"{short}.{value.__name__}"
                if only is None or name in only:
                    targets[id(value)] = (value, name)
        wrappers = {key: self.wrap(name, fn, malloc) for key, (fn, name) in targets.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and targets[id(value)][0] is value:
                    self._bound.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        return sorted(name for _, name in targets.values())

    def restore(self) -> None:
        """Put back every function that `install` replaced."""
        while self._bound:
            module, attr, original = self._bound.pop()
            setattr(module, attr, original)


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            own[parent] -= span["end"] - span["start"]
    return own


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: spans.py --out FILE [--malloc] -- <lextremes arguments>", file=sys.stderr)
        return 2
    split = argv.index("--")
    options, cli_argv = argv[:split], argv[split + 1 :]
    out = options[options.index("--out") + 1]
    malloc = "--malloc" in options

    import lextremes  # noqa: F401  (loads every submodule)
    import lextremes.cli

    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "lextremes"]
    recorder = SpanRecorder()
    wrapped = recorder.install(
        modules, "lextremes.", only={MALLOC_TARGET} if malloc else None, malloc=malloc
    )
    code = None
    try:
        code = lextremes.cli.main(cli_argv)
    finally:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"wrapped": wrapped, "exit": code, "spans": recorder.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
