"""Spans around radixroot's public functions, recorded from outside the
package.

``install`` replaces each listed function at every module attribute that
binds it (``radix.classify``, ``digroot.classify``, ``theorems.classify``
and ``radixroot.classify`` are one function bound four times), so calls
between modules are seen as well as the benchmark's own calls.  Each span
is a row of (name, parent, start, end) kept in flat arrays in memory; self
time is computed from those rows when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from pathlib import Path

LAYERS = {
    "arith": ("factorize", "totient", "divisors"),
    "modring": ("orbit_of", "orbit_partition"),
    "radix": ("classify", "to_finite", "to_repeating", "value_of", "parse", "format_repr",
              "convert", "multiplicative_order"),
    "digroot": ("digit_sum", "digital_root", "tf_digital_root", "digit_sum_of_digits"),
    "theorems": ("fuzz_main1", "fuzz_main2", "verify_main1", "verify_main2", "verify_cor1",
                 "verify_lemma_dr"),
    "cli": ("main",),
}

# Functions whose cache_info() gives a hit ratio.
CACHED = ("arith.factorize", "radix.multiplicative_order")


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ix = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = {}
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        """A traced stand-in for fn; wrapping one name twice shares its id."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        name_ix, parent, start, end = self.name_ix, self.parent, self.start, self.end
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            name_ix.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return functools.wraps(fn)(traced)

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def summary(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over every recorded span."""
        return self_times(self.names, self.name_ix, self.parent, self.start, self.end)

    def write(self, path_stem: Path, header: dict) -> None:
        """Write the spans once: four int64 columns of equal length
        (name, parent, start_ns, end_ns) back to back in ``.spans``, and a
        JSON header that names them."""
        path_stem.parent.mkdir(parents=True, exist_ok=True)
        with open(path_stem.with_suffix(".spans"), "wb") as fh:
            for column in (self.name_ix, self.parent, self.start, self.end):
                column.tofile(fh)
        meta = dict(header, names=self.names, columns=["name", "parent", "start_ns", "end_ns"],
                    spans=len(self.start))
        path_stem.with_suffix(".json").write_text(json.dumps(meta, indent=1))


def self_times(names, name_ix, parent, start, end) -> dict[str, tuple[int, float]]:
    """Per name: number of spans and total self time in seconds.

    A span's self time is its duration minus the durations of its direct
    children; on one thread children nest inside the parent and do not
    overlap, so their durations sum to the part of the parent they cover.
    """
    n = len(start)
    child_ns = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_ns[p] += end[i] - start[i]
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    for i in range(n):
        j = name_ix[i]
        calls[j] += 1
        self_ns[j] += end[i] - start[i] - child_ns[i]
    return {names[j]: (calls[j], self_ns[j] / 1e9) for j in range(len(names))}


def install(tracer: Tracer, package) -> list[tuple[object, str, object]]:
    """Wrap every function in LAYERS wherever the package binds it.

    Returns the patches, which ``uninstall`` reverts.  ``to_repeating``
    also counts the repetend digits it returns.
    """
    modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
    patches = []
    for layer, functions in LAYERS.items():
        home = importlib.import_module(f"{package.__name__}.{layer}")
        for fn_name in functions:
            original = getattr(home, fn_name)
            on_result = None
            if (layer, fn_name) == ("radix", "to_repeating"):
                def on_result(r):
                    tracer.count("radix.to_repeating.digits", len(r.repetend))
            wrapper = tracer.wrap(f"{layer}.{fn_name}", original, on_result)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
    return patches


def uninstall(patches) -> None:
    for mod, attr, original in reversed(patches):
        setattr(mod, attr, original)


def cache_counts(package) -> dict[str, tuple[int, int]]:
    """name -> (hits, misses) of the functions in CACHED.  Call it while
    the tracer is not installed: the wrappers have no ``cache_info``."""
    out = {}
    for name in CACHED:
        layer, fn_name = name.split(".")
        info = getattr(importlib.import_module(f"{package.__name__}.{layer}"), fn_name).cache_info()
        out[name] = (info.hits, info.misses)
    return out
