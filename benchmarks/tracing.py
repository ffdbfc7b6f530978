"""
Spans around dqes's public functions, kept in memory for the traced run.

Every public function of every dqes module is replaced, for the duration of
`installed()`, by a wrapper that records a span: layer name
(`<module>.<function>`), start, end and the span that was open when it was
called. The wrapper goes into every namespace that holds the function, so a
call is traced whichever module looks it up (`dqes.paulis.pauli_apply`,
`dqes.landscape.expectation_exact`, `dqes.run_vqe`, ...). Closures and
methods are not wrapped; their time counts as self time of the enclosing
span.
"""

import gzip
import sys
import types
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: list[tuple[int, str, int]] = []  # (span, counter, value)
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._name_id(name))
        try:
            yield i
        finally:
            self._close(i)

    def wrap(self, name: str, fn, observe=None):
        """fn with a span around each call; observe(result) yields (counter, value)."""
        open_, close, counters = self._open, self._close, self.counters
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if observe is not None:
                counters.extend((i, c, v) for c, v in observe(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """Per span: (root span, duration minus the duration of direct children)."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        root = list(range(count))
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]  # a parent opens before its children
        return root, [d - c for d, c in zip(dur, child)]

    def per_root(self, roots_wanted) -> dict[int, dict[str, float]]:
        """For each root span: <layer>.calls, <layer>.self_s and counter totals."""
        root, self_s = self.self_times()
        out = {r: defaultdict(float) for r in roots_wanted}
        for i, r in enumerate(root):
            if r in out and i != r:
                layer = self.names[self.name_id[i]]
                out[r][layer + ".calls"] += 1
                out[r][layer + ".self_s"] += self_s[i]
        for i, name, value in self.counters:
            if root[i] in out:
                out[root[i]][name] += value
        for r in out:
            out[r]["bench.uncovered_s"] = self_s[r]
        return out

    def write(self, path) -> None:
        """All spans as gzip CSV: id,name,start_s,end_s,parent (-1 for a root)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                f.write(f"{i},{self.names[self.name_id[i]]},{self.start[i] - t0:.9f},"
                        f"{self.end[i] - t0:.9f},{self.parent[i]}\n")


def public_functions(package: str):
    """('<module>.<function>', function) for each public function the
    package's loaded modules define."""
    for modname, module in sorted(sys.modules.items()):
        if not modname.startswith(package + "."):
            continue
        short = modname[len(package) + 1:]
        for attr, obj in vars(module).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == modname):
                yield f"{short}.{attr}", obj


@contextmanager
def installed(tracer: Tracer, package: str, observers: dict):
    """Swap every public function of the package for its traced wrapper in
    every namespace of the package that refers to it; restore on exit."""
    wrappers = {id(fn): (fn, tracer.wrap(name, fn, observers.get(name)))
                for name, fn in public_functions(package)}
    modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
    patched = []
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                setattr(module, attr, wrappers[id(obj)][1])
                patched.append((module, attr, obj))
    try:
        yield
    finally:
        for module, attr, obj in patched:
            setattr(module, attr, obj)
