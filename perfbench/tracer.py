"""Span tracer wrapped around bsskit's functions from outside the package.

``Tracer.patched()`` replaces every public function of the bsskit modules,
in every module namespace that holds it (so ``cli``'s and ``algebraic``'s
imported names are covered too), plus ``cli._emit`` and the score methods
``f``, with a wrapper that records a span per call.  Spans are aggregated in
memory by their stack path: a node per (ancestors..., name) holds the call
count, the inclusive time and the time covered by child spans, so self time
is ``total - child``.  Hooks registered per span name see each call's
arguments and result; the benchmark uses them to count samples and to
capture what the independent checker needs.
"""

import contextlib
import functools
import importlib
import inspect
import time

MODULES = ("signals", "moments", "second_order", "scores", "adaptive", "fixedpoint",
           "algebraic", "metrics", "cli")

# private names wrapped as well: the record emitter is a layer boundary
_PRIVATE = {"cli": ("_emit",)}

# methods wrapped on their classes: (module, class, method)
_METHODS = (("scores", "CubicScore", "f"), ("scores", "TanhScore", "f"),
            ("scores", "SignSwitchingScore", "f"), ("algebraic", "UnimodalResult", "outputs"))


def _span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Aggregated span tree of bsskit calls; see the module docstring."""

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.nodes = {}  # path tuple -> [calls, total_s, child_s]
        self._stack = []  # open spans: [path, child_s]

    def _wrap(self, name, fn):
        hook = self.hooks.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            path = (parent[0] + (name,)) if parent else (name,)
            frame = [path, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                node = self.nodes.get(path)
                if node is None:
                    node = self.nodes[path] = [0, 0.0, 0.0]
                node[0] += 1
                node[1] += elapsed
                node[2] += frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        modules = {m: importlib.import_module(f"bsskit.{m}") for m in MODULES}
        targets = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__.startswith("bsskit.")
                        and (not attr.startswith("_") or attr in _PRIVATE.get(short, ()))):
                    targets.setdefault(obj, []).append((mod, attr))
        saved = []
        for fn, places in targets.items():
            wrapper = self._wrap(_span_name(fn), fn)
            for mod, attr in places:
                saved.append((mod, attr, fn))
                setattr(mod, attr, wrapper)
        for short, cls_name, meth in _METHODS:
            cls = getattr(modules[short], cls_name)
            fn = cls.__dict__[meth]
            saved.append((cls, meth, fn))
            # every score class shares the span "scores.f": one count of score evaluations
            name = f"{short}.{meth}" if short == "scores" else f"{short}.{cls_name}.{meth}"
            setattr(cls, meth, self._wrap(name, fn))
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def calls(self, name):
        return sum(node[0] for path, node in self.nodes.items() if path[-1] == name)

    def total_s(self, name):
        """Inclusive time in ``name``, counting recursive entries once."""
        return sum(node[1] for path, node in self.nodes.items()
                   if path[-1] == name and name not in path[:-1])

    def self_s(self, name):
        return sum(node[1] - node[2] for path, node in self.nodes.items() if path[-1] == name)

    def tree(self):
        """Nodes as JSON-ready rows, parents before children."""
        return [{"path": list(path), "calls": node[0], "total_s": node[1],
                 "self_s": node[1] - node[2]}
                for path, node in sorted(self.nodes.items())]
