"""Outside-in per-layer tracing of the entbounds package.

The tracer wraps the public entry points of each layer from outside the
package and folds every span into per-layer totals as it closes: call count
and self time (the span's duration minus the time its child spans cover).
Spans are aggregated rather than stored so that memory stays flat over a long
run.

``bounds`` and ``measures`` bind names from ``qcore`` at import time, so a
wrapper installed only on the defining module would miss their calls.  A
module-level function is therefore replaced in every loaded ``entbounds``
module that holds it; a method is replaced on its class.  An entry point that
no longer exists is reported as absent instead of raising.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# layer -> entry points, each as (module, attribute path).
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "qcore.reduce": (("entbounds.qcore", "reduced_density"),),
    "qcore.validate": (("entbounds.qcore", "DensityMatrix.__post_init__"),),
    # The benchmark generates its own states; only the CLI draws with this.
    "qcore.state_draw": (("entbounds.cli", "haar_random_pure"),),
    "measures.pair_spectrum": (("entbounds.measures", "concurrence_two_qubit"),
                               ("entbounds.measures", "coa_two_qubit")),
    "measures.cut": (("entbounds.measures", "concurrence_pure"),
                     ("entbounds.measures", "negativity_pure_schmidt"),
                     ("entbounds.qcore", "schmidt_rank")),
    "bounds.pair_tables": (("entbounds.bounds", "pairwise_tables"),),
    "bounds.search": (("entbounds.bounds", "StateEvaluator.feasible_groupings"),
                      ("entbounds.bounds", "StateEvaluator.j_best"),
                      ("entbounds.bounds", "StateEvaluator.front_best")),
    "bounds.evaluate": (("entbounds.bounds", "StateEvaluator.evaluate"),),
    "gallery.state_spec": (("entbounds.gallery", "StateSpec.from_dict"),
                           ("entbounds.gallery", "StateSpec.build")),
    "cli.parse": (("entbounds.cli", "main"),),
    "cli.render": (("entbounds.cli", "cmd_verify"), ("entbounds.cli", "cmd_sweep")),
}

# Generator whose yielded items are the groupings the search examines.
GROUPING_ENUMERATOR = ("entbounds.bounds", "ordered_groupings")
# Search entry point whose result lists the feasible groupings.
FEASIBLE_LISTER = "StateEvaluator.feasible_groupings"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "entbounds" or name.startswith("entbounds."))]


class Tracer:
    """Per-layer call counts, self time and search counters.

    ``install`` patches the entry points of the currently imported
    ``entbounds`` modules and ``uninstall`` restores the originals exactly,
    so untraced calls run the unmodified code.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.examined = 0
        self.feasible_listed = 0
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, layer: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def _count_examined(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            n = 0
            try:
                for n, item in enumerate(fn(*args, **kwargs), 1):
                    yield item
            finally:
                tracer.examined += n

        counted.__wrapped__ = fn
        return counted

    def _count_feasible(self, fn):
        tracer = self

        def listed(*args, **kwargs):
            before = tracer.examined
            result = fn(*args, **kwargs)
            if tracer.examined > before:  # a fresh search, not a cache hit
                tracer.feasible_listed += len(result)
            return result

        listed.__wrapped__ = fn
        return listed

    # -- installation --------------------------------------------------------

    def _patch(self, module_name: str, path: str, wrap) -> bool:
        module = sys.modules.get(module_name)
        if module is None:
            return False
        if "." in path:
            cls_name, attr = path.split(".", 1)
            cls = getattr(module, cls_name, None)
            raw = vars(cls).get(attr) if isinstance(cls, type) else None
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                new = classmethod(wrap(raw.__func__))
            else:
                new = wrap(raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)
            return True
        original = getattr(module, path, None)
        if original is None:
            return False
        new = wrap(original)
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, new)
        return True

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        absent = []
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                if path == FEASIBLE_LISTER:
                    def wrap(fn, layer=layer):
                        return self._span(layer, self._count_feasible(fn))
                else:
                    def wrap(fn, layer=layer):
                        return self._span(layer, fn)
                if not self._patch(module_name, path, wrap):
                    absent.append(f"{module_name}.{path}")
        if not self._patch(*GROUPING_ENUMERATOR, self._count_examined):
            absent.append(".".join(GROUPING_ENUMERATOR))
        self.absent = absent

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def absent_layers(self) -> list[str]:
        """Layers none of whose entry points exist in the traced code."""
        return [layer for layer, targets in LAYERS.items()
                if all(f"{m}.{p}" in self.absent for m, p in targets)]
