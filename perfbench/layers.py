"""Per-layer call counts and self times, recorded from outside the program.

`Tracer.install` wraps public functions of the `accesskit` modules.  The
modules import each other's functions by name (``from .ring import
poly_gcd``), so a wrapper replaces every attribute of every loaded
`accesskit` module that is bound to the original function, not only the
one in the defining module.  Recursion that goes through a module global
(``poly_gcd`` -> ``_prs_gcd`` -> ``poly_gcd``) therefore passes through the
wrapper too.

A wrapped call's self time is its wall time minus the wall time of the
wrapped calls nested in it, so nested and recursive calls are never
counted twice; its total time includes them.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    flagged: int = 0  # calls whose result the target's `flag` accepted


# (module, attribute path, flag): flag(result) marks a call for the
# `.trivial` / `.new` counters.
TARGETS = (
    ("accesskit.sysfile", "parse_system", None),
    ("accesskit.sysfile", "to_system_model", None),
    ("accesskit.ring", "poly_gcd", lambda g: g.is_constant),
    ("accesskit.ring", "divexact", None),
    ("accesskit.ring", "collect_by_class", None),
    ("accesskit.system", "build_M", None),
    ("accesskit.system", "minor_determinants", None),
    ("accesskit.system", "bareiss_determinant", None),
    ("accesskit.system", "jacobians", None),
    ("accesskit.system", "symbolic_rank", None),
    ("accesskit.groebner", "normal_form", None),
    ("accesskit.groebner", "Ideal.reduce", None),
    ("accesskit.groebner", "Ideal.contains", lambda found: not found),
    ("accesskit.groebner", "buchberger", None),
    ("accesskit.groebner", "radical_heuristic", None),
    ("accesskit.groebner", "solve_zero_dim", None),
    ("accesskit.realroots", "real_roots", None),
    ("accesskit.analysis", "algorithm2", None),
    ("accesskit.analysis", "algorithm1", None),
    ("accesskit.analysis", "point_status", None),
)


def layer_name(module, path):
    return module.split(".", 1)[1] + "." + path


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        # child wall time accumulated by each open wrapped call; the bottom
        # entry collects time spent at the top level and is never read
        self._children = [0.0]
        self._undo = []

    def wrap(self, name, fn, flag=None):
        stat = self.stats.setdefault(name, LayerStat())
        children = self._children
        clock = self.clock

        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = children.pop()
                children[-1] += dt
                stat.calls += 1
                stat.self_s += dt - nested
                stat.total_s += dt
            if flag is not None and flag(out):
                stat.flagged += 1
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, targets=TARGETS):
        """Wrap every target everywhere it is bound; `uninstall` undoes it."""
        for module, path, flag in targets:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            wrapped = self.wrap(layer_name(module, path), orig, flag)
            if outer:
                self._set(owner, attr, wrapped, orig)
                continue
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "accesskit" and not name.startswith("accesskit."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped, orig)

    def _set(self, owner, key, new, old):
        setattr(owner, key, new)
        self._undo.append((owner, key, old))

    def uninstall(self):
        while self._undo:
            owner, key, old = self._undo.pop()
            setattr(owner, key, old)

    def metrics(self):
        """Flat metric map: `<layer>.calls`, `.self_s`, `.total_s` and the
        flag counter under the name the target gives it."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.total_s"] = st.total_s
            out[f"{name}.flagged"] = st.flagged
        return out
