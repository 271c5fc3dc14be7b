"""Outside-in tracer: spans around every call into the package's public functions.

Modules bind each other's functions by name (``classify`` binds
``in_weyl_chamber``, ``cli`` binds ``verify_theorems``), so wrapping only
the defining module would miss most calls. ``Tracer.install`` replaces
every binding, in every module of the package, of each layer's
``__all__`` functions with one wrapper per function, and wraps
``WeylPoint.__post_init__`` to count constructions. ``Tracer.restore``
puts every original binding back.

Each span records its name, start, end, parent span, the op it belongs
to and whether it raised. Spans are kept in flat arrays in memory and
written out by ``save`` when the run ends. A span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "rng", "canonical", "invariants", "epower", "classify", "catalog", "cli")


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.names: list[str] = []
        self.nid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self.stack = [-1]
        self.current_op = -1
        self.chamber_accepted = 0  # in_weyl_chamber calls that returned True
        self.points_built = 0
        self.uniforms_drawn = 0
        self.unique_uniforms = 0
        self.mc_samples = 0
        self._op_draws: dict[int, list[tuple[int, int]]] = {}
        self._saved: list[tuple[object, str, object]] = []

    # --- installation ----------------------------------------------------------------

    def _modules(self) -> list:
        mods = [self.pkg]
        mods += [getattr(self.pkg, name) for name in LAYERS]
        mods.append(self.pkg.errors)
        return mods

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(self.pkg, layer)
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        point_cls = self.pkg.canonical.WeylPoint
        original = point_cls.__post_init__

        def post_init(point):
            self.points_built += 1
            original(point)

        self._saved.append((point_cls, "__post_init__", original))
        point_cls.__post_init__ = post_init

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        nids, start, end, parent, op, failed, stack = (
            self.nid, self.start, self.end, self.parent, self.op, self.failed, self.stack)
        note = {
            "canonical.in_weyl_chamber": self._note_accept,
            "rng.uniform_stream": self._note_draw,
            "epower.ep_monte_carlo": self._note_samples,
        }.get(name)

        def traced(*args, **kwargs):
            idx = len(start)
            nids.append(nid)
            parent.append(stack[-1])
            op.append(self.current_op)
            failed.append(0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if note is not None:
                note(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # --- named counts ----------------------------------------------------------------

    def _note_accept(self, args, result) -> None:
        self.chamber_accepted += result is True

    def _note_draw(self, args, result) -> None:
        key, begin, count = args
        self.uniforms_drawn += count
        self._op_draws.setdefault(key, []).append((begin, count))

    def _note_samples(self, args, result) -> None:
        self.mc_samples += result.n_samples

    def begin_op(self, index: int) -> None:
        self.current_op = index

    def end_op(self) -> None:
        """Fold the op's draws into the count of distinct (key, index) uniforms."""
        for ranges in self._op_draws.values():
            covered = -1
            for begin, count in sorted(ranges):
                top = begin + count - 1
                if top > covered:
                    self.unique_uniforms += top - max(begin, covered + 1) + 1
                    covered = top
        self._op_draws.clear()
        self.current_op = -1

    # --- results ---------------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Span table, one row per span in start order."""
        return {
            "name": np.frombuffer(self.nid, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "failed": np.frombuffer(self.failed, dtype=np.int8),
        }

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls, self_s and errors for every span name."""
        s = self.spans()
        dur = s["end"] - s["start"]
        child = s["parent"] >= 0
        child_time = np.bincount(s["parent"][child], weights=dur[child], minlength=len(dur))
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(s["name"], minlength=k)
        self_s = np.bincount(s["name"], weights=self_time, minlength=k)
        errors = np.bincount(s["name"], weights=s["failed"], minlength=k)
        return {n: {"calls": int(calls[i]), "self_s": float(self_s[i]), "errors": int(errors[i])}
                for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())
