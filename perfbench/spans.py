"""In-memory span tracer wrapped around tubeplan's public entry points.

Spans are recorded from the benchmark's side only: `Tracer.install`
replaces public functions and methods of the tubeplan modules with
timing wrappers and `Tracer.uninstall` puts the originals back. The
package source is never edited.

Each span keeps its name, start, end, parent span and query id in flat
arrays, so a traced round with hundreds of thousands of `PathExpr.at`
calls stays small in memory. Aggregates needed for the per-layer
metrics are folded in as spans close; `dump` writes the raw spans out
once the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from array import array
from collections import defaultdict

import numpy as np

from tubeplan import cli, fibration, geometry, milnor, sphere_planner, verify
from tubeplan.errors import LiftFailure

# Span names that mark a plan, for the at-calls-per-plan count.
PLAN_SPANS = ("SpherePlanner.plan", "TaskingPlanner.plan")
# `suite_self` subtracts the outermost plan and sample spans below a suite.
SUITE_CHILDREN = PLAN_SPANS + ("PathExpr.sample",)
REGION_BUILDERS = ("segment_planner", "detour_planner_odd", "chart_planner", "detour_planner_even")


class Tracer:
    """Records spans and the exact per-round counts of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.query_id = -1
        self._stack: list[list] = []  # [span index, name, start, subtracted time]
        self._patches: list[tuple[object, str, object]] = []
        # (name, key) -> [calls, total seconds, total self seconds]
        self.totals: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self._in_numeric_lift = 0
        self._in_plan = 0

    # -- spans ----------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, name: str) -> list:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.query.append(self.query_id)
        frame = [idx, name, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list, key: str) -> float:
        t_end = time.perf_counter()
        self._stack.pop()
        idx, name, t0, sub = frame
        self.start[idx] = t0
        self.end[idx] = t_end
        dur = t_end - t0
        tot = self.totals[(name, key)]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - sub
        self._credit_ancestor(name, dur)
        return dur

    def _credit_ancestor(self, name: str, dur: float) -> None:
        # newton time inside a fiber sample, and outermost plan/sample time
        # inside a suite, are subtracted from those spans' self time
        if name == "newton_project":
            targets, stops = ("sample_fiber",), ()
        elif name in SUITE_CHILDREN:
            targets, stops = ("run_contract_suite",), SUITE_CHILDREN
        else:
            return
        for frame in reversed(self._stack):
            if frame[1] in stops:
                return
            if frame[1] in targets:
                frame[3] += dur
                return

    def spans(self) -> int:
        return len(self.start)

    def dump(self, path) -> None:
        """Write every span as flat arrays plus the name table."""
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            query=np.frombuffer(self.query, dtype=np.int32),
        )

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, key=None, on_exit=None) -> None:
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = orig(*args, **kwargs)
            except BaseException as ex:
                self._exit(frame, key(args, None, ex) if key else "")
                if on_exit:
                    on_exit(args, None, ex)
                raise
            self._exit(frame, key(args, result, None) if key else "")
            if on_exit:
                on_exit(args, result, None)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, modules, attr: str, name: str, **kw) -> None:
        # modules that imported the function by name hold their own reference
        for mod in modules:
            if hasattr(mod, attr):
                self._patch(mod, attr, name, **kw)

    def _flagged(self, owner, attr: str, name: str, flag: str, key=None, on_exit=None):
        """Patch and keep a depth counter set while the call is active."""
        self._patch(owner, attr, name, key=key, on_exit=on_exit)
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def depth(*args, **kwargs):
            setattr(self, flag, getattr(self, flag) + 1)
            try:
                return inner(*args, **kwargs)
            finally:
                setattr(self, flag, getattr(self, flag) - 1)

        setattr(owner, attr, depth)

    def install(self) -> None:
        """Wrap the public entry points of every tubeplan layer."""
        import tubeplan

        sp, geo, fib, mil, ver = sphere_planner, geometry, fibration, milnor, verify
        c = self.counts

        def hit(args, result, ex):
            if ex is None:
                c[f"region_hits.{result}"] += 1

        def plan_done(args, result, ex):
            c["plans"] += 1

        for cls in (sp.SpherePlanner, fib.TaskingPlanner):
            self._flagged(cls, "plan", f"{cls.__name__}.plan", "_in_plan", on_exit=plan_done)
        self._patch(sp.SpherePlanner, "dispatch", "SpherePlanner.dispatch", on_exit=hit)
        # build_planner reads these globals when it makes the regions, so
        # planners built after install() carry the wrapped rules
        for fn in REGION_BUILDERS:
            self._patch(sp, fn, "Region.build")

        def at_count(args, result, ex):
            if self._in_plan:
                c["at_calls_in_plans"] += 1

        self._patch(geo.PathExpr, "at", "PathExpr.at", on_exit=at_count)

        def sample_kind(args, result, ex):
            # runs before the span's own frame leaves the stack
            outer = not any(f[1] == "PathExpr.sample" for f in self._stack[:-1])
            kind = "numeric_lift" if isinstance(args[0], geo.NumericLift) else "closed_form"
            return kind if outer else "nested"

        self._patch(geo.PathExpr, "sample", "PathExpr.sample", key=sample_kind)
        self._patch_everywhere((geo, tubeplan), "path_to_json", "path_to_json")
        self._patch_everywhere((geo, tubeplan), "path_from_json", "path_from_json")

        self._patch(fib.ExactCircleOracle, "lift", "ExactCircleOracle.lift")

        def lift_kind(args, result, ex):
            return "refused" if isinstance(ex, LiftFailure) else ("ok" if ex is None else "error")

        def lift_done(args, result, ex):
            if ex is None:
                c["numeric_knots"] += result.knots.shape[0]

        self._flagged(
            fib.NumericOracle, "lift", "NumericOracle.lift", "_in_numeric_lift",
            key=lift_kind, on_exit=lift_done,
        )

        def newton_done(args, result, ex):
            if ex is None:
                c["newton_rows"] += int(np.asarray(args[2]).shape[0])
                c["newton_converged"] += int(np.sum(result[1]))

        self._patch(mil, "newton_project", "newton_project", on_exit=newton_done)
        self._patch(
            fib.WorkMap, "sample", "WorkMap.sample",
            key=lambda a, r, e: "tube" if a[0].germ is not None else "other",
        )

        def fiber_key(args, result, ex):
            return "point" if args[0].ncx == 1 else "continuous"

        def fiber_done(args, result, ex):
            if ex is None:
                c["fiber_seeds"] += result.n_seeds
                c["fiber_converged"] += result.n_converged

        self._patch_everywhere(
            (mil, cli, tubeplan), "sample_fiber", "sample_fiber", key=fiber_key, on_exit=fiber_done
        )
        for fn in ("sample_link", "regularity_probe", "monodromy_components"):
            self._patch_everywhere((mil, cli, tubeplan), fn, fn)
        self._patch_everywhere((ver, cli, tubeplan), "run_contract_suite", "run_contract_suite")
        self._patch(cli, "main", "cli.main", key=lambda a, r, e: a[0][0])  # the subcommand
        # count the rows the numeric work maps evaluate, wherever they are built
        for mod in (fib, cli, tubeplan):
            if hasattr(mod, "rr_arm_workmap"):
                self._wrap_factory(mod, "rr_arm_workmap")
        for mod in (mil, cli, tubeplan):
            if hasattr(mod, "hopf_germ"):
                self._wrap_factory(mod, "hopf_germ")

    def _wrap_factory(self, mod, attr: str) -> None:
        orig = getattr(mod, attr)

        @functools.wraps(orig)
        def factory(*args, **kwargs):
            return self.count_rows(orig(*args, **kwargs))

        self._patches.append((mod, attr, orig))
        setattr(mod, attr, factory)

    def count_rows(self, wm):
        """The work map with f and jac counting rows inside numeric lifts."""
        c = self.counts

        def counted(fn, label):
            def inner(x):
                if self._in_numeric_lift:
                    x = np.asarray(x)
                    c[label] += x.size // x.shape[-1] if x.ndim else 1
                return fn(x)

            return inner

        return dataclasses.replace(wm, f=counted(wm.f, "f_rows"), jac=counted(wm.jac, "jac_rows"))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- per-layer metrics ------------------------------------------------------

    def mean(self, names, keys="", scale: float = 1.0, self_time: bool = False) -> float:
        """Mean total (or self) time per call of the spans with these names and keys."""
        names = (names,) if isinstance(names, str) else names
        keys = (keys,) if isinstance(keys, str) else keys
        rows = [self.totals.get((n, k), (0, 0.0, 0.0)) for n in names for k in keys]
        calls = sum(r[0] for r in rows)
        total = sum(r[2] if self_time else r[1] for r in rows)
        return scale * total / calls if calls else 0.0
