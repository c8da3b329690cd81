"""Opt-in tracing of calls into equiguide's layers.

Wrappers go on the names the callers look up: ``samplers`` imports
``backward`` and ``equi_loss`` by name, so those wrappers sit in the
``equiguide.samplers`` namespace; methods are wrapped on their class. Layer
calls are recorded only inside a sampler span, so every traced figure is a
cost of reverse steps and nothing else (not training, not data loading).
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

_perf = time.perf_counter


class Tracer:
    """Per-(phase, name) call counts, inclusive time and time in child spans."""

    def __init__(self):
        self.phase = "untagged"
        self.stats: dict[str, list] = {}  # "phase|name" -> [calls, total_s, child_s, steps]
        self._stack: list[list[float]] = []
        self._sampler_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    def _record(self, name: str, calls: int, total: float, child: float, steps: int = 0):
        st = self.stats.setdefault(f"{self.phase}|{name}", [0, 0.0, 0.0, 0])
        st[0] += calls
        st[1] += total
        st[2] += child
        st[3] += steps

    def wrap(self, name: str, fn, kind: str = "layer"):
        """kind: "sampler" opens a sampler span, "layer" records inside one,
        "count" only counts inside one, "outer" always records."""
        tracer = self

        if kind == "count":
            def counted(*args, **kwargs):
                if tracer._sampler_depth:
                    tracer._record(name, 1, 0.0, 0.0)
                return fn(*args, **kwargs)
            return counted

        def timed(*args, **kwargs):
            active = kind != "layer" or tracer._sampler_depth > 0
            if not active:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            if kind == "sampler":
                tracer._sampler_depth += 1
            t0 = _perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                tracer._stack.pop()
                if kind == "sampler":
                    tracer._sampler_depth -= 1
                if tracer._stack:
                    tracer._stack[-1][0] += dt
            steps = len(out.records) if kind == "sampler" else 0
            tracer._record(name, 1, dt, frame[0], steps)
            return out
        return timed

    def patch(self, owner, attr: str, name: str, kind: str = "layer") -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, staticmethod(self.wrap(name, getattr(owner, attr), kind)))
        else:
            setattr(owner, attr, self.wrap(name, raw, kind))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def install(self) -> "Tracer":
        from equiguide import autodiff, cli, groups, harness, models, nn, operators, samplers

        self.patch(samplers, "backward", "autodiff.backward")
        self.patch(samplers, "equi_loss", "equi.equi_loss")
        self.patch(models.DenoiserScore, "score_traced", "models.score_traced")
        self.patch(models.AnalyticGmmScore, "score_traced", "models.score_traced")
        self.patch(operators.MeasurementOperator, "apply", "operators.apply")
        self.patch(groups.GroupAction, "apply_domain", "groups.apply")
        self.patch(groups.GroupAction, "apply_codomain", "groups.apply")
        self.patch(autodiff.Tensor, "_wrap", "autodiff.ops", kind="count")
        self.patch(nn, "conv2d_mc", "autodiff.conv2d_mc", kind="count")
        self.patch(harness, "dps_sample", "samplers.sample", kind="sampler")
        self.patch(harness, "equi_dps_sample", "samplers.sample", kind="sampler")
        self.patch(harness, "run_cell", "harness.run_cell", kind="outer")
        for cmd in ("cmd_gen_data", "cmd_train", "cmd_run", "cmd_report"):
            self.patch(cli, cmd, "cli.cmd", kind="outer")
        return self

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def sampler_call(self, fn, *args, **kwargs):
        """Run one sampler call from the benchmark itself as a sampler span."""
        return self.wrap("samplers.sample", fn, kind="sampler")(*args, **kwargs)

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.stats))


def merge(into: dict, stats: dict, phase: str | None = None) -> None:
    """Add a dumped stats table into another, optionally re-tagging its phase."""
    for key, st in stats.items():
        name = key.split("|", 1)[1]
        new_key = f"{phase}|{name}" if phase else key
        acc = into.setdefault(new_key, [0, 0.0, 0.0, 0])
        for i in range(4):
            acc[i] += st[i]


def _sum(stats: dict, name: str, phases, field: int):
    return sum(st[field] for key, st in stats.items()
               if key.split("|", 1)[1] == name and key.split("|", 1)[0] in phases)


def per_step_metrics(stats: dict) -> dict[str, float]:
    """Per-layer figures of the reverse steps in the "dps" and "equireg" phases."""
    both = ("dps", "equireg")
    steps = {p: _sum(stats, "samplers.sample", (p,), 3) for p in both}
    all_steps = steps["dps"] + steps["equireg"]

    def per_call_ms(name, phases=both):
        calls = _sum(stats, name, phases, 0)
        return 1000.0 * _sum(stats, name, phases, 1) / calls if calls else 0.0

    sampler_self = (_sum(stats, "samplers.sample", both, 1)
                    - _sum(stats, "samplers.sample", both, 2))
    return {
        "samplers.step_ms.dps": 1000.0 * _sum(stats, "samplers.sample", ("dps",), 1) / steps["dps"],
        "samplers.step_ms.equireg":
            1000.0 * _sum(stats, "samplers.sample", ("equireg",), 1) / steps["equireg"],
        "samplers.self_ms_per_step": 1000.0 * sampler_self / all_steps,
        "models.score_traced_ms": per_call_ms("models.score_traced"),
        "models.score_evals_per_step": _sum(stats, "models.score_traced", both, 0) / all_steps,
        "autodiff.backward.ms_per_step":
            1000.0 * _sum(stats, "autodiff.backward", both, 1) / all_steps,
        "autodiff.op_calls_per_step": _sum(stats, "autodiff.ops", both, 0) / all_steps,
        "autodiff.conv2d_mc.calls_per_step": _sum(stats, "autodiff.conv2d_mc", both, 0) / all_steps,
        "equi.equi_loss_ms": per_call_ms("equi.equi_loss", ("equireg",)),
        "equi.equi_grads_per_step":
            _sum(stats, "equi.equi_loss", ("equireg",), 0) / steps["equireg"],
        "groups.apply_ms": per_call_ms("groups.apply", ("equireg",)),
        "operators.apply_ms": per_call_ms("operators.apply"),
    }


def harness_metrics(stats: dict, phases) -> dict[str, float]:
    """Cost of harness.run_cell around its sampler calls (single-chain calls)."""
    cells = _sum(stats, "harness.run_cell", phases, 0)
    cell_s = _sum(stats, "harness.run_cell", phases, 1)
    calls = _sum(stats, "samplers.sample", phases, 0)
    sampler_s = _sum(stats, "samplers.sample", phases, 1)
    return {
        "harness.sampler_calls_per_run": calls / cells,
        "harness.run_cell_s": cell_s / cells,
        "harness.per_chain_overhead_ms": 1000.0 * (cell_s - sampler_s) / calls,
    }
