"""Span tracer for the per-layer metrics, applied from outside weakkam.

``Tracer.install`` replaces the public entry points of each weakkam module
with wrappers that record a span (name, parent span, start, end) and the
work counts of the call, and ``uninstall`` puts the originals back, so
traced and untraced repetitions can alternate in one process.  Spans and
counts stay in memory until ``layer_metrics`` reduces them.

A function is replaced under every name a weakkam module holds it by
(``cli`` imports most entry points by name), and in ``cli._COMMANDS``,
which dispatches the subcommands.  Methods are replaced on their class.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

MB = float(1 << 20)


def _max(counts, key, value):
    counts[key] = max(counts[key], value)


def _kernel_tables(counts, args, out):
    k = args[0]
    _max(counts, "kernel_table_bytes", k.start_index.nbytes + k.base_cost.nbytes)


def _point_offsets(counts, args, out):
    counts["kernel_point_offsets"] += args[0].grid.size * args[0].n_offsets


def _picard(counts, args, out):
    counts["picard_passes"] += out[1].iterations


def _blocks(counts, args, out):
    counts["converge_blocks"] += len(out.block_times)


def _action_table(counts, args, out):
    counts["action_tables"] += 1
    _max(counts, "action_table_bytes", out.values.nbytes)


def _rk4(counts, args, out):
    counts["rk4_steps"] += out.times.size - 1


def _lf(counts, args, out):
    steps = out.values.shape[0] - 1
    counts["lf_steps"] += steps
    counts["lf_point_steps"] += steps * out.grid.size


def _csv_rows(counts, args, out):
    counts["csv_rows"] += out.count("\n") - 1


# (module, attribute or Class.method, span name, counter update)
ENTRY_POINTS = [
    ("config", "load_config", "config.load", None),
    ("models", "audit_assumptions", "models.audit", None),
    ("kernels", "StepKernel.__init__", "kernels.build", _kernel_tables),
    ("kernels", "StepKernel.apply", "kernels.apply", _point_offsets),
    ("kernels", "StepKernel.apply_with_argmin", "kernels.argmin", None),
    ("kernels", "StepKernel.apply_table", "kernels.table_step", None),
    ("kernels", "min_plus_product", "kernels.min_plus", None),
    ("semigroup", "fixed_point", "semigroup.fixed_point", _picard),
    ("semigroup", "check_properties", "semigroup.check_properties", None),
    ("semigroup", "extract_calibrated_curve", "semigroup.curve", None),
    ("semigroup", "converge", "semigroup.converge", _blocks),
    ("semigroup", "weak_kam_residual", "semigroup.residual", None),
    ("action", "min_action", "action.min_action", _action_table),
    ("action", "ActionTable.compose", "action.compose", _action_table),
    ("action", "critical_value", "action.critical_value", None),
    ("characteristics", "flow", "characteristics.flow", _rk4),
    ("characteristics", "dH_law_residual", "characteristics.dh_law", None),
    ("characteristics", "match_calibrated", "characteristics.match", None),
    ("fdoracle", "lf_solve", "fdoracle.lf_solve", _lf),
    ("torus", "SpaceTimeField.to_csv", "torus.to_csv", _csv_rows),
    ("cli", "cmd_solve", "cli.solve", None),
    ("cli", "cmd_check", "cli.check", None),
    ("cli", "cmd_critical", "cli.critical", None),
    ("cli", "cmd_converge", "cli.converge", None),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counts = defaultdict(int)
        self._open = []
        self._undo = []

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else -1, time.perf_counter(), 0.0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "weakkam" or n.startswith("weakkam.")]
        commands = sys.modules["weakkam.cli"]._COMMANDS
        for mod_name, attr, name, count in ENTRY_POINTS:
            mod = sys.modules[f"weakkam.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, count))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, count)
            for holder in modules:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, orig))
            for key, val in commands.items():
                if val is orig:
                    commands[key] = wrapped
                    self._undo.append((commands, key, orig))

    def uninstall(self):
        for holder, key, orig in reversed(self._undo):
            if isinstance(holder, dict):
                holder[key] = orig
            else:
                setattr(holder, key, orig)
        self._undo = []

    def totals(self):
        """span name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, _, start, end), kids in zip(self.spans, child):
            acc = out[name]
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - kids
        return out

    def dump(self):
        """Spans and counts as plain data for a trace file."""
        return {"spans": self.spans, "counts": dict(self.counts)}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if "ns_per_" in metric:
        return "ns"
    if metric.endswith("bytes_written"):
        return "bytes"
    return "count"


def _per(num, den, scale):
    return num * scale / den if den else 0.0


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict:
    """The per-layer metrics of one traced repetition; a layer the
    workload does not reach reads 0."""
    t = tracer.totals()
    c = tracer.counts

    def calls(name):
        return t[name][0] if name in t else 0

    def secs(name):
        return t[name][1] if name in t else 0.0

    def self_secs(prefix):
        return sum(v[2] for k, v in t.items() if k.startswith(prefix))

    return {
        "config.load_s": secs("config.load"),
        "models.audit_calls": calls("models.audit"),
        "models.audit_s": secs("models.audit"),
        "kernels.build_calls": calls("kernels.build"),
        "kernels.build_s": secs("kernels.build"),
        "kernels.table_mb": c["kernel_table_bytes"] / MB,
        "kernels.apply_calls": calls("kernels.apply"),
        "kernels.apply_s": secs("kernels.apply"),
        "kernels.apply_ns_per_point_offset": _per(
            secs("kernels.apply"), c["kernel_point_offsets"], 1e9
        ),
        "kernels.argmin_s": secs("kernels.argmin"),
        "kernels.table_step_calls": calls("kernels.table_step"),
        "kernels.table_step_s": secs("kernels.table_step"),
        "kernels.min_plus_calls": calls("kernels.min_plus"),
        "kernels.min_plus_s": secs("kernels.min_plus"),
        "semigroup.fixed_point_calls": calls("semigroup.fixed_point"),
        "semigroup.picard_passes": c["picard_passes"],
        "semigroup.fixed_point_s": secs("semigroup.fixed_point"),
        "semigroup.fixed_point_self_s": self_secs("semigroup.fixed_point"),
        "semigroup.check_properties_s": secs("semigroup.check_properties"),
        "semigroup.curve_s": secs("semigroup.curve"),
        "semigroup.converge_s": secs("semigroup.converge"),
        "semigroup.converge_blocks": c["converge_blocks"],
        "semigroup.residual_s": secs("semigroup.residual"),
        "action.min_action_s": secs("action.min_action"),
        "action.critical_value_s": secs("action.critical_value"),
        "action.tables": c["action_tables"],
        "action.table_mb": c["action_table_bytes"] / MB,
        "characteristics.flow_s": secs("characteristics.flow"),
        "characteristics.rk4_steps": c["rk4_steps"],
        "characteristics.match_s": secs("characteristics.match"),
        "fdoracle.lf_solve_s": secs("fdoracle.lf_solve"),
        "fdoracle.lf_steps": c["lf_steps"],
        "fdoracle.ns_per_point_step": _per(secs("fdoracle.lf_solve"), c["lf_point_steps"], 1e9),
        "torus.to_csv_s": secs("torus.to_csv"),
        "torus.csv_rows": c["csv_rows"],
        "torus.csv_ns_per_row": _per(secs("torus.to_csv"), c["csv_rows"], 1e9),
        "cli.solve_s": secs("cli.solve"),
        "cli.check_s": secs("cli.check"),
        "cli.critical_s": secs("cli.critical"),
        "cli.converge_s": secs("cli.converge"),
        "cli.self_s": self_secs("cli."),
        "cli.bytes_written": bytes_written,
    }
