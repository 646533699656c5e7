"""Outside-in tracer for the spin7 package.

The tracer never edits `src/spin7`.  It replaces each traced public
function at every module binding that callers use (for example both
`spin7.algebra.metric_from_form` and the `metric_from_form` name that
`spin7.flow` imported), so calls made through any of them are recorded.
Spans carry a parent link and the identifier of the operation that caused
them, stay in memory, and are written out once at the end of a run.

Kernel counts (`bytes_computed`, `flops_computed`) are derived from the
argument shapes of the current dense kernels, not measured by hardware
counters; they are labelled as computed wherever they are reported.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import os
import re
import sys
import time

import numpy as np

# (module, attribute) of every traced callable; "Class.method" patches the class.
TRACED = (
    ("cli", "main"),
    ("flow", "run_flow"),
    ("flow", "flow_step"),
    ("flow", "initial_data"),
    ("flow", "diagnostics"),
    ("flow", "metric_drift"),
    ("flow", "theta_functional"),
    ("flow", "entropy"),
    ("lattice", "torsion"),
    ("lattice", "div_torsion"),
    ("lattice", "bianchi_residual"),
    ("lattice", "ricci_residual"),
    ("lattice", "scalar_residual"),
    ("algebra", "unpack4"),
    ("algebra", "pi7"),
    ("algebra", "metric_from_form"),
    ("orbit", "so8_exp"),
    ("orbit", "rotate_form"),
    ("heat", "heat_weights"),
    ("storage", "read_checkpoint"),
    ("storage", "write_checkpoint"),
    ("storage", "SeriesWriter.flush"),
)

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

# Tail samples a percentile needs beyond it before it is reported.
TAIL_SAMPLES = 10


def valid_name(name: str) -> bool:
    return NAME_RE.match(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.match(unit) is not None


def percentile(samples, q: float) -> float:
    """Nearest-rank q-quantile of samples, or 0.0 when fewer than
    TAIL_SAMPLES samples lie above it (the median is always reported)."""
    n = len(samples)
    if n == 0:
        return 0.0
    rank = max(1, math.ceil(q * n))
    if q > 0.5 and n - rank < TAIL_SAMPLES:
        return 0.0
    return sorted(samples)[rank - 1]


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of its interval covered by
    its direct children.  spans are (parent_index, start, end) triples."""
    children: dict[int, list[tuple[float, float]]] = {}
    for parent, t0, t1 in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for i, (_, t0, t1) in enumerate(spans):
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children.get(i, ())):
            lo, hi = max(c0, reach), min(c1, t1)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((t1 - t0) - covered)
    return out


# ---------------------------------------------------------------------------
# computed kernel counts, from the shapes the current dense kernels use

def torsion_counts(args) -> dict:
    """lattice.torsion(spec, phi_canon, ...): the dense gradient einsum
    ...majkl,...bjkl->...mab reads k dense gradients and one dense form and
    writes k 8x8 blocks per point."""
    spec, phi = args[0], args[1]
    points = math.prod(phi.shape[:-1])
    k = spec.n_axes
    return {
        "flops_computed": 2 * 512 * 64 * k * points,
        "bytes_computed": 8 * points * (4096 * k + 4096 + 64 * k),
    }


def rotate_form_counts(args) -> dict:
    """orbit.rotate_form(r, sigma): four (512 x 8) @ (8 x 8) products per form."""
    r, sigma = args[0], args[1]
    batch = math.prod(np.broadcast_shapes(sigma.shape[:-4], r.shape[:-2]))
    return {"flops_computed": 4 * 512 * 2 * 64 * batch}


def _state_key(phi) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(phi).tobytes(), digest_size=16).digest()


class Tracer:
    """Records spans and counts for the calls made while it is installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []     # [name index, parent, op, start, end]
        self.counts: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._states: set[bytes] = set()
        self.distinct_states = 0

    # -- installation -----------------------------------------------------
    def install(self, package: str = "spin7") -> None:
        owners = {m: importlib.import_module(f"{package}.{m}") for m, _ in TRACED}
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, attr in TRACED:
            owner = owners[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(f"{mod_name}.{attr}", getattr(cls, meth)))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def begin_op(self) -> None:
        self.op += 1

    def _new_root(self) -> None:
        # states are counted as distinct within one top-level call
        self.distinct_states += len(self._states)
        self._states = set()

    def finish(self) -> None:
        self._new_root()

    def _count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _after(self, name: str, args) -> None:
        try:
            if name == "lattice.torsion":
                for stat, v in torsion_counts(args).items():
                    self._count(f"{name}.{stat}", v)
                self._states.add(_state_key(args[1]))
            elif name == "orbit.rotate_form":
                for stat, v in rotate_form_counts(args).items():
                    self._count(f"{name}.{stat}", v)
            elif name in ("storage.read_checkpoint", "storage.write_checkpoint"):
                self._count(f"{name}.bytes", os.path.getsize(args[0]))
        except (AttributeError, IndexError, TypeError, OSError):
            # a changed signature leaves the count out, never the call
            pass

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            if not stack:
                self._new_root()
            span = [idx, stack[-1] if stack else -1, self.op, 0.0, 0.0]
            spans.append(span)
            stack.append(sid)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            self._after(name, args)
            return result

        return traced

    # -- derived figures --------------------------------------------------
    def per_function(self) -> dict[str, dict]:
        """calls, s, self_s and per-call durations of every traced name."""
        selfs = self_times([(p, t0, t1) for _, p, _, t0, t1 in self.spans])
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
               for n in self.names}
        for span, own in zip(self.spans, selfs):
            rec = out[self.names[span[0]]]
            d = span[4] - span[3]
            rec["calls"] += 1
            rec["s"] += d
            rec["self_s"] += own
            rec["durations"].append(d)
        return out

    def time_under(self, ancestor: str, name: str) -> float:
        """Total duration of `name` spans that have an `ancestor` span above them."""
        anc = self.names.index(ancestor)
        total = 0.0
        for span in self.spans:
            if self.names[span[0]] != name:
                continue
            p = span[1]
            while p >= 0 and self.spans[p][0] != anc:
                p = self.spans[p][1]
            if p >= 0:
                total += span[4] - span[3]
        return total

    def write(self, path: str, phase: str) -> None:
        """Append this tracer's spans to a JSON-lines file."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, (idx, parent, op, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"phase": phase, "id": i, "parent": parent,
                                     "op": op, "name": self.names[idx],
                                     "start": t0, "end": t1}) + "\n")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Every traced name's stats: totals divided by the number of operations,
    per-call percentiles with `samples`, the number of calls they were taken
    from over the whole traced run."""
    out = {}
    for name, rec in tracer.per_function().items():
        out[f"{name}.calls"] = rec["calls"] / ops
        out[f"{name}.s"] = rec["s"] / ops
        out[f"{name}.self_s"] = rec["self_s"] / ops
        durations = rec["durations"]
        out[f"{name}.p50_ms"] = 1e3 * percentile(durations, 0.5)
        out[f"{name}.p90_ms"] = 1e3 * percentile(durations, 0.9)
        out[f"{name}.samples"] = len(durations)
    for key, value in tracer.counts.items():
        out[key] = value / ops
    calls = len([s for s in tracer.spans if tracer.names[s[0]] == "lattice.torsion"])
    out["lattice.torsion.evals_per_state"] = (
        calls / tracer.distinct_states if tracer.distinct_states else 0.0)
    return out


# ---------------------------------------------------------------------------
# the stage table of ROADMAP's baseline, one column per lattice

STAGE_ROWS = (
    ("unpack4", "algebra.unpack4"),
    ("lattice.torsion", "lattice.torsion"),
    ("div_torsion + pi7", "lattice.div_torsion"),
    ("so8_exp", "orbit.so8_exp"),
    ("rotate_form", "orbit.rotate_form"),
    ("per-step", None),
    ("metric_drift", "flow.metric_drift"),
    ("diagnostics", "flow.diagnostics"),
)


def stage_table(timed: Tracer, setup: Tracer, steps: int) -> dict:
    """Median ms per call of each stage; a stage the timed phase never
    calls is taken from the traced set-up.  per-step is run_flow's time
    less its records and checkpoint writes, over the steps it made, or
    else the median `flow_step` of set-up."""
    ft, fs = timed.per_function(), setup.per_function()
    out = {}
    for label, name in STAGE_ROWS:
        if name is None:
            if ft["flow.run_flow"]["calls"] and steps:
                busy = (ft["flow.run_flow"]["s"]
                        - timed.time_under("flow.run_flow", "flow.diagnostics")
                        - timed.time_under("flow.run_flow", "storage.write_checkpoint"))
                out[label] = 1e3 * busy / steps
            else:
                durations = fs["flow.flow_step"]["durations"]
                out[label] = 1e3 * percentile(durations, 0.5) if durations else None
            continue
        rec = ft[name] if ft[name]["calls"] else fs[name]
        out[label] = 1e3 * percentile(rec["durations"], 0.5) if rec["calls"] else None
    return out


def format_table(columns: dict[str, dict]) -> str:
    """Markdown table, stages as rows and lattices as columns (ms)."""
    heads = list(columns)
    lines = ["| stage (median ms per call) | " + " | ".join(heads) + " |",
             "|---" * (len(heads) + 1) + "|"]
    for label, _ in STAGE_ROWS:
        cells = []
        for h in heads:
            v = columns[h].get(label)
            cells.append("-" if v is None else f"{v:.3g} ms")
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(lines)
