"""Span and counter tracing of transtri's layers, from outside the package.

The tracer wraps functions and methods that transtri's modules expose and
records a span (name, start, end, parent span, operation id, tag, value)
around every call of a traced boundary, plus plain counters at the hottest
boundaries, where a span per call would cost more than the call itself.
Nothing in the package is edited: wrappers are installed by rebinding
module and class attributes and removed again by :meth:`Tracer.uninstall`.

Spans live in compact arrays while the run goes on; every per-layer number
(per-level attribution, self time) is computed from them afterwards, and
:meth:`Tracer.save` writes them out when the run ends.

transtri is single-threaded, so spans never overlap except by nesting and
no layer waits on another: the trace reports busy time only.
"""

import functools
import sys
import time
from array import array

import numpy as np

# Span boundaries: (span name, module, owner attribute or None, callable name).
# A private name (leading underscore) may disappear in a refactor; the
# metrics that need it are then reported missing instead of as zero.
SPANS = [
    ("simplicial.subdivision", "transtri.perturb", None, "subdivision_data"),
    ("simplicial.locate", "transtri.charts", "StarLocator", "contains_base_point"),
    ("simplicial.locate", "transtri.perturb", "SubdivisionData", "carrier"),
    ("charts.apply", "transtri.charts", "ChainOps", "apply"),
    ("charts.apply_jac", "transtri.charts", "ChainOps", "apply_with_jacobian"),
    ("charts.invert", "transtri.charts", "ChainOps", "invert"),
    ("perturb.level", "transtri.perturb", None, "perturb_level"),
    ("perturb.clearance", "transtri.perturb", None, "estimate_c_sigma"),
    ("perturb.containment", "transtri.perturb", None, "containment_ok"),
    ("perturb.sampling", "transtri.perturb", None, "_sample_shift"),
    ("perturb.candidate", "transtri.perturb", None, "_candidate_transverse"),
    ("perturb.guard", "transtri.perturb", None, "build_local_diffeo"),
    ("perturb.link", "transtri.perturb", None, "extend_to_ambient"),
    ("verify.final", "transtri.verify", None, "verify_triangulation"),
    ("verify.find", "transtri.verify", None, "find_intersections"),
    ("verify.pair_seeds", "transtri.verify", None, "_pair_seeds"),
    ("verify.gn", "transtri.verify", None, "_gauss_newton"),
    ("render.artifacts", "transtri.cli", None, "_write_artifacts"),
]

# Counter boundaries: (counter name, module, owner attribute or None, callable name).
COUNTERS = [
    ("charts.link_evals", "transtri.charts", "AmbientDiffeo", "in_box"),
    ("charts.link_apply", "transtri.charts", "AmbientDiffeo", "apply"),
    ("bump.rho_l", "transtri.bump", None, "rho_l"),
    ("smoothmap.eval", "transtri.smoothmap", "SmoothMap", "eval"),
    ("smoothmap.eval", "transtri.smoothmap", "SmoothMap", "eval_batch"),
    ("smoothmap.eval", "transtri.smoothmap", "SmoothMap", "eval_raw"),
    ("smoothmap.jac", "transtri.smoothmap", "SmoothMap", "jacobian"),
    ("smoothmap.jac", "transtri.smoothmap", "SmoothMap", "jacobian_raw"),
]

# Tag recorded when a span opens (from the call's arguments) and value
# recorded when it closes (from the result); -1 marks a raised exception.
_LEVEL_ARG = 1  # perturb_level(state, level, ...)


def _tag_level(args, kwargs):
    return int(kwargs["level"] if "level" in kwargs else args[_LEVEL_ARG])


def _value_truthy(result):
    return 1 if result else 0


def _value_not_none(result):
    return 0 if result is None else 1


def _value_pairs(result):
    return len(result[2])  # _pair_seeds -> (ys, ts, pairs, min_distance)


def _value_records(result):
    return len(result.records)


TAGS = {"perturb.level": _tag_level}
VALUES = {
    "perturb.candidate": _value_truthy,
    "verify.gn": _value_not_none,
    "verify.pair_seeds": _value_pairs,
    "verify.final": _value_records,
}
NO_TAG = -1


def _bindings(module_name, owner, name):
    """Every (namespace, attribute) pair that holds the target callable.

    A module-level function is also rebound in every transtri module that
    imported it by name; a method is rebound on its class only.
    Returns (original, bindings), or (None, []) when the name is gone.
    """
    module = sys.modules.get(module_name)
    if module is None:
        return None, []
    if owner is not None:
        cls = getattr(module, owner, None)
        if cls is None or name not in vars(cls):
            return None, []
        return vars(cls)[name], [(cls, name)]
    original = getattr(module, name, None)
    if original is None:
        return None, []
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "transtri" or mod_name.startswith("transtri.")):
            continue
        for attr, val in vars(mod).items():
            if val is original:
                found.append((mod, attr))
    return original, found


class Tracer:
    """Records spans and counters while installed; idle otherwise."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._nid = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.tag = array("l")
        self.value = array("l")
        self._stack = []
        self.op_id = -1
        self.op_counts = {}
        self._counts = None
        self._patched = []
        self.missing = set()
        self.final_calls = []

    # -- span recording ---------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name, tag=NO_TAG):
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.tag.append(tag)
        self.value.append(0)
        self.end.append(float("nan"))
        self._nid.append(self._name_id(name))
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid, value=0):
        self.end[sid] = time.perf_counter()
        self.value[sid] = value
        self._stack.pop()

    def begin_op(self):
        """Start a new operation: later spans and counts belong to it."""
        self.op_id += 1
        self._counts = self.op_counts[self.op_id] = {}
        self.final_calls = []
        return self.op_id

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tag_of = TAGS.get(name)
        value_of = VALUES.get(name)
        keep = name == "verify.final"  # the final states feed the kernel probes
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name, tag_of(args, kwargs) if tag_of else NO_TAG)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(sid, -1)
                raise
            tracer.close(sid, value_of(result) if value_of else 0)
            if keep:
                tracer.final_calls.append((args, kwargs, result))
            return result

        return traced

    def _counter_wrapper(self, name, fn):
        tracer = self
        if name == "charts.link_evals":
            @functools.wraps(fn)
            def counted(self_, x):
                inside = fn(self_, x)
                if inside:
                    c = tracer._counts
                    c[name] = c.get(name, 0) + 1
                return inside
        elif name == "charts.link_apply":
            @functools.wraps(fn)
            def counted(self_, x):
                out = fn(self_, x)
                c = tracer._counts
                c[name] = c.get(name, 0) + 1
                if out is not x and out.tobytes() != np.asarray(x, float).tobytes():
                    c["charts.link_moved"] = c.get("charts.link_moved", 0) + 1
                return out
        else:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                c = tracer._counts
                c[name] = c.get(name, 0) + 1
                return fn(*args, **kwargs)
        return counted

    def install(self):
        """Wrap every boundary that still exists; note the missing ones."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for table, make in ((SPANS, self._span_wrapper), (COUNTERS, self._counter_wrapper)):
            for name, module_name, owner, attr in table:
                original, where = _bindings(module_name, owner, attr)
                if original is None:
                    self.missing.add(name)
                    continue
                wrapped = make(name, original)
                for ns, key in where:
                    self._patched.append((ns, key, original))
                    setattr(ns, key, wrapped)

    def uninstall(self):
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched = []

    # -- output -----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays, one entry per span, in opening order."""
        return {
            "name": np.array(self._nid, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "tag": np.array(self.tag, dtype=np.int64),
            "value": np.array(self.value, dtype=np.int64),
        }

    def save(self, path):
        """Write spans, the name table and per-operation counters to .npz."""
        data = self.arrays()
        ops = sorted(self.op_counts)
        keys = sorted({k for c in self.op_counts.values() for k in c})
        np.savez_compressed(
            path, names=np.array(self.names), counter_names=np.array(keys),
            counter_ops=np.array(ops, dtype=np.int64),
            counters=np.array([[self.op_counts[o].get(k, 0) for k in keys] for o in ops],
                              dtype=np.int64).reshape(len(ops), len(keys)),
            **data)


# ---------------------------------------------------------------------------
# per-layer metrics from spans and counters

LEVELS = (0, 1, 2)

# metric name -> (unit, better, span or counter names it needs)
LAYER_METRICS = {
    "simplicial.subdivision_s": ("s", "lower", ["simplicial.subdivision"]),
    "simplicial.locate_calls": ("count", "lower", ["simplicial.locate"]),
    "simplicial.locate_s": ("s", "lower", ["simplicial.locate"]),
    "simplicial.locate_us": ("us", "lower", ["simplicial.locate"]),
    "charts.link_evals": ("count", "lower", ["charts.link_evals"]),
    "charts.link_moved_ratio": ("ratio", "higher", ["charts.link_apply"]),
    "bump.rho_l_calls": ("count", "lower", ["bump.rho_l"]),
    "smoothmap.eval_calls": ("count", "lower", ["smoothmap.eval"]),
    "smoothmap.jac_calls": ("count", "lower", ["smoothmap.jac"]),
    "verify.final_s": ("s", "lower", ["verify.final"]),
    "verify.find_calls": ("count", "lower", ["verify.find"]),
    "verify.find_s": ("s", "lower", ["verify.find"]),
    "verify.seed_pairs": ("count", "lower", ["verify.pair_seeds"]),
    "verify.pair_seeds_s": ("s", "lower", ["verify.pair_seeds"]),
    "verify.gn_solves": ("count", "lower", ["verify.gn"]),
    "verify.gn_s": ("s", "lower", ["verify.gn"]),
    "verify.gn_self_s": ("s", "lower", ["verify.gn"]),
    "verify.gn_us": ("us", "lower", ["verify.gn"]),
    "verify.gn_converged_ratio": ("ratio", "higher", ["verify.gn"]),
    # a correctness count: it should not move at all
    "verify.records": ("count", "lower", ["verify.final"]),
    "render.artifacts_s": ("s", "lower", ["render.artifacts"]),
}
for _k in ("apply", "apply_jac", "invert"):
    LAYER_METRICS[f"charts.{_k}_calls"] = ("count", "lower", [f"charts.{_k}"])
    LAYER_METRICS[f"charts.{_k}_s"] = ("s", "lower", [f"charts.{_k}"])
    LAYER_METRICS[f"charts.{_k}_us"] = ("us", "lower", [f"charts.{_k}"])
for _l in LEVELS:
    _p = f"perturb.L{_l}."
    LAYER_METRICS.update({
        _p + "level_s": ("s", "lower", ["perturb.level"]),
        _p + "clearance_s": ("s", "lower", ["perturb.level", "perturb.clearance"]),
        _p + "containment_calls": ("count", "lower", ["perturb.level", "perturb.containment"]),
        _p + "clearance_pass_ratio": ("ratio", "higher",
                                      ["perturb.level", "perturb.clearance", "perturb.containment"]),
        _p + "sampling_s": ("s", "lower", ["perturb.level", "perturb.sampling"]),
        _p + "candidates": ("count", "lower", ["perturb.level", "perturb.candidate"]),
        _p + "accept_ratio": ("ratio", "higher", ["perturb.level", "perturb.candidate"]),
        _p + "guard_s": ("s", "lower", ["perturb.level", "perturb.guard"]),
        _p + "shrinks": ("count", "lower", ["perturb.level", "perturb.guard"]),
        _p + "links": ("count", "lower", ["perturb.level", "perturb.link"]),
    })


def _ratio(num, den):
    """num / den; 0.0 when nothing was attempted (the base is reported too)."""
    return float(num) / den if den else 0.0


def op_metrics(spans, names, counts, missing):
    """Per-layer metrics of one operation.

    ``spans`` holds one operation's rows of :meth:`Tracer.arrays` plus two
    columns computed over the whole trace: ``level`` (the tag of the nearest
    enclosing perturb_level span, -1 outside any) and ``child_s`` (the summed
    duration of each span's direct children).  Returns (metrics, bases),
    where bases gives the denominator of every ratio.
    """
    name_of = {n: i for i, n in enumerate(names)}
    dur = spans["end"] - spans["start"]
    nid = spans["name"]

    def sel(span_name, level=None):
        i = name_of.get(span_name)
        mask = nid == i if i is not None else np.zeros(nid.size, bool)
        if level is not None:
            mask &= spans["level"] == level
        return mask

    def total(span_name, level=None):
        return float(dur[sel(span_name, level)].sum())

    def calls(span_name, level=None):
        return int(sel(span_name, level).sum())

    out = {}
    bases = {}
    out["simplicial.subdivision_s"] = total("simplicial.subdivision")
    for key in ("simplicial.locate", "charts.apply", "charts.apply_jac", "charts.invert"):
        n, s = calls(key), total(key)
        out[f"{key}_calls"] = n
        out[f"{key}_s"] = s
        out[f"{key}_us"] = _ratio(s * 1e6, n)
    out["charts.link_evals"] = counts.get("charts.link_evals", 0)
    bases["charts.link_moved_ratio"] = counts.get("charts.link_apply", 0)
    out["charts.link_moved_ratio"] = _ratio(counts.get("charts.link_moved", 0),
                                            bases["charts.link_moved_ratio"])
    out["bump.rho_l_calls"] = counts.get("bump.rho_l", 0)
    out["smoothmap.eval_calls"] = counts.get("smoothmap.eval", 0)
    out["smoothmap.jac_calls"] = counts.get("smoothmap.jac", 0)

    for lv in LEVELS:
        p = f"perturb.L{lv}."
        containment = calls("perturb.containment", lv)
        candidates = sel("perturb.candidate", lv)
        guard = sel("perturb.guard", lv)
        out[p + "level_s"] = total("perturb.level", lv)
        out[p + "clearance_s"] = total("perturb.clearance", lv)
        out[p + "containment_calls"] = containment
        bases[p + "clearance_pass_ratio"] = containment
        out[p + "clearance_pass_ratio"] = _ratio(calls("perturb.clearance", lv), containment)
        out[p + "sampling_s"] = total("perturb.sampling", lv)
        out[p + "candidates"] = int(candidates.sum())
        bases[p + "accept_ratio"] = int(candidates.sum())
        out[p + "accept_ratio"] = _ratio(int((spans["value"][candidates] == 1).sum()),
                                         int(candidates.sum()))
        out[p + "guard_s"] = float(dur[guard].sum())
        out[p + "shrinks"] = int((spans["value"][guard] == -1).sum())
        out[p + "links"] = calls("perturb.link", lv)

    gn = sel("verify.gn")
    n_gn = int(gn.sum())
    gn_s = float(dur[gn].sum())
    out["verify.final_s"] = total("verify.final")
    out["verify.find_calls"] = calls("verify.find")
    out["verify.find_s"] = total("verify.find")
    out["verify.seed_pairs"] = int(spans["value"][sel("verify.pair_seeds")].sum())
    out["verify.pair_seeds_s"] = total("verify.pair_seeds")
    out["verify.gn_solves"] = n_gn
    out["verify.gn_s"] = gn_s
    out["verify.gn_self_s"] = float((dur[gn] - spans["child_s"][gn]).sum())
    out["verify.gn_us"] = _ratio(gn_s * 1e6, n_gn)
    bases["verify.gn_converged_ratio"] = n_gn
    out["verify.gn_converged_ratio"] = _ratio(int((spans["value"][gn] == 1).sum()), n_gn)
    out["verify.records"] = int(spans["value"][sel("verify.final")].sum())
    out["render.artifacts_s"] = total("render.artifacts")

    for metric, (_, _, needs) in LAYER_METRICS.items():
        if any(n in missing for n in needs):
            out.pop(metric, None)
            bases.pop(metric, None)
    return out, bases


def per_op_metrics(tracer):
    """{op id: (metrics, bases)} for every traced operation."""
    a = tracer.arrays()
    n = a["start"].size
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child_s = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
    # attribute every span to the level of its nearest perturb_level ancestor;
    # parents always open before their children
    level_id = tracer._name_ids.get("perturb.level")
    parent = a["parent"].tolist()
    name = a["name"].tolist()
    tag = a["tag"].tolist()
    lv = [-1] * n
    for i in range(n):
        if name[i] == level_id:
            lv[i] = tag[i]
        elif parent[i] >= 0:
            lv[i] = lv[parent[i]]
    a["level"] = np.array(lv, dtype=np.int64)
    a["child_s"] = child_s
    out = {}
    for op in sorted(tracer.op_counts):
        mask = a["op"] == op
        spans = {k: v[mask] for k, v in a.items()}
        out[op] = op_metrics(spans, tracer.names, tracer.op_counts[op], tracer.missing)
    return out
