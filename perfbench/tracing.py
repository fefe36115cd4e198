"""Span tracing of the program from outside, by rebinding names.

Each public function of a layer is wrapped where it is *called*: the
wrapper replaces the module attribute its caller looks up, so the
program's own code is unchanged.  A span records name, start, end,
parent span, operation id and a few operand sizes; spans stay in memory
and are written out as JSON lines when the round ends.

Per-layer metrics are derived from the spans: self time (duration minus
the time covered by child spans), call counts and size maxima.
"""

from __future__ import annotations

import functools
import json
import time


def decimal_digits(n: int) -> int:
    """Number of decimal digits of |n|, without converting it to text."""
    n = abs(n)
    if n < 10:
        return 1
    d = int((n.bit_length() - 1) * 0.30102999566398120) + 1
    if n >= 10**d:
        d += 1
    elif n < 10 ** (d - 1):
        d -= 1
    return d


def _resultant_sizes(args, out):
    return {"degree": max(args[0].degree, args[1].degree), "digits": decimal_digits(out)}


def _matrix_order(args, out):
    return {"order": args[0].size}


def _cover_order(args, out):
    graph = getattr(args[0], "graph", args[0])
    return {"order": graph.num_vertices - 1}


def _factor_sizes(args, out):
    return {"digits": decimal_digits(args[0]), "complete": out.complete}


# (module, attribute looked up by the caller, span name, size recorder)
WRAPPED = (
    ("analysis", "resultant", "intpoly.resultant", _resultant_sizes),
    ("analysis", "level_norm", "analysis.level_norm", None),
    ("analysis", "determinant", "genpoly.determinant", _matrix_order),
    ("analysis", "spanning_tree_count", "graphs.spanning_tree_count", _cover_order),
    ("analysis", "derived_graph", "graphs.derived_graph", None),
    ("analysis", "n0_search", "analysis.n0_search", None),
    ("analysis", "poly_mod_gcd", "intpoly.poly_mod_gcd", None),
    ("graphs", "det_int", "intdet.det_int", None),
    ("intdet", "bareiss_det", "intdet.bareiss_det", None),
    ("intdet", "multimodular_det", "intdet.multimodular_det", None),
    ("intdet", "det_mod", "intdet.det_mod", None),
    ("cli", "factor_kappa", "factorint.factor_kappa", _factor_sizes),
    ("cli", "analyze_prime", "analysis.analyze_prime", None),
    ("cli", "classify_omega", "omega.classify_omega", None),
    ("cli", "main", "cli.main", None),
    ("cli", "parse_tower_spec", "towerspec.parse_tower_spec", None),
    ("cli", "build_assignment", "towerspec.build_assignment", None),
    ("omega", "factor_kappa", "factorint.factor_kappa", _factor_sizes),
    ("factorint", "perfect_power", "factorint.perfect_power", None),
    ("towerspec", "parse_tower_spec", "towerspec.parse_tower_spec", None),
    ("towerspec", "build_assignment", "towerspec.build_assignment", None),
)

# The benchmark's own span around each operation; its self time is the
# program's glue that no wrapped function covers.
OP_SPAN = "bench.op"


class Recorder:
    def __init__(self):
        # span: [name, start, end, parent index, op id, sizes]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = None

    def wrap(self, name, fn, sizes=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[5] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if sizes is not None:
                span[5] = sizes(args, out)
            return out

        return traced

    def install(self, package) -> None:
        """Rebind every name in WRAPPED; a missing name raises, so a
        renamed function cannot silently read as zero."""
        for module, attr, name, sizes in WRAPPED:
            mod = getattr(package, module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), sizes))

    def op(self, op_id, fn, *args):
        """Run one benchmark operation under its own root span."""
        self.op_id = op_id
        return self.wrap(OP_SPAN, fn)(*args)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent, op, sizes) in enumerate(self.spans):
                rec = {"id": k, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if sizes:
                    rec["sizes"] = sizes
                fh.write(json.dumps(rec) + "\n")


def summarize(spans, in_ops: bool = True) -> dict:
    """Per span name: calls, self seconds, size maxima and flag counts,
    over the spans inside benchmark operations (or, with in_ops=False,
    over those outside them, i.e. input preparation)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for k, (name, start, end, _, op, sizes) in enumerate(spans):
        if (op is not None) != in_ops:
            continue
        s = out.setdefault(name, {"calls": 0, "self_s": 0.0, "max": {}, "flags": {}})
        s["calls"] += 1
        s["self_s"] += (end - start) - child_time[k]
        for key, value in (sizes or {}).items():
            if isinstance(value, bool):
                s["flags"][key] = s["flags"].get(key, 0) + value
            elif isinstance(value, int):
                s["max"][key] = max(s["max"].get(key, 0), value)
            else:
                s["flags"][value] = s["flags"].get(value, 0) + 1
    return out
