"""Spans around calls into each gnk layer, installed from the benchmark.

``Tracer.install()`` wraps the public functions listed in ``TARGETS``
wherever they are bound: the defining module, every other ``gnk`` module
that imported the name, and the class for methods such as
``CyclicWord.__init__``.  No file under ``src/`` changes.

Entry points of a layer (``kind == "span"``) are recorded one by one as
(name, start, end, parent, job, self time, info).  Hot primitives
(``kind == "leaf"``: letter reduction, exact predicates, polynomial
products) are called millions of times, so each call is still timed and
its time is charged to the enclosing span, but the calls are kept as
per-parent rollups (calls, time, self time, info) instead of one record
each.  Self time is a call's duration minus the time of the calls it made
into other wrapped functions.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

LAYERS = ("words", "gnk", "braids", "gamma", "geometry", "fliplab", "cancel",
          "cli")


def _image_letters(args, result):
    if isinstance(result, tuple):
        return sum(len(w) for w in result)
    return len(result)


def _created_label_terms(args, result):
    old = args[0].labels
    (edge,) = [e for e in result.labels if e not in old]
    label = result.labels[edge]
    return len(label.num.coeffs) + len(label.den.coeffs)


def _dehn_info(args, result):
    return (sum(abs(e) for _, e in args[1]), len(result.trace.steps))


def _gf2_shape(args, result):
    shape = getattr(args[0], "shape", (0, 0))
    return shape if len(shape) == 2 else (0, 0)


def _detect_info(args, result):
    tr, kind = args[0], args[1]
    return (tr.n, len(tr.moves), kind, len(result))


# (module, attribute path, kind, info function of (args, result))
TARGETS = [
    ("words", "reduce_letters", "leaf", None),
    ("words", "CyclicWord.__init__", "leaf", lambda args, result: len(args[1])),
    ("words", "parse_word", "leaf", None),
    ("words", "format_word", "leaf", None),
    ("gnk", "GnkPresentation.__init__", "span",
     lambda args, result: len(args[0].tetrahedron_relators)),
    ("gnk", "GnkGroup.word_from_subsets", "leaf", None),
    ("gnk", "mn_invariant", "span", None),
    ("gnk", "unknotting_lower_bound", "span", None),
    ("braids", "pb_to_gn3", "span", _image_letters),
    ("braids", "pb_to_gn4", "span", _image_letters),
    ("braids", "pb_to_gamma4", "span", _image_letters),
    ("braids", "pb_to_gamma4_graded", "span", _image_letters),
    ("braids", "iota", "span", None),
    ("braids", "pr", "span", None),
    ("braids", "phi_ijk", "span", None),
    ("braids", "brunnian_certificate", "span", None),
    ("gamma", "gamma_presentation", "span",
     lambda args, result: len(result[2])),
    ("gamma", "gale_relation_word", "leaf", None),
    ("gamma", "oriented_abelianization_gf2", "span", None),
    ("gamma", "gf2_rank", "span", _gf2_shape),
    ("gamma", "enumerate_standard_gale", "span", None),
    ("geometry", "compile_word", "span", None),
    ("geometry", "detect_events", "span", _detect_info),
    ("geometry", "PredicatePoly.interpolate", "leaf", None),
    ("geometry", "PredicatePoly.roots_in_unit_interval", "leaf",
     lambda args, result: len(result)),
    ("geometry", "PredicatePoly.bisect", "leaf", None),
    ("geometry", "PredicatePoly.shares_root", "leaf", None),
    ("geometry", "sign_at_root", "leaf", None),
    ("geometry", "orient2d", "leaf", None),
    ("geometry", "incircle", "leaf", None),
    ("geometry", "orient3d", "leaf", None),
    ("geometry", "point_in_circumcircle", "leaf", None),
    ("geometry", "delaunay", "span", None),
    ("fliplab", "LabeledTriangulation.ptolemy_flip", "span",
     _created_label_terms),
    ("fliplab", "Polynomial.__mul__", "leaf", None),
    ("fliplab", "pentagon_flip_cycle", "span", None),
    ("fliplab", "orbit_replay", "span", None),
    ("cancel", "dehn_reduce_syllables", "span", _dehn_info),
    ("cancel", "check_metric_condition", "span", None),
    ("cancel", "symmetrise", "span", None),
    ("cancel", "to_syllables", "leaf", None),
    ("cli", "main", "span", None),
]


class Tracer:
    """In-memory spans of one run; ``enabled`` switches recording."""

    def __init__(self):
        self.enabled = False
        self.job = -1
        self.pass_index = -1
        self.stack = []      # frames: [name, start, child seconds, span index]
        self.spans = []      # [name, start, end, parent, job, self_s, info, pass]
        self.rollups = {}    # (name, parent span, job, pass) -> [calls, total,
        #                      self, info]
        self.factors = {}    # (pass, job) -> the job's pace factor (run.py)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, kind, info):
        tracer = self
        leaf = kind == "leaf"
        materialise = name == "words.reduce_letters"

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if materialise:
                # count letters of a possibly one-shot iterable
                args = (args[0], tuple(args[1])) + args[2:]
            stack = tracer.stack
            parent = stack[-1][3] if stack else -1
            if leaf:
                frame = [name, perf_counter(), 0.0, parent]
            else:
                index = len(tracer.spans)
                tracer.spans.append(None)
                frame = [name, perf_counter(), 0.0, index]
            stack.append(frame)
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                tracer._close(frame, end, duration, leaf, parent,
                              (len(args[1]) if materialise else
                               info(args, result) if info and done else None))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _close(self, frame, end, duration, leaf, parent, value):
        name = frame[0]
        self_s = duration - frame[2]
        if leaf:
            key = (name, parent, self.job, self.pass_index)
            roll = self.rollups.get(key)
            if roll is None:
                roll = self.rollups[key] = [0, 0.0, 0.0, 0]
            roll[0] += 1
            roll[1] += duration
            roll[2] += self_s
            if value is not None:
                roll[3] += value
        else:
            self.spans[frame[3]] = [name, frame[1], end, parent, self.job,
                                    self_s, value, self.pass_index]

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "gnk" or name.startswith("gnk.")]
        for modname, path, kind, info in TARGETS:
            module = sys.modules["gnk." + modname]
            name = "%s.%s" % (modname, path.replace(".__init__", "")
                              .replace(".__mul__", ".mul"))
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr,
                            classmethod(self._wrap(name, raw.__func__, kind, info)))
                else:
                    setattr(cls, attr, self._wrap(name, raw, kind, info))
                continue
            fn = getattr(module, path)
            wrapper = self._wrap(name, fn, kind, info)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)

    # -- output ------------------------------------------------------------

    def dump(self, path, job_names):
        with open(path, "w") as fh:
            fh.write(json.dumps({"jobs": job_names, "pace_factors": [
                [p, j, f] for (p, j), f in sorted(self.factors.items())]})
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (name, parent, _, _), roll in sorted(
                    self.rollups.items(), key=lambda kv: (kv[0][1], kv[0][0])):
                fh.write(json.dumps({"rollup": name, "parent": parent,
                                     "calls": roll[0], "total_s": roll[1],
                                     "self_s": roll[2], "info": roll[3]}) + "\n")

    def metrics(self, passes, job_tags, curve_ns, curve_lengths, curve_flips):
        """Per-layer metrics per traced pass, derived from the spans.

        ``job_tags`` maps a job id to its Dehn length bucket (or None).
        Times are scaled by their job's pace factor, like the job times.
        """
        spans = self.spans
        done = []
        for s in spans:
            if s is not None:
                f = self.factors.get((s[7], s[4]), 1.0)
                done.append(s[:2] + [s[1] + (s[2] - s[1]) * f, s[3], s[4],
                                     s[5] * f] + s[6:])
        per = 1.0 / passes
        total = {}        # name -> inclusive seconds, calls, info sum
        self_by_layer = {layer: 0.0 for layer in LAYERS}

        def add(name, seconds, calls, info, self_s):
            entry = total.setdefault(name, [0.0, 0, 0])
            entry[0] += seconds
            entry[1] += calls
            if isinstance(info, (int, float)):
                entry[2] += info
            self_by_layer[name.split(".")[0]] += self_s

        for name, start, end, _, _, self_s, info, _ in done:
            add(name, end - start, 1, info, self_s)
        leaf_under = {}   # (leaf name, parent span name) -> calls
        for key, (calls, secs, self_s, info) in self.rollups.items():
            name, parent, job, pass_index = key
            f = self.factors.get((pass_index, job), 1.0)
            add(name, secs * f, calls, info, self_s * f)
            pname = spans[parent][0] if parent >= 0 and spans[parent] else None
            key = (name, pname)
            leaf_under[key] = leaf_under.get(key, 0) + calls

        def t(name):
            return total.get(name, [0.0, 0, 0])

        m = {}
        m["words.reduce_calls"] = t("words.reduce_letters")[1] * per
        m["words.reduce_letters"] = t("words.reduce_letters")[2] * per
        m["words.reduce_s"] = t("words.reduce_letters")[0] * per
        m["words.cyclic_calls"] = t("words.CyclicWord")[1] * per
        m["words.cyclic_letters"] = t("words.CyclicWord")[2] * per
        m["words.cyclic_s"] = t("words.CyclicWord")[0] * per
        m["gnk.presentation_s"] = t("gnk.GnkPresentation")[0] * per
        m["gnk.tetra_candidates"] = leaf_under.get(
            ("gnk.GnkGroup.word_from_subsets", "gnk.GnkPresentation"), 0) * per
        m["gnk.tetra_kept"] = t("gnk.GnkPresentation")[2] * per
        m["gnk.invariant_s"] = (t("gnk.mn_invariant")[0]
                                + t("gnk.unknotting_lower_bound")[0]) * per
        m["gamma.presentation_s"] = t("gamma.gamma_presentation")[0] * per
        m["gamma.polygon_candidates"] = leaf_under.get(
            ("gamma.gale_relation_word", "gamma.gamma_presentation"), 0) * per
        m["gamma.polygon_kept"] = t("gamma.gamma_presentation")[2] * per
        m["gamma.gf2_s"] = t("gamma.oriented_abelianization_gf2")[0] * per
        m["gamma.gf2_rank_s"] = t("gamma.gf2_rank")[0] * per
        shapes = [s[6] for s in done if s[0] == "gamma.gf2_rank" and s[6]]
        m["gamma.gf2_rows"] = max((r for r, _ in shapes), default=0)
        m["gamma.gf2_cols"] = max((c for _, c in shapes), default=0)
        m["gamma.gale_s"] = t("gamma.enumerate_standard_gale")[0] * per
        m["braids.image_s"] = sum(t("braids." + f)[0] for f in (
            "pb_to_gn3", "pb_to_gn4", "pb_to_gamma4", "pb_to_gamma4_graded")) * per
        m["braids.image_letters"] = sum(t("braids." + f)[2] for f in (
            "pb_to_gn3", "pb_to_gn4", "pb_to_gamma4", "pb_to_gamma4_graded")) * per
        m["braids.parity_s"] = (t("braids.iota")[0] + t("braids.pr")[0]) * per
        m["braids.phi_s"] = t("braids.phi_ijk")[0] * per

        detects = [s for s in done if s[0] == "geometry.detect_events" and s[6]]
        m["geometry.segments"] = sum(s[6][1] for s in detects) * per
        m["geometry.detect_s"] = sum(s[2] - s[1] for s in detects) * per
        m["geometry.predicates"] = t("geometry.PredicatePoly.interpolate")[1] * per
        m["geometry.exact_predicates"] = sum(t("geometry." + f)[1] for f in (
            "orient2d", "incircle", "orient3d", "point_in_circumcircle")) * per
        roots = t("geometry.PredicatePoly.roots_in_unit_interval")[2]
        m["geometry.roots"] = roots * per
        m["geometry.bisections"] = t("geometry.PredicatePoly.bisect")[1] * per
        m["geometry.shares_root_calls"] = \
            t("geometry.PredicatePoly.shares_root")[1] * per
        m["geometry.sign_at_root_calls"] = t("geometry.sign_at_root")[1] * per
        emitted = 0
        for kind in ("collinear3", "concyclic4", "delaunay_flip",
                     "coplanar_special"):
            count = sum(s[6][3] for s in detects if s[6][2] == kind)
            emitted += count
            m["geometry.events." + kind] = count * per
        m["geometry.event_yield"] = emitted / roots if roots else 0.0
        for n in curve_ns:
            sel = [s for s in detects if s[6][0] == n and s[6][2] == "delaunay_flip"]
            segs = sum(s[6][1] for s in sel)
            m["geometry.detect_s_per_segment.n%d" % n] = (
                sum(s[2] - s[1] for s in sel) / segs if segs else 0.0)

        flips = [s for s in done if s[0] == "fliplab.LabeledTriangulation.ptolemy_flip"]
        m["fliplab.flips"] = len(flips) * per
        m["fliplab.flip_s"] = sum(s[2] - s[1] for s in flips) * per
        m["fliplab.poly_mul_s"] = t("fliplab.Polynomial.mul")[0] * per
        flips = [s for s in flips if s[6] is not None]
        m["fliplab.label_terms_max"] = max((s[6] for s in flips), default=0)
        m["fliplab.label_terms_sum"] = sum(s[6] for s in flips) * per
        index_in_job = {}
        by_index = {}
        for s in flips:
            key = (s[4], s[7])
            i = index_in_job[key] = index_in_job.get(key, 0) + 1
            by_index[i] = max(by_index.get(i, 0), s[6])
        for i in range(1, curve_flips + 1):
            m["fliplab.label_terms.flip%d" % i] = by_index.get(i, 0)

        dehn = [s for s in done if s[0] == "cancel.dehn_reduce_syllables"]
        m["cancel.dehn_s"] = sum(s[2] - s[1] for s in dehn) * per
        m["cancel.dehn_letters_in"] = sum(s[6][0] for s in dehn if s[6]) * per
        m["cancel.dehn_steps"] = sum(s[6][1] for s in dehn if s[6]) * per
        m["cancel.check_s"] = t("cancel.check_metric_condition")[0] * per
        m["cancel.symmetrise_s"] = t("cancel.symmetrise")[0] * per
        for length in curve_lengths:
            sel = [s[2] - s[1] for s in dehn if job_tags.get(s[4]) == length]
            m["cancel.dehn_s.len%d" % length] = (
                statistics.median(sel) if sel else 0.0)

        for layer in LAYERS:
            m[layer + ".self_s"] = self_by_layer[layer] * per
        m["trace.spans"] = len(done) * per
        return m
