"""Tracing from outside the program: wrappers on its public names.

Each wrapped name is patched in the module whose code looks it up, so
calls made inside the package are seen as well as the benchmark's own.
Coarse calls get a span (name, start, end, parent, item); hot calls get
a count, and some an accumulated time, but no span.  Spans stay in
memory and are written out when the run ends.  Per-layer metrics are
computed from the spans and counts afterwards.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

RUNGS = ("tower4", "maxpowers3", "fiber_pair", "max4_3", "control")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "item", "info")

    def __init__(self, id, name, start, parent, item):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.info = None

    def as_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "item": self.item,
                "info": self.info}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts = Counter()
        self.seconds = Counter()
        self.row_keys: set = set()
        self.item = None
        self._patched = []

    # ------------------------------------------------------- wrappers

    def _patch(self, module, attr, wrapper):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def span(self, name, fn, info=None):
        """Wrap fn in a span; info(args, result) annotates it."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            s = Span(len(spans), name, perf_counter(),
                     stack[-1] if stack else None, self.item)
            spans.append(s)
            stack.append(s.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end = perf_counter()
                stack.pop()
            if info is not None:
                s.info = info(args, result)
            return result
        return wrapper

    def count(self, name, fn, timed=False, seen=None):
        """Wrap fn in a call counter; seen(args) notes each call."""
        counts, seconds = self.counts, self.seconds

        if timed:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                t = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[name] += perf_counter() - t
        elif seen is not None:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                seen(args)
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def install(self, pkg):
        """Patch every traced name where its callers look it up."""
        fam, pres, orc, meas, cert, cli = (
            pkg.family, pkg.presentation, pkg.oracle, pkg.measure,
            pkg.certify, pkg.cli)
        for name in ("sort_pair", "ord_pair"):
            self._patch(fam, name, self.count(
                f"monomials.{name}", getattr(fam, name), timed=True))
        self._patch(fam, "borel_closure", self.span(
            "monomials.borel_closure", fam.borel_closure))
        self._patch(fam, "build_family", self.span(
            "family.build_family", fam.build_family))
        closure = self.span(
            "family.closure", fam.is_closed_under_comparability,
            info=lambda a, r: {"pairs": comb(len(a[0].refs()), 2)})
        for mod in (cert, pres):
            self._patch(mod, "is_closed_under_comparability", closure)
        for name in ("comparable", "rewrite_images"):
            self._patch(pres, name, self.count(
                f"family.{name}", getattr(pres, name)))
        self._patch(cert, "characterize", self.span(
            "family.characterize", cert.characterize))

        basis = self.span("presentation.build_basis", pres.build_basis,
                          info=lambda a, r: {"rules": len(r)})
        for mod in (pres, cert, cli):
            self._patch(mod, "build_basis", basis)
        self._patch(pres, "confluence_check", self.span(
            "presentation.confluence", pres.confluence_check,
            info=lambda a, r: spair_counts(a[0])))
        for name in ("s_polynomial", "reduce_step"):
            self._patch(pres, name, self.count(
                f"presentation.{name}", getattr(pres, name)))
        self._patch(orc, "normal_form", self.span(
            "presentation.normal_form", orc.normal_form))

        self._patch(orc, "enumerate_fibers", self.span(
            "oracle.enumerate_fibers", orc.enumerate_fibers,
            info=lambda a, r: {
                "monomials": sum(len(v) for v in r.values()),
                "fibers": len(r),
                "largest": max((len(v) for v in r.values()), default=0)}))
        for name, label in (("verify_unique_normal_forms", "unique_nf"),
                            ("verify_kernel_generation", "kernel"),
                            ("verify_measure_decrease", "measure")):
            self._patch(orc, name, self.span(
                f"oracle.{label}", getattr(orc, name)))

        self._patch(meas, "traced_normal_form", self.span(
            "measure.trace", meas.traced_normal_form,
            info=lambda a, r: {"steps": len(r.steps)}))
        self._patch(meas, "inversion_minimal", self.count(
            "measure.inversion_minimal", meas.inversion_minimal,
            seen=lambda a: self.row_keys.add(
                tuple(sorted(tuple(r) for r in a[0])))))

        certificate = self.span("certify.build_certificate",
                                cert.build_certificate)
        text = self.span("certify.text", cert.certificate_text)
        for mod in (cert, cli):
            self._patch(mod, "build_certificate", certificate)
            self._patch(mod, "certificate_text", text)

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_json()) + "\n")

    # -------------------------------------------------------- metrics

    def metrics(self) -> dict:
        """Per-layer figures from the spans and counts."""
        total = defaultdict(float)
        calls = Counter()
        covered = defaultdict(float)  # child time inside each span
        info = defaultdict(list)
        for s in self.spans:
            dur = s.end - s.start
            total[s.name] += dur
            calls[s.name] += 1
            if s.parent is not None:
                covered[s.parent] += dur
            if s.info is not None:
                info[s.name].append(s)
        self_s = defaultdict(float)
        for s in self.spans:
            self_s[s.name] += s.end - s.start - covered[s.id]

        kernel_ids = {s.id for s in self.spans if s.name == "oracle.kernel"}
        certificates = {s.id for s in self.spans
                        if s.name == "certify.build_certificate"}
        scans = sum(1 for s in self.spans if s.name == "family.closure"
                    and self._under(s, certificates))
        fibers = info["oracle.enumerate_fibers"]
        spairs = [s.info for s in info["presentation.confluence"]]
        spair_total = sum(p["total"] for p in spairs)
        spair_overlap = sum(p["overlap"] for p in spairs)
        nf_calls = calls["presentation.normal_form"]
        inv_calls = self.counts["measure.inversion_minimal"]
        rung_s = Counter()
        for s in self.spans:
            if s.name == "presentation.confluence":
                rung_s[s.item] += s.end - s.start

        m = {
            "monomials.sort_pair.calls": (self.counts["monomials.sort_pair"], "count"),
            "monomials.ord_pair.calls": (self.counts["monomials.ord_pair"], "count"),
            "monomials.rewrite_s": (self.seconds["monomials.sort_pair"]
                                    + self.seconds["monomials.ord_pair"], "s"),
            "monomials.borel_closure.calls": (calls["monomials.borel_closure"], "count"),
            "monomials.borel_closure.s": (total["monomials.borel_closure"], "s"),
            "family.build_family.s": (total["family.build_family"], "s"),
            "family.closure.s": (total["family.closure"], "s"),
            "family.closure.pairs": (sum(s.info["pairs"] for s in info["family.closure"]), "count"),
            "family.closure.scans_per_family": (
                scans / len(certificates) if certificates else 0.0, "ratio"),
            "family.comparable.calls": (self.counts["family.comparable"], "count"),
            "family.rewrite_images.calls": (self.counts["family.rewrite_images"], "count"),
            "family.characterize.s": (total["family.characterize"], "s"),
            "presentation.build_basis.s": (total["presentation.build_basis"], "s"),
            "presentation.rules": (sum(s.info["rules"] for s in info["presentation.build_basis"]), "count"),
        }
        for rung in RUNGS:
            m[f"presentation.confluence_s.{rung}"] = (rung_s[rung], "s")
        m.update({
            "presentation.spairs.total": (spair_total, "count"),
            "presentation.spairs.overlap": (spair_overlap, "count"),
            "presentation.spairs.overlap_frac": (
                spair_overlap / spair_total if spair_total else 0.0, "ratio"),
            "presentation.s_polynomial.calls": (self.counts["presentation.s_polynomial"], "count"),
            "presentation.reduce_step.calls": (self.counts["presentation.reduce_step"], "count"),
            "presentation.normal_form.calls": (nf_calls, "count"),
            "presentation.normal_form.us_per_call": (
                1e6 * total["presentation.normal_form"] / nf_calls if nf_calls else 0.0, "us"),
            "oracle.enumerate_fibers.s": (total["oracle.enumerate_fibers"], "s"),
            "oracle.monomials": (sum(s.info["monomials"] for s in fibers), "count"),
            "oracle.fibers": (sum(s.info["fibers"] for s in fibers), "count"),
            "oracle.largest_fiber": (max((s.info["largest"] for s in fibers), default=0), "count"),
            "oracle.unique_nf.self_s": (self_s["oracle.unique_nf"], "s"),
            "oracle.kernel.self_s": (self_s["oracle.kernel"], "s"),
            "oracle.kernel.differences": (sum(
                s.info["monomials"] - s.info["fibers"]
                for s in fibers if s.parent in kernel_ids), "count"),
            "measure.trace.s": (total["measure.trace"], "s"),
            "measure.trace.steps": (sum(s.info["steps"] for s in info["measure.trace"]), "count"),
            "measure.inversion_minimal.calls": (inv_calls, "count"),
            "measure.inversion_minimal.distinct_frac": (
                len(self.row_keys) / inv_calls if inv_calls else 0.0, "ratio"),
            "certify.build_certificate.self_s": (self_s["certify.build_certificate"], "s"),
            "certify.text.s": (total["certify.text"], "s"),
        })
        return m


    def _under(self, span: Span, ancestors: set) -> bool:
        while span.parent is not None:
            if span.parent in ancestors:
                return True
            span = self.spans[span.parent]
        return False


def spair_counts(basis) -> dict:
    """All S-pairs, and those whose leads share a ref.

    Two distinct squarefree quadratic leads share at most one ref, so
    the overlapping pairs are the sum over refs r of C(d_r, 2), d_r the
    number of leads containing r.
    """
    per_ref = Counter(r for g in basis for r in set(g.lead.refs))
    b = len(basis)
    return {"total": b * (b - 1) // 2,
            "overlap": sum(comb(d, 2) for d in per_ref.values())}
