"""The benchmark's tracer patches package names by ``getattr``; it must
still find every one of them."""

from __future__ import annotations

from pathlib import Path

import reescert
import reescert.cli  # noqa: F401  (the tracer patches the cli module too)
from reescert.family import build_family

from conftest import family_dict, open_tower4

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    before = reescert.certify.build_certificate
    tracer = Tracer()
    tracer.install(reescert)
    try:
        cert = reescert.certify.build_certificate(
            build_family(family_dict("tower4")))
        # a closed family rewrites no monomial pair; the witness images
        # of a non-closed one still go through sort_pair and ord_pair
        reescert.certify.build_certificate(build_family(open_tower4()))
    finally:
        tracer.uninstall()
    assert cert["conclusions"]
    assert tracer.counts["monomials.sort_pair"] > 0
    assert reescert.certify.build_certificate is before


def test_one_closure_scan_per_certificate(monkeypatch):
    """A closed family's certificate scans closure once: ``build_basis``
    reads the table's open entries and does not scan again."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    fam = build_family(family_dict("tower4"))
    tracer = Tracer()
    tracer.install(reescert)
    try:
        cert = reescert.certify.build_certificate(fam)
    finally:
        tracer.uninstall()
    assert cert["conclusions"]
    names = [s.name for s in tracer.spans]
    assert names.count("family.closure") == 1
    assert names.count("presentation.build_basis") == 1
