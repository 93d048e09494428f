"""The benchmark's tracer patches package names by ``getattr``; it must
still find every one of them."""

from __future__ import annotations

from pathlib import Path

import reescert
import reescert.cli  # noqa: F401  (the tracer patches the cli module too)
from reescert.family import build_family

from conftest import family_dict

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
    finally:
        tracer.uninstall()
    assert cert["conclusions"]
    assert tracer.counts["monomials.sort_pair"] > 0
    assert reescert.certify.build_certificate is before
