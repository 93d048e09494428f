"""The benchmark's tracer patches package names by ``getattr``; it must
still find every one of them."""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import reescert
import reescert.cli  # noqa: F401  (the tracer patches the cli module too)
from reescert.family import build_family

from conftest import family_dict, open_pairs, open_tower4

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DEMOS = PERFBENCH.parent / "demos" / "families"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    before = reescert.certify.build_certificate
    tracer = Tracer()
    tracer.install(reescert)
    try:
        cert = reescert.certify.build_certificate(
            build_family(family_dict("tower4")))
        # a closed family rewrites no monomial pair, and witness images
        # are dealt on factorizations; the checked public rewrite of a
        # same-level open pair still goes through sort_pair
        fam = build_family(open_tower4())
        pair = next(p for p in open_pairs(fam) if p[0].level == p[1].level)
        reescert.family.rewrite_images(fam, *pair)
    finally:
        tracer.uninstall()
    assert cert["conclusions"]
    assert tracer.counts["monomials.sort_pair"] > 0
    assert reescert.certify.build_certificate is before


def test_one_closure_scan_per_certificate(monkeypatch):
    """A certificate builds no basis.  tower4 has the structural
    conjunction, so its certificate is read off the paper's theorem and
    scans no pair; fiber_pair is closed without it and is scanned
    once, its rule count and shape read off the pair table.  The
    ``basis`` subcommand still builds the basis, once."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(reescert)
    names = {}
    try:
        for name in ("tower4", "fiber_pair"):
            cert = reescert.certify.build_certificate(
                build_family(family_dict(name)))
            assert cert["conclusions"], name
            names[name] = [s.name for s in tracer.spans]
            del tracer.spans[:]
        with contextlib.redirect_stdout(io.StringIO()):
            code = reescert.cli.main(
                ["basis", str(DEMOS / "tower4.json")])
    finally:
        tracer.uninstall()
    assert names["tower4"].count("family.closure") == 0
    assert names["fiber_pair"].count("family.closure") == 1
    for spans in names.values():
        assert spans.count("family.characterize") == 1
        assert spans.count("presentation.build_basis") == 0
    assert code == 0
    basis = [s for s in tracer.spans if s.name == "presentation.build_basis"]
    assert len(basis) == 1 and basis[0].info == {"rules": 104}


def test_tracer_counts_inversion_minimal_on_a_loose_level(monkeypatch):
    """The measure reads e from pair parts unless a level's strict
    preferences cycle; then it calls ``inversion_minimal`` by its module
    name, where the tracer counts it.  A local alias would read 0 on the
    cyclic level here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from families import LADDER
    from tracer import Tracer

    small = build_family(family_dict("maxpowers3"))
    # rows (2, 2, 2) and (1, 3, 3): the sorted order pays 2 in the
    # shared columns, the other order 1; two rows cannot cycle
    loose = reescert.parse_tpolynomial("T[3,4]*T[3,8]", small).support()[0]
    # max(5,3)'s top level: rows (3, 3, 3), (1, 4, 4) and (2, 2, 5),
    # each preferring to precede the next, so every order pays more than
    # the pairwise bound of 5
    big = build_family(LADDER["max5_3"])
    cyclic = reescert.parse_tpolynomial(
        "T[3,10]*T[3,17]*T[3,23]", big).support()[0]
    assert [big.factors(ref) for ref in cyclic] == [
        (3, 3, 3), (1, 4, 4), (2, 2, 5)]
    calls = []
    tracer = Tracer()
    tracer.install(reescert)
    try:
        for mono, fam in ((loose, small), (cyclic, big)):
            measure = reescert.measure.reduction_level(mono, fam)
            calls.append((measure, tracer.counts["measure.inversion_minimal"]))
    finally:
        tracer.uninstall()
    assert calls == [((0, 2), 0), ((0, 6), 1)]
