"""Gating checks that tier-1 leaves out, one per CI step: run one as
``PYTHONPATH=src python tests/gates.py GATE``.  It prints its figures and
fails when one differs from its frozen value or a run passes its limit."""

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from families import max_powers  # noqa: E402


def census():
    """The conjunction equals closure on the (4,3,3) census, and certify
    agrees with a full scan there and on the listed shapes tier-1 skips."""
    from test_census import (LISTED_SHAPES, assert_routes_agree,
                             census as full_census, listed_census)
    for mode in ("rees", "fiber"):
        descs = full_census(mode, 4, 3, 3)
        closed = conjunction = 0
        for desc in descs:
            # the verdict is checked against a full scan inside
            cert = assert_routes_agree(desc, desc)
            is_closed = cert["closed_under_comparability"]
            assert cert["characterization"]["conjunction"] == is_closed, desc
            closed += is_closed
            conjunction += cert["characterization"]["conjunction"]
        print(f"{mode}: {len(descs)} families, {closed} closed,"
              f" {conjunction} with the conjunction; certify agrees"
              f" with a full scan on all {len(descs)}")
        assert (len(descs), closed, conjunction) == (7769, 383, 383), mode
    for n, degrees in LISTED_SHAPES[2:]:
        for mode in ("rees", "fiber"):
            descs = listed_census(mode, n, degrees)
            for desc in descs:
                assert_routes_agree(desc, desc)
            print(f"{mode}, n={n}, listed degrees {list(degrees)}:"
                  f" certify agrees with a full scan on {len(descs)} families")


def confluence():
    """Confluence's reports on max(4,4), on max(4,4) less its middle rule,
    which fails to join, and on max(5,4), with its wall."""
    from reescert import build_basis, build_family, confluence_check
    b44, b54 = (build_basis(build_family(max_powers(n, 4))) for n in (4, 5))
    k = len(b44) // 2
    # basis: (pairs_reduced, normal_forms, max_reduction_length, the
    # first five failures, their number)
    frozen = {
        "max(4,4)": (b44, (103047, 35735, 5, (), 0)),
        f"max(4,4) less rule {k}": (b44[:k] + b44[k + 1:], (
            102934, 35735, 5,
            ((15, 60), (18, 58), (18, 1079), (24, 52), (24, 1287)), 54)),
        "max(5,4)": (b54, (680890, 174012, 5, (), 0)),
    }
    for name, (basis, want) in frozen.items():
        t0 = time.perf_counter()
        report = confluence_check(basis)
        dt = time.perf_counter() - t0
        got = (report.pairs_reduced, report.normal_forms,
               report.max_reduction_length, report.failures[:5],
               len(report.failures))
        print(f"confluence on {name}: {len(basis)} rules, {dt:.3f} s,"
              " (pairs_reduced, normal_forms, max_reduction_length,"
              f" failures[:5], len(failures)) = {got}")
        assert got == want, (name, got, want)


def measure():
    """The measure suite's reports, 1,000 samples of degree 8, on the
    benchmark's three measure rungs at two seeds each and on max(5,3) at
    seed 16, whose walks meet three cyclic level slices; each suite's
    wall is the median of three runs."""
    from statistics import median

    from families import LADDER
    from reescert import build_basis, build_family, verify_measure_decrease
    # (rung, seed): (samples, max_degree, steps, failures)
    frozen = {
        ("tower4", 1): (1000, 8, 2348, ()),
        ("tower4", 2): (1000, 8, 2397, ()),
        ("max4_3", 1): (1000, 8, 4099, ()),
        ("max4_3", 2): (1000, 8, 3966, ()),
        ("max4_4", 1): (1000, 8, 5576, ()),
        ("max4_4", 2): (1000, 8, 5369, ()),
        ("max5_3", 16): (1000, 8, 4365, ()),
    }
    built = {}
    for (rung, seed), want in frozen.items():
        if rung not in built:
            fam = build_family(LADDER[rung])
            built[rung] = fam, build_basis(fam)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            report = verify_measure_decrease(*built[rung], 1000, 8, seed)
            times.append(time.perf_counter() - t0)
            got = (report.samples, report.max_degree, report.steps,
                   report.failures)
            assert got == want, (rung, seed, got, want)
        print(f"measure suite on {rung}, seed {seed}: {median(times):.3f} s,"
              f" (samples, max_degree, steps, failures) = {got}")


def past_cap():
    """The theorem certifies past ``PAIR_CAP`` while ``check`` refuses to
    scan (exit 3), ``certify`` refuses to count the settled blocks of
    240 levels past ``COUNT_STEP_CAP`` (exit 3), and ``bset`` expands
    100,000 members; 10 s a run."""
    def cli(*args, **kwargs):
        return subprocess.run([sys.executable, "-m", "reescert.cli", *args],
                              timeout=10, **kwargs).returncode

    with tempfile.TemporaryDirectory() as tmp:
        for n, k in ((12, 4), (20, 3), (60, 2)):
            path = Path(tmp, f"max{n}_{k}.json")
            path.write_text(json.dumps(max_powers(n, k)))
            cli("certify", path, "--format", "json",
                stdout=subprocess.DEVNULL, check=True)
        code = cli("check", Path(tmp, "max12_4.json"))
        assert code == 3, code
        path = Path(tmp, "levels240.json")
        path.write_text(json.dumps({
            "mode": "rees", "variables": 2000,
            "levels": [{"degree": 1, "borel": "x2000"}] * 240}))
        code = cli("certify", path, stderr=subprocess.DEVNULL)
        print(f"certify on 240 levels B(x2000): exit {code}")
        assert code == 3, code
        bset = Path(tmp, "bset.txt")
        with open(bset, "wb") as out:
            cli("bset", "-n", "2", "x2^99999", stdout=out, check=True)
        lines = bset.read_bytes().count(b"\n")
        print(f"bset -n 2 x2^99999: {lines} lines")
        assert lines == 100001, lines


GATES = {"census": census, "confluence": confluence, "measure": measure,
         "past-cap": past_cap}

if __name__ == "__main__":
    if not __debug__:  # the gates check with assert, which -O strips
        sys.exit("tests/gates.py checks nothing under -O; run it without")
    GATES[sys.argv[1]]()
