"""Informational reports that CI prints beside the tests.

Run a section of ``SECTIONS`` as ``PYTHONPATH=src python tests/report.py
SECTION [PART]``.  Each imports the package itself, so that the coverage
tracer, set first, sees the package's import."""

import ast
import contextlib
import cProfile
import gc
import importlib.util
import inspect
import io
import json
import pstats
import runpy
import subprocess
import sys
import tempfile
import time
import tracemalloc
from math import comb
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path += [str(HERE / "golden"), str(ROOT / "perfbench")]


def code_lines(text):
    """Lines of a source that are not blank, comment-only or part of a
    module, class or function docstring."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(1 for n, line in enumerate(text.splitlines(), start=1)
               if line.strip() and not line.lstrip().startswith("#")
               and n not in docs)


def sizes():
    """Public names, optional parameters of public functions, slots,
    each module's upper-case int constants, and each module's code
    lines (``code_lines``)."""
    import reescert
    from reescert.family import Level, LeveledFamily
    print(len(reescert.__all__), "public names")
    functions = [f for f in (getattr(reescert, n) for n in reescert.__all__)
                 if inspect.isfunction(f)]
    print(sum(p.default is not p.empty for f in functions
              for p in inspect.signature(f).parameters.values()),
          "optional parameters of public functions")
    for cls in (Level, LeveledFamily):
        print(len(cls.__slots__), "slots of", cls.__name__)
    total = 0
    code = {}
    for path in sorted((ROOT / "src" / "reescert").glob("*.py")):
        module = importlib.import_module(
            "reescert" if path.stem == "__init__" else f"reescert.{path.stem}")
        text = path.read_text()
        code[path.stem] = code_lines(text), len(text.splitlines())
        names = [t.id for node in ast.parse(text).body
                 if isinstance(node, ast.Assign) for t in node.targets
                 if isinstance(t, ast.Name) and t.id.isupper()
                 and type(getattr(module, t.id)) is int]
        total += len(names)
        print(f"{path.stem}:", ", ".join(
            f"{n} = {getattr(module, n)}" for n in names) or "-")
    print(total, "upper-case int constants")
    for stem, (count, lines) in code.items():
        print(f"{stem}: {count} code lines of {lines}")
    print(sum(count for count, _ in code.values()), "code lines of",
          sum(lines for _, lines in code.values()), "in src/reescert")


def profile(part):
    """cProfile of certify on a certify-mix batch and of the ladder's bases
    (``certify``), or of the oracle suites and of confluence (``oracle``),
    each oracle part with the garbage collections that ran while it was
    profiled, per generation."""
    from families import LADDER, batch
    from run import (MEASURE_DEGREE, MEASURE_RUNGS, MEASURE_SAMPLES,
                     ORACLE_RUNGS)
    from reescert import (build_basis, build_certificate, build_family,
                          confluence_check, verify_kernel_generation,
                          verify_measure_decrease, verify_unique_normal_forms)

    def ladder():
        fams = {r: build_family(desc) for r, desc in LADDER.items()}
        return fams, {r: build_basis(fam) for r, fam in fams.items()}

    def profiled(sort, calls):
        prof = cProfile.Profile()
        prof.enable()
        for fn, *args in calls:
            fn(*args)
        prof.disable()
        return pstats.Stats(prof).sort_stats(sort).print_stats(15)

    if part == "certify":
        profiled("cumulative", [(lambda d: build_certificate(
            build_family(d)), desc) for desc, _ in batch(1, 0)])
        return profiled("cumulative", [(ladder,)])
    assert part == "oracle", f"profile takes certify or oracle, not {part}"
    from reescert import oracle
    from reescert.reduction import _RuleIndex
    fams, bases = ladder()
    def held(fam, basis, d, refs):
        index = _RuleIndex(basis, refs)
        return index, oracle._fiber_members(fam, d, index.positions(refs))

    # the fiber pass holds its rule index, its enumeration and one
    # fiber's walks at a time, so its peak should stay near the first
    # two held together; each pass runs once unmeasured first, so that
    # what a family builds on first use is not counted.  Peaks taken
    # one by one need not add up: a call's tuples may come from the
    # free lists the call before filled, which tracemalloc counts there
    for r, d in ORACLE_RUNGS:
        refs = fams[r].refs()
        code = _RuleIndex(bases[r], refs).positions(refs)
        oracle._check_fibers(fams[r], bases[r], d)
        peaks = []
        for fn, *args in ((oracle._check_fibers, fams[r], bases[r], d),
                          (oracle._fiber_members, fams[r], d, code),
                          (_RuleIndex, bases[r], refs),
                          (held, fams[r], bases[r], d, refs)):
            tracemalloc.start()
            fn(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
        print(f"{r} at degree {d}: tracemalloc peak of the fiber pass"
              f" {peaks[0]:.2f} MiB, of its enumeration {peaks[1]:.2f} MiB,"
              f" of its _RuleIndex build {peaks[2]:.2f} MiB, of the two"
              f" held together {peaks[3]:.2f} MiB")
    # each rung rebuilt for the kernel suite, as the benchmark does:
    # the log should show one _check_fibers per rung, not two
    rebuilt = {r: (fam, build_basis(fam))
               for r, fam in ((r, build_family(d)) for r, d in LADDER.items())}
    for label, calls in (
            ("fiber pass, both suites", [
                call for r, d in ORACLE_RUNGS for call in (
                    (verify_unique_normal_forms, fams[r], bases[r], d),
                    (verify_kernel_generation, *rebuilt[r], d))]),
            # max(5,3) is the one ladder rung whose levels cycle: at seed
            # 16 its walks meet three cyclic level slices, so the log
            # shows the inversion DP the benchmark never times
            ("measure suite", [
                (verify_measure_decrease, fams[r], bases[r], MEASURE_SAMPLES,
                 MEASURE_DEGREE, *seed)
                for r, *seed in [*zip(MEASURE_RUNGS), ("max5_3", 16)]]),
            ("confluence on max(4,3)", [(confluence_check, bases["max4_3"])])):
        print("==", label)
        before = gc.get_stats()
        stats = profiled("tottime", calls)
        # the passes run with the collector paused, so each collection
        # here starts between them: after a pass, at the first allocation
        # past the count the pause carried
        print("collections per generation while profiled:", [
            now["collections"] - then["collections"]
            for then, now in zip(before, gc.get_stats())])
        if label == "measure suite":
            # the path of cyclic levels, too rare for the top 15
            stats.print_stats("_cycle_excess|inversion_minimal")


# 1,399 levels {x1}, then {x2}: a scan of 1,401 open blocks among
# 982,101 (tests/test_census.py)
SCAN1400 = {"mode": "rees", "variables": 2, "levels": [
    {"degree": 1, "generators": ["x1"]}] * 1399 + [
    {"degree": 1, "generators": ["x2"]}]}


# the past-cap gate's 1,400 levels B(x2000) of degree 1 in 2,000
# variables, refused at COUNT_STEP_CAP (tests/gates.py)
LEVELS1400 = {"mode": "rees", "variables": 2000, "levels": [
    {"degree": 1, "borel": "x2000"}] * 1400}


def settled():
    """What the paper's theorem certifies, the blocks it settles and the
    blocks it leaves to the scan."""
    from families import LADDER, batch
    from run import CERTIFY_RUNGS
    from reescert import (build_certificate, build_family, certify,
                          characterize, family, monomials)
    from reescert.certify import _routes, _yn
    from reescert.family import PAIR_CAP
    from test_census import two_level_conjunction
    from reescert.errors import ResourceCapError
    built = []
    closure = family.borel_closure

    def counted(*args):
        members = closure(*args)
        built.append(len(members))
        return members

    mix = [desc for b in range(30) for desc, _ in batch(1, b)]
    with mock.patch.object(family, "borel_closure", counted):
        for label, descs in (
                ("certify-mix batch(1, 0..29)", mix),
                ("ladder CERTIFY_RUNGS", [LADDER[r] for r in CERTIFY_RUNGS])):
            built.clear()
            route = [fam for fam in map(build_family, descs)
                     if characterize(fam).conjunction]
            for fam in route:
                build_certificate(fam)
            print(f"{label}: {len(route)} of {len(descs)} families have the"
                  f" conjunction, building {sum(built)} Borel members")
        # blocks of levels (i, j), i <= j, the theorem leaves open; what
        # the other certificates build (no Borel member: a scan and a hull
        # read counted levels as factorizations), the witnesses they hold
        # and the open blocks they classify from their levels' hulls
        built.clear()
        scanning = witnesses = images = open_pairs = all_pairs = 0
        held = scanned_blocks = hull_blocks = hull_pairs = unscanned = 0
        kinds = {"all": 0, "some": 0, "none": 0}
        classified = []
        classify = family._classify

        def tallied_classify(*args):
            classified.append(args)
            return classify(*args)

        def pairs(size, blocks):
            return sum(comb(size[i], 2) if i == j else size[i] * size[j]
                       for i, j in blocks)

        for desc in mix:
            fam = build_family(desc)
            ch = characterize(fam)
            scanned, routed = _routes(fam, ch)
            opened = scanned.union(routed)
            size = {lv.index: len(lv) for lv in fam.levels}
            blocks = [(i, j) for i in size for j in size if i <= j]
            kinds["none" if len(opened) == len(blocks)
                  else "some" if opened else "all"] += 1
            open_pairs += pairs(size, opened)
            all_pairs += comb(len(fam), 2)
            if not ch.conjunction:
                hull_blocks += len(routed)
                hull_pairs += pairs(size, routed)
                classified.clear()
                with mock.patch.object(family, "_classify", tallied_classify):
                    build_certificate(fam)
                unscanned += not classified
                scanning += 1
                held += len(opened)
                scanned_blocks += len(blocks)
                report = family.is_closed_under_comparability(
                    fam, blocks=opened)
                witnesses += len(report.witnesses)
                images += len({id(img) for w in report.witnesses
                               for img in w.images})
    print(f"certify-mix batch(1, 0..29): {scanning} certificates without"
          f" the conjunction build {sum(built)} Borel members; their"
          f" {witnesses} witnesses hold {images} distinct images")
    print(f"certify-mix batch(1, 0..29): the {scanning} certificates"
          f" without the conjunction hold {held} open blocks of their"
          f" {scanned_blocks} blocks")
    print("certify-mix batch(1, 0..29): families with all, some or no"
          f" blocks of levels settled: {kinds}")
    print(f"certify-mix batch(1, 0..29): {open_pairs} pairs in open"
          f" blocks of {all_pairs} pairs, sum of C(v, 2)")
    print(f"certify-mix batch(1, 0..29): {hull_blocks} of the {held} open"
          f" blocks take the hull route, and their {hull_pairs} pairs are"
          f" not classified; {unscanned} of the {scanning} certificates"
          " classify no pair")
    # Borel counts made by parsing, by the rule counts and by sizing the
    # hulls of listed levels (``certify`` both, a hull's capped at
    # PAIR_CAP), against one per "borel" level, one per settled or hull
    # block a rule count reads and one per hull sized;
    # and the sets of blocks the certificates hand the scan, each block
    # settled when its own two-level family (level 0 added in rees mode)
    # has the conjunction
    made, sized, counts, scans = [], [], [], []

    def tallied(fn, calls):
        def wrapper(*args, **kwargs):
            calls.append((args, kwargs))
            return fn(*args, **kwargs)
        return wrapper

    with contextlib.ExitStack() as stack:
        for module, calls in ((monomials, made), (certify, sized)):
            stack.enter_context(mock.patch.object(
                module, "_borel_count", tallied(module._borel_count, calls)))
        for name, calls in (("_settled_rule_count", counts),
                            ("is_closed_under_comparability", scans)):
            stack.enter_context(mock.patch.object(
                certify, name, tallied(getattr(certify, name), calls)))
        for label, descs in (
                ("certify-mix batch(1, 0..29)", mix),
                ("ladder CERTIFY_RUNGS", [LADDER[r] for r in CERTIFY_RUNGS])):
            for calls in (made, sized, counts, scans):
                calls.clear()
            levels = 0
            for desc in descs:
                levels += sum("borel" in lv for lv in desc["levels"])
                build_certificate(build_family(desc))
            with_settled = sum(
                any(two_level_conjunction(args[0], *b)
                    for b in kwargs["blocks"])
                for args, kwargs in scans)
            print(f"{label}: {len(scans)} of {len(descs)} certificates"
                  f" build a set of open blocks, {with_settled} of"
                  f" {len(descs)} a set holding a settled block")
            blocks = sum(comb(len(fam.levels) + 1, 2) - len(scanned)
                         for (fam, scanned, _), _ in counts)
            hulls = sum(args[1:] == (PAIR_CAP,) for args, _ in sized)
            print(f"{label}: certificates make"
                  f" {len(made) + len(sized)} Borel counts,"
                  f" against {blocks} settled and hull blocks counted,"
                  f" {hulls} hulls of listed levels sized and"
                  f' {levels} "borel" levels parsed')
    fam = build_family(SCAN1400)
    start = time.perf_counter()
    cert = build_certificate(fam)
    wall = time.perf_counter() - start
    fam = build_family(SCAN1400)
    tracemalloc.start()
    build_certificate(fam)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"scan1400 ({len(fam)} refs): certificate in {wall:.3f} s,"
          f" tracemalloc peak {peak / 2**20:.2f} MiB, closed:"
          f" {_yn(cert['closed_under_comparability'])},"
          f" {cert['pairs_checked']} pairs checked")
    # the past-cap gate's 1,400-level file in-process, apart from the
    # CLI's start-up: its parse, and its certificate's refusal at
    # COUNT_STEP_CAP; best of five of each
    parses, refusals = [], []
    for _ in range(5):
        start = time.perf_counter()
        fam = build_family(LEVELS1400)
        parses.append(time.perf_counter() - start)
        start = time.perf_counter()
        try:
            build_certificate(fam)
        except ResourceCapError as exc:
            refusals.append(time.perf_counter() - start)
            refused = exc
    print(f"levels1400 (1,400 levels B(x2000)): parsed in"
          f" {min(parses):.3f} s, certificate refused in"
          f" {min(refusals):.4f} s: {refused}")


def traffic():
    """What runs the package outside the tests: the golden CLI cases, bset,
    the demos, a pass of each workload, certify-mix seed 1 batches 0..29."""
    import make_golden
    import run as bench
    from families import batch
    from reescert import build_certificate, build_family, certificate_text
    with tempfile.TemporaryDirectory() as tmp:
        for _, argv in make_golden.cases(Path(tmp)):
            make_golden.run_cli(argv)
    make_golden.run_cli(["bset", "-n", "4", "x3*x4"])
    for demo in sorted((ROOT / "demos").glob("0*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")
    pkg = bench.load_program()
    for name in bench.WORKLOADS:
        work, tally = bench.Workload(name, 1, 1, pkg), bench.Tally()
        work.setup_once()
        if work.rungs:
            work.check_setup(tally)
        for spec in work.verdicts() if work.rungs else ():
            work.verdict_one(tally, spec, [])
        for item in work.certify_items:
            work.certify_one(tally, item, [])
        work.cli_one(tally, 0, [], in_process=True)
        print(f"{name}: {len(tally.failures)} of {tally.attempted}"
              " items failed")
    for desc in (desc for b in range(30) for desc, _ in batch(1, b)):
        certificate_text(build_certificate(build_family(desc)))


def missed(tree, lines):
    """Statements under tree, but docstrings and global statements, no line
    of which ran, counting their decorators and the statements in them."""
    out = set()
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            # the body of a lambda or an if-expression is an expression
            for k, stmt in enumerate(block if isinstance(block, list) else ()):
                start = min([stmt.lineno] + [d.lineno for d in getattr(
                    stmt, "decorator_list", ())])
                skip = isinstance(stmt, (ast.Global, ast.Nonlocal)) or (
                    field == "body" and k == 0 and isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str))
                ran = lines.intersection(range(start, stmt.end_lineno + 1))
                if not (skip or ran):
                    out.add(stmt.lineno)
    return out


class _Failures:
    """A pytest plugin that lists the ids of the tests, or collections,
    that fail."""

    def __init__(self):
        self.ids = []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.ids.append(report.nodeid)

    pytest_collectreport = pytest_runtest_logreport


def coverage(which=None, out=None):
    """Statements of the package tier-1 never executes, and those only
    tier-1 reaches; ``coverage tests|traffic OUT`` collects one run.
    The tier-1 run's failures are named after the report, which then
    exits with pytest's status."""
    # spelt as the package's co_filename: PYTHONPATH made absolute, no import
    pkg = importlib.util.find_spec("reescert").submodule_search_locations[0]
    if which:
        hits, root = {}, f"{pkg}/"

        def local(frame, event, arg):
            if event == "line":
                hits[frame.f_code.co_filename].add(frame.f_lineno)
            return local

        def hook(frame, event, arg):
            # line events only in the package's frames, resumed ones too
            if (name := frame.f_code.co_filename).startswith(root):
                hits.setdefault(name, set()).add(frame.f_lineno)
                return local

        import pytest
        failed, status = _Failures(), 0
        sys.settrace(hook)
        if which == "tests":
            status = pytest.main(
                ["-q", str(HERE), "-k", "not fresh_interpreter"],
                plugins=[failed])
        else:
            traffic()
        sys.settrace(None)
        return Path(out).write_text(json.dumps(
            {"hits": hits, "failed": failed.ids, "status": int(status)},
            default=sorted))
    hits = {}
    with tempfile.TemporaryDirectory() as tmp:
        for side in ("tests", "traffic"):
            dump = Path(tmp, side)
            subprocess.run([sys.executable, __file__, "coverage", side, dump],
                           check=True)
            run = json.loads(dump.read_text())
            hits[side] = run["hits"]
            if side == "tests":
                failed, status = run["failed"], run["status"]
    totals = [0, 0]
    for path in sorted(Path(pkg).glob("*.py")):
        text = path.read_text()
        tree, source = ast.parse(text), text.splitlines()
        never = missed(tree, set(hits["tests"].get(str(path), ())))
        only = missed(tree, set(hits["traffic"].get(str(path), ()))) - never
        for k, (label, found) in enumerate((("never executed", never), (
                "reached only by tier-1", only))):
            print(f"== {path.name}: {len(found)} statement(s) {label}")
            for n in sorted(found):
                print(f"{n:5d}  {source[n - 1].strip()}")
            totals[k] += len(found)
    print(totals[0], "statement(s) of src/reescert never executed by tier-1")
    print(totals[1], "statement(s) of src/reescert reached only by tier-1")
    if status:
        print(f"tier-1 under the tracer exited {status}; failed:",
              *failed or ["(none named)"], sep="\n  ")
        sys.exit(status)


SECTIONS = {"sizes": sizes, "profile": profile, "settled": settled,
            "coverage": coverage}

if __name__ == "__main__":
    SECTIONS[sys.argv[1]](*sys.argv[2:])
