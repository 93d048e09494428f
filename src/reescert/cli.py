"""Command line interface.

Subcommands: check, basis, certify, verify, normal-form, bset.
Exit codes: 0 success or positive verdict, 1 negative verdict,
2 input error, 3 resource cap (or a broken internal invariant).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .certify import (
    build_certificate,
    certificate_text,
    closure_json,
    closure_lines,
)
from .errors import (
    FamilyError,
    InternalInvariantError,
    MonomialParseError,
    NotClosedError,
    ResourceCapError,
)
from .family import (
    characterize,
    check_variable_cap,
    family_from_file,
    is_closed_under_comparability,
)
from .monomials import borel_closure, parse_monomial
from .presentation import basis_to_json, build_basis


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reescert",
        description="Certify Rees-algebra presentations of leveled"
                    " monomial families via sorted marked bases.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("family", help="path to a family JSON file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add_family_cmd("check", "closure under comparability and the"
                       " structural characterization")
    p.add_argument("--all-witnesses", action="store_true",
                   help="collect every witness pair, not just the first 32")

    add_family_cmd("basis", "emit the marked quadratic basis")
    add_family_cmd("certify", "emit the certificate with cited conclusions")

    p = add_family_cmd("verify", "run the brute-force verification suites")
    p.add_argument("--max-degree", type=int, default=3, metavar="D",
                   help="enumerate T-monomials up to this degree"
                        " (default 3)")
    p.add_argument("--drop-rule", type=int, default=None, metavar="K",
                   help=argparse.SUPPRESS)

    p = sub.add_parser("normal-form", help="reduce a T-polynomial")
    p.add_argument("family", help="path to a family JSON file")
    p.add_argument("expression", help="e.g. 'T[1,3]*T[1,4] - T[1,2]*T[1,5]'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--trace", action="store_true",
                   help="print every step with its (c, e) measure")

    p = sub.add_parser("bset", help="expand a Borel set")
    p.add_argument("monomial", help="generator, e.g. 'x2*x3'")
    p.add_argument("-n", "--variables", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _emit(data, as_json: bool, text_fn):
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(text_fn(data))


def cmd_check(args) -> int:
    fam = family_from_file(args.family)
    report = is_closed_under_comparability(
        fam, all_witnesses=args.all_witnesses)
    data = {
        "mode": fam.mode,
        "closed": report.closed,
        "witnesses_truncated": report.truncated,
        **closure_json(report, characterize(fam)),
    }

    def text(d):
        yn = lambda b: "yes" if b else "no"
        lines = closure_lines(d, d["closed"])
        if fam.mode == "rees":
            lines.append(
                f"conjunction agrees with closure: "
                f"{yn(d['characterization']['conjunction'] == d['closed'])}")
        for w in d["witnesses"]:
            a, b = w["pair"]
            lines.append(
                f"witness: T[{a[0]},{a[1]}]*T[{b[0]},{b[1]}] ->"
                f" ({w['images'][0]}, {w['images'][1]})"
                f" missing {w['missing']}")
        if d["witnesses_truncated"]:
            lines.append("witness list truncated; use --all-witnesses")
        return "\n".join(lines)

    _emit(data, args.format == "json", text)
    return 0 if report.closed else 1


def cmd_basis(args) -> int:
    fam = family_from_file(args.family)
    basis = build_basis(fam)
    data = basis_to_json(basis)

    def text(d):
        lines = [f"relations: {d['count']}"
                 f"  quadratic: {'yes' if d['quadratic'] else 'no'}"
                 f"  squarefree leads:"
                 f" {'yes' if d['squarefree_leads'] else 'no'}"]
        for g in basis:
            lines.append(f"{g.lead.text()} -> {g.trail.text()}")
        return "\n".join(lines)

    _emit(data, args.format == "json", text)
    return 0


def cmd_certify(args) -> int:
    fam = family_from_file(args.family)
    cert = build_certificate(fam)
    _emit(cert, args.format == "json", certificate_text)
    return 0 if cert["conclusions"] else 1


def cmd_verify(args) -> int:
    from .oracle import (verify_kernel_generation, verify_measure_decrease,
                         verify_unique_normal_forms)
    from .reduction import confluence_check

    fam = family_from_file(args.family)
    if args.max_degree < 1:
        raise FamilyError("--max-degree must be at least 1")
    basis = build_basis(fam)
    if args.drop_rule is not None:
        if not basis:
            raise FamilyError("--drop-rule: the basis has no rule to drop")
        if not 0 <= args.drop_rule < len(basis):
            raise FamilyError(
                f"--drop-rule index out of range 0..{len(basis) - 1}")
        basis = basis[:args.drop_rule] + basis[args.drop_rule + 1:]

    results = {}
    lines = []

    t0 = time.perf_counter()
    confl = confluence_check(basis)
    dt = time.perf_counter() - t0
    results["confluence"] = {
        "pairs": confl.pairs_total,
        "pairs_reduced": confl.pairs_reduced,
        "pairs_skipped": confl.pairs_skipped,
        "max_reduction_length": confl.max_reduction_length,
        "normal_forms": confl.normal_forms,
        "failures": len(confl.failures),
        "passed": confl.confluent,
        "seconds": round(dt, 3),
    }
    lines.append(
        f"confluence: {confl.pairs_total} s-pairs,"
        f" {len(confl.failures)} failure(s), {confl.pairs_reduced} reduced,"
        f" {confl.pairs_skipped} skipped (coprime leads), max reduction"
        f" length {confl.max_reduction_length} ({dt:.2f}s)")

    # both fiber suites are one pass, run by the first; the second
    # reads its reports
    t0 = time.perf_counter()
    unf = verify_unique_normal_forms(fam, basis, args.max_degree)
    dt = time.perf_counter() - t0
    results["normal_forms"] = {
        "monomials": unf.monomials,
        "fibers": unf.fibers,
        "largest_fiber": unf.largest_fiber,
        "reductions": unf.reductions,
        "failures": len(unf.failures),
        "passed": unf.passed,
        "seconds": round(dt, 3),
    }
    lines.append(
        f"normal forms: {unf.monomials} monomials in {unf.fibers} fibers"
        f" up to degree {args.max_degree}, {len(unf.failures)} failure(s)"
        f" ({dt:.2f}s)")
    for fail in unf.failures[:4]:
        lines.append(f"  {fail.reason}")

    t0 = time.perf_counter()
    ker = verify_kernel_generation(fam, basis, args.max_degree)
    dt = time.perf_counter() - t0
    results["kernel"] = {
        "differences": ker.differences,
        "failures": len(ker.failures),
        "passed": ker.passed,
        "seconds": round(dt, 3),
    }
    lines.append(
        f"kernel: {ker.differences} fiber differences,"
        f" {len(ker.failures)} failure(s) ({dt:.2f}s)")

    t0 = time.perf_counter()
    meas = verify_measure_decrease(fam, basis)
    dt = time.perf_counter() - t0
    results["measure"] = {
        "samples": meas.samples,
        "steps": meas.steps,
        "failures": len(meas.failures),
        "passed": meas.passed,
        "seconds": round(dt, 3),
    }
    lines.append(
        f"measure: {meas.samples} random monomials, {meas.steps} steps,"
        f" {len(meas.failures)} monotonicity failure(s) ({dt:.2f}s)")

    passed = all(r["passed"] for r in results.values())
    results["passed"] = passed
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")

    _emit(results, args.format == "json", lambda d: "\n".join(lines))
    return 0 if passed else 1


def cmd_normal_form(args) -> int:
    from .reduction import normal_form, parse_tpolynomial

    fam = family_from_file(args.family)
    f = parse_tpolynomial(args.expression, fam)
    basis = build_basis(fam)

    if not args.trace:
        nf = normal_form(f, basis)
        _emit({"input": f.text(), "normal_form": nf.text()},
              args.format == "json", lambda d: d["normal_form"])
        return 0

    from .measure import traced_normal_form
    trace = traced_normal_form(f, basis, fam)
    steps_data = [
        {"rewritten": s.rewritten.text(),
         "lead": s.rule.lead.text(),
         "trail": s.rule.trail.text(),
         "c": s.measure.c, "e": s.measure.e}
        for s in trace.steps
    ]
    data = {
        "input": f.text(),
        "initial": {"c": trace.initial_measure.c,
                    "e": trace.initial_measure.e},
        "steps": steps_data,
        "normal_form": trace.normal_form.text(),
    }

    def text(d):
        lines = [f"input: {d['input']}",
                 f"(c,e): {d['initial']['c']} {d['initial']['e']}"]
        for k, s in enumerate(d["steps"], start=1):
            lines.append(
                f"step {k}: rewrite {s['rewritten']} via"
                f" {s['lead']} -> {s['trail']}")
            lines.append(f"(c,e): {s['c']} {s['e']}")
        lines.append(f"normal form: {d['normal_form']}")
        return "\n".join(lines)

    _emit(data, args.format == "json", text)
    return 0


def cmd_bset(args) -> int:
    check_variable_cap(args.variables)
    gen = parse_monomial(args.monomial, args.variables)
    members = borel_closure(gen)
    data = {
        "generator": gen.text(),
        "variables": args.variables,
        "size": len(members),
        "members": [m.text() for m in members],
    }

    def text(d):
        lines = [f"borel set of {d['generator']} in {d['variables']}"
                 f" variables: {d['size']} member(s)"]
        for j, m in enumerate(d["members"], start=1):
            lines.append(f"{j:4d}  {m}")
        return "\n".join(lines)

    _emit(data, args.format == "json", text)
    return 0


_COMMANDS = {
    "check": cmd_check,
    "basis": cmd_basis,
    "certify": cmd_certify,
    "verify": cmd_verify,
    "normal-form": cmd_normal_form,
    "bset": cmd_bset,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FamilyError, MonomialParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotClosedError as exc:
        print(f"not closed under comparability: {exc}", file=sys.stderr)
        return 1
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
