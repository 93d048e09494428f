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
import warnings

from .certify import (
    _yn,
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
        lines = closure_lines(d, d["closed"])
        if fam.mode == "rees":
            lines.append(
                f"conjunction agrees with closure: "
                f"{_yn(d['characterization']['conjunction'] == d['closed'])}")
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
                 f"  quadratic: {_yn(d['quadratic'])}"
                 f"  squarefree leads: {_yn(d['squarefree_leads'])}"]
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

    degree = args.max_degree
    # one row a suite: JSON key, call, figures, verdict attribute, text
    # line over the figures, and whether it lists the first failure
    # reasons; both fiber suites are one pass, run by the first
    suites = (
        ("confluence", lambda: confluence_check(basis),
         lambda r: {"pairs": r.pairs_total,
                    "pairs_reduced": r.pairs_reduced,
                    "pairs_skipped": r.pairs_skipped,
                    "max_reduction_length": r.max_reduction_length,
                    "normal_forms": r.normal_forms}, "confluent",
         "confluence: {pairs} s-pairs, {failures} failure(s),"
         " {pairs_reduced} reduced, {pairs_skipped} skipped (coprime"
         " leads), max reduction length {max_reduction_length}", False),
        ("normal_forms",
         lambda: verify_unique_normal_forms(fam, basis, degree),
         lambda r: {"monomials": r.monomials, "fibers": r.fibers,
                    "largest_fiber": r.largest_fiber,
                    "reductions": r.reductions}, "passed",
         "normal forms: {monomials} monomials in {fibers} fibers up to"
         " degree {degree}, {failures} failure(s)", True),
        ("kernel", lambda: verify_kernel_generation(fam, basis, degree),
         lambda r: {"differences": r.differences}, "passed",
         "kernel: {differences} fiber differences, {failures} failure(s)",
         False),
        ("measure", lambda: verify_measure_decrease(fam, basis),
         lambda r: {"samples": r.samples, "steps": r.steps}, "passed",
         "measure: {samples} random monomials, {steps} steps,"
         " {failures} monotonicity failure(s)", False),
    )
    results = {}
    lines = []
    for key, call, figures, verdict, text, reasons in suites:
        t0 = time.perf_counter()
        report = call()
        dt = time.perf_counter() - t0
        entry = results[key] = {
            **figures(report), "failures": len(report.failures),
            "passed": getattr(report, verdict), "seconds": round(dt, 3)}
        lines.append(text.format(degree=degree, **entry)
                     + f" ({entry['seconds']:.2f}s)")
        if reasons:
            lines.extend(f"  {fail.reason}" for fail in report.failures[:4])

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


def _warning_line(message, category, filename, lineno, file=None,
                  line=None) -> None:
    """Show a warning as one ``warning: ...`` line on stderr, with no
    source path or line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            # the package's own warnings are lines, even under -W error,
            # whose raise would exit 1 and read as "not closed"
            warnings.filterwarnings("default", module=r"reescert\.")
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
