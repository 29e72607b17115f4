"""Command-line front end.

Importing it loads only `errors`, `ratfun` and `poly`: each handler imports
the layers it calls, so a launch compiles only what its command uses.

Exit codes: 0 success / comparison pass, 1 comparison fail, 2 usage error,
3 resource guard tripped, 4 internal-consistency failure (also any unexpected
exception, with its traceback on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import ratfun
from .errors import (
    DEFAULT_CEILING,
    MODES,
    CoverageError,
    InternalConsistencyError,
    LookupError_,
    MalformedInputError,
    NonExpandableError,
    PoleError,
    ResourceGuardError,
    UnsupportedError,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4
# the least strong pseudoprime to the prime bases 2..41 (Sorenson and Webster
# 2015): `_is_prime` is exact below it, and `_prime` refuses any p from it on
_PSEUDOPRIME_41 = 3317044064679887385961981


def _coefficient_rows(coefficients):
    return [{"index_exponent": k, "coefficient": c} for k, c in enumerate(coefficients)]


def _emit(report, fmt, stream=None):
    stream = stream or sys.stdout
    if fmt == "json":
        json.dump(report, stream, indent=2, default=str)
        stream.write("\n")
        return
    rows = report.get("rows")
    if fmt == "csv":
        import csv
        if not rows:
            rows = [{"key": k, "value": v} for k, v in report.items() if k != "rows"]
        writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        return
    # table
    for k, v in report.items():
        if k == "rows":
            continue
        stream.write(f"{k}: {v}\n")
    if rows:
        keys = list(rows[0].keys())
        widths = [max(len(str(r.get(k, ""))) for r in rows + [dict(zip(keys, keys))]) for k in keys]
        stream.write("  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip() + "\n")
        for r in rows:
            stream.write("  ".join(str(r.get(k, "")).ljust(w) for k, w in zip(keys, widths)).rstrip() + "\n")


def _comparison_report(left_label, right_label, prime, left, right):
    pairs = [
        {"index_exponent": k, left_label: a, right_label: b, "equal": a == b}
        for k, (a, b) in enumerate(zip(left, right))
    ]
    verdict = all(p["equal"] for p in pairs)
    return {
        "left": left_label,
        "right": right_label,
        "prime": prime,
        "depth": len(pairs) - 1,
        "verdict": "pass" if verdict else "fail",
        "rows": pairs,
    }, (EXIT_PASS if verdict else EXIT_FAIL)


def _expand_formula(name, p, K, ceiling):
    formula = ratfun.formula_catalog(name)
    if isinstance(formula, ratfun.PointCountHybrid):
        from . import repzeta
        weights = repzeta.weight_values(formula, p, ceiling)
        return formula.expand(p, K, weights)
    return ratfun.expand(formula, p, K)


def _guard_preview(args, alg):
    """Say on stderr what --ceiling bounds on the path `latticezeta.count`
    takes.  Only the enumerate path prints a prediction: the sublattices of
    index up to p^K, confirmed at a terminal above 10^6."""
    from . import latticezeta
    path, how = latticezeta.count_path(alg, args.mode)
    if path == "central sum":
        if args.mode == "ideals":
            walked = "central lattices, predicted, and the points of the rank walk"
        elif latticezeta.is_free_class2(how):
            walked = "cotypes of the abelian quotient and the subgroup types of the centre"
        else:
            walked = ("lattices of the abelian quotient of index below p^K, predicted, "
                      "and the subgroup types of the centre")
        print(f"resource guard: central sum, --ceiling {args.ceiling} bounds the {walked}",
              file=sys.stderr)
        return
    if path == "row search":
        print(f"resource guard: row search, --ceiling {args.ceiling} bounds the search nodes",
              file=sys.stderr)
        return
    predicted = sum(
        latticezeta.sublattice_count_prediction(alg.rank, args.prime, k)
        for k in range(args.max_index + 1)
    )
    print(f"resource-guard prediction: {predicted} objects", file=sys.stderr)
    if predicted > 10**6 and not args.yes and sys.stdin.isatty():
        answer = input("proceed? [y/N] ")
        if answer.strip().lower() not in ("y", "yes"):
            raise ResourceGuardError("declined at prompt", predicted=predicted)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_ring_validate(args):
    from . import algebra
    alg = algebra.resolve_ring_spec(args.ring)
    report = algebra.validate(alg)
    out = {"ring": alg.name, "rank": alg.rank, "flags": sorted(alg.flags)}
    rows = []
    for axiom, verdict in report.as_dict().items():
        rows.append(
            {
                "axiom": axiom,
                "holds": verdict["holds"],
                "witness": "" if verdict["witness"] is None else str(verdict["witness"]),
            }
        )
    out["rows"] = rows
    nc = algebra.nilpotency_class(alg)
    out["nilpotency_class"] = "not nilpotent" if nc is None else nc
    return out, EXIT_PASS


def cmd_zeta_count(args):
    from . import algebra, latticezeta
    alg = algebra.resolve_ring_spec(args.ring)
    _guard_preview(args, alg)
    trunc = latticezeta.count(
        alg,
        args.prime,
        args.max_index,
        mode=args.mode,
        ceiling=args.ceiling,
    )
    return {
        "ring": alg.name,
        "prime": args.prime,
        "mode": args.mode,
        "rows": _coefficient_rows(trunc.coefficients),
    }, EXIT_PASS


def cmd_zeta_formula(args):
    trunc = _expand_formula(args.name, args.prime, args.max_index, args.ceiling)
    return {
        "formula": args.name,
        "prime": args.prime,
        "rows": _coefficient_rows(trunc.coefficients),
    }, EXIT_PASS


def cmd_zeta_compare(args):
    from . import algebra, latticezeta
    alg = algebra.resolve_ring_spec(args.ring)
    _guard_preview(args, alg)
    brute = latticezeta.count(
        alg, args.prime, args.max_index, mode=args.mode,
        ceiling=args.ceiling,
    )
    formula = _expand_formula(args.formula, args.prime, args.max_index, args.ceiling)
    return _comparison_report(
        f"enumeration[{alg.name}:{args.mode}]",
        f"formula[{args.formula}]",
        args.prime,
        brute.coefficients,
        formula.coefficients,
    )


def cmd_zeta_funeq(args):
    formula = ratfun.formula_catalog(args.name)
    hybrid = isinstance(formula, ratfun.PointCountHybrid)
    if args.solve:
        if hybrid:
            raise MalformedInputError(
                "--solve works on plain rational formulas; hybrids need --expect-*"
            )
        verdict = ratfun.funeq_verdict(formula)
        out = {
            "formula": args.name,
            "has_monomial_equation": verdict.has_monomial_equation,
        }
        if verdict.has_monomial_equation:
            out.update({"sign": verdict.sign, "a": verdict.a, "b": verdict.b})
        return out, EXIT_PASS
    expected = (args.expect_sign, args.expect_a, args.expect_b)
    if any(v is None for v in expected):
        raise MalformedInputError("give --solve or all of --expect-sign/--expect-a/--expect-b")
    if hybrid:
        verdict = ratfun.hybrid_funeq_verdict(formula, expected)
    else:
        verdict = ratfun.funeq_verdict(formula, expected)
    out = {
        "formula": args.name,
        "expected": str(expected),
        "verdict": "pass" if verdict.matches_expected else "fail",
    }
    return out, EXIT_PASS if verdict.matches_expected else EXIT_FAIL


def cmd_cone(args):
    from . import cones
    sys_ = cones.DiophantineConeSystem.from_json(args.system)
    if args.cone_command == "rays":
        ex = cones.extreme_rays(sys_, args.ceiling)
        return {
            "system": sys_.name,
            "dimension": ex.dim,
            "rows": [{"ray": " ".join(map(str, r))} for r in ex.rays],
        }, EXIT_PASS
    if args.cone_command == "series":
        series = cones.brute_series(sys_, args.bound, strict=args.strict, ceiling=args.ceiling)
        rows = [
            {"exponents": " ".join(map(str, e)), "coefficient": c}
            for e, c in sorted(series.terms.items())
        ]
        return {"system": sys_.name, "bound": args.bound, "strict": args.strict, "rows": rows}, EXIT_PASS
    if args.cone_command == "ratform":
        form = cones.rational_form(sys_, ceiling=args.ceiling)
        rows = [
            {"part": "numerator", "exponents": " ".join(map(str, e)), "coefficient": c}
            for e, c in sorted(form.numerator.items())
        ] + [
            {"part": "denominator-ray", "exponents": " ".join(map(str, r)), "coefficient": ""}
            for r in form.denominator_rays
        ]
        # the enumeration charges each term it keeps, so it refuses a huge box
        # before the expansion stores any term
        series = cones.brute_series(sys_, args.bound, ceiling=args.ceiling)
        check = cones.expand_form(form, args.bound, ceiling=args.ceiling)
        if sys_.slack_columns:
            check = check.marginalize(sys_.slack_columns)
        agrees = check == series
        return {
            "system": sys_.name,
            "expansion_matches_enumeration": agrees,
            "rows": rows,
        }, (EXIT_PASS if agrees else EXIT_INTERNAL)
    verdict = cones.reciprocity_check(sys_, args.bound, ceiling=args.ceiling)
    code = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "inconclusive": EXIT_PASS}[verdict.status]
    return {"system": sys_.name, "status": verdict.status, "detail": verdict.detail}, code


def cmd_igusa_poincare(args):
    from . import igusa
    poly = igusa.parse_polynomial(args.poly)
    pc = igusa.poincare_counts(poly, args.prime, args.depth, ceiling=args.ceiling)
    series = igusa.zf_series_from_poincare(pc, len(poly.variables)) if args.depth >= 1 else []
    return {
        "polynomial": repr(poly),
        "prime": args.prime,
        "rows": [
            {
                "m": m,
                "N_m": pc.counts[m],
                "integral_series_coefficient": str(series[m]) if m < len(series) else "",
            }
            for m in range(args.depth + 1)
        ],
    }, EXIT_PASS


def cmd_igusa_zeta3d(args):
    from . import algebra, igusa
    alg = algebra.resolve_ring_spec(args.ring)
    form = igusa.theorem3d_form(alg)
    trunc = igusa.theorem3d_zeta(
        alg, args.prime, args.scale_exp, args.max_index, ceiling=args.ceiling
    )
    return {
        "ring": alg.name,
        "quadratic_form": repr(form),
        "prime": args.prime,
        "scale_exp": args.scale_exp,
        "rows": _coefficient_rows(trunc.coefficients),
    }, EXIT_PASS


def cmd_rep_zeta(args):
    from . import algebra, repzeta
    pres = algebra.resolve_presentation_spec(args.presentation)
    trunc = repzeta.rep_zeta_class2(
        pres, args.prime, args.max_exp, ceiling=args.ceiling
    )
    return {
        "presentation": pres.name,
        "prime": args.prime,
        "rows": _coefficient_rows(trunc.coefficients),
    }, EXIT_PASS


def cmd_rep_compare(args):
    from . import algebra, repzeta
    pres = algebra.resolve_presentation_spec(args.presentation)
    brute = repzeta.rep_zeta_class2(
        pres, args.prime, args.max_exp, ceiling=args.ceiling
    )
    formula = _expand_formula(args.formula, args.prime, args.max_exp, args.ceiling)
    return _comparison_report(
        f"orbit-count[{pres.name}]",
        f"formula[{args.formula}]",
        args.prime,
        brute.coefficients,
        formula.coefficients,
    )


def cmd_euler(args):
    formula = ratfun.formula_catalog(args.name)
    if isinstance(formula, ratfun.PointCountHybrid):
        raise MalformedInputError("euler products of hybrids are not exposed on the CLI")
    samples = ratfun.asymptotic_samples(args.max_m) if args.asymptotics else [args.max_m]
    sums = ratfun.partial_sums(formula, args.primes_up_to, samples, args.ceiling)
    out = {"formula": args.name, "primes_up_to": args.primes_up_to, "max_m": args.max_m}
    if args.asymptotics:
        try:
            alpha_s, b_s, c_s = args.asymptotics.split(",")
            alpha, b, c = float(alpha_s), float(b_s), float(c_s)
        except ValueError as exc:
            raise MalformedInputError("--asymptotics wants alpha,b,c") from exc
        rows = [
            {"m": m, "ratio": f"{r:.6f}"}
            for m, r in ratfun.asymptotic_ratio(sums, alpha, b, c)
        ]
        out["rows"] = rows
    else:
        # partial_sums found every prime up to --max-m covered, so the first
        # 30 coefficients need only the primes up to 30
        show = min(args.max_m, 30)
        coefficients = ratfun.euler_product(
            formula, min(args.primes_up_to, show), show, args.ceiling).coefficients
        out["rows"] = [{"m": m, "a_m": coefficients[m]} for m in range(1, show + 1)]
        out["partial_sum"] = sums[args.max_m]
    return out, EXIT_PASS


def cmd_coxeter_check(args):
    from . import coxeter
    n = args.n
    rows = []
    ok = True
    walk = coxeter.walk_symmetric_group(n, args.ceiling)
    for I, total in coxeter.descent_sums(walk).items():
        match = total == coxeter.gaussian_binomial(n, I)
        ok = ok and match
        rows.append({"I": "{" + ",".join(map(str, sorted(I))) + "}", "descent_sum_matches": match})
    longest = walk.longest
    ok = ok and longest.holds
    return {
        "n": n,
        "longest_element_identities": longest.holds,
        "verdict": "pass" if ok else "fail",
        "rows": rows,
    }, (EXIT_PASS if ok else EXIT_FAIL)


# ---------------------------------------------------------------------------
# parser


def _int(text):
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _prime(text):
    """--prime: the enumerators and the Smith-form code assume a prime."""
    p = _int(text)
    if p >= _PSEUDOPRIME_41:
        raise argparse.ArgumentTypeError(
            f"cannot certify {p} as a prime: the test is exact only below {_PSEUDOPRIME_41}")
    if not _is_prime(p):
        raise argparse.ArgumentTypeError(f"{p} is not a prime")
    return p


def _is_prime(n):
    """Miller-Rabin with the thirteen prime bases 2..41."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _positive_int(text):
    n = _int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _nonnegative_int(text):
    """Truncation bounds (--max-index, --max-exp, --depth, --scale-exp, --max-m,
    --primes-up-to, cone --bound) and the symmetric-group degree (coxeter check --n)."""
    n = _int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


@lru_cache(maxsize=None)
def build_parser():
    """The CLI parser, built once per process and shared: parsing does not
    modify it, and rebuilding it for every call leaves cyclic garbage that
    raises the peak memory of a process making many calls.

    --output, --yes and --ceiling are accepted before the subcommand and
    after any leaf.  They default to SUPPRESS, so that a leaf does not reset
    a value given before it, and `main` supplies their defaults."""
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--output", choices=("table", "csv", "json"))
    common.add_argument("--yes", action="store_true", help="skip interactive guard confirmation")
    common.add_argument("--ceiling", type=_positive_int,
                        help="resource-guard ceiling for enumerations")
    parser = argparse.ArgumentParser(
        prog="ringzeta", parents=[common],
        description="Truncations of local zeta functions of rings: enumeration vs. closed forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="ring-level operations").add_subparsers(
        dest="ring_command", required=True
    )
    v = ring.add_parser("validate", help="axiom report for a ring", parents=[common])
    v.add_argument("--ring", required=True, help="catalog:NAME or a JSON file path")
    v.set_defaults(handler=cmd_ring_validate)

    zeta = sub.add_parser("zeta", help="subring/ideal zeta truncations").add_subparsers(
        dest="zeta_command", required=True
    )
    c = zeta.add_parser("count", help="enumerate and count", parents=[common])
    c.add_argument("--ring", required=True)
    c.add_argument("--prime", type=_prime, required=True)
    c.add_argument("--max-index", type=_nonnegative_int, required=True,
                   help="count up to index p^K")
    c.add_argument("--mode", choices=MODES, default="subrings")
    c.set_defaults(handler=cmd_zeta_count)
    f = zeta.add_parser("formula", help="expand a catalog formula", parents=[common])
    f.add_argument("--name", required=True)
    f.add_argument("--prime", type=_prime, required=True)
    f.add_argument("--max-index", type=_nonnegative_int, required=True)
    f.set_defaults(handler=cmd_zeta_formula)
    cp = zeta.add_parser("compare", help="enumeration vs. formula", parents=[common])
    cp.add_argument("--ring", required=True)
    cp.add_argument("--formula", required=True)
    cp.add_argument("--prime", type=_prime, required=True)
    cp.add_argument("--max-index", type=_nonnegative_int, required=True)
    cp.add_argument("--mode", choices=MODES, default="subrings")
    cp.set_defaults(handler=cmd_zeta_compare)
    fe = zeta.add_parser("funeq", help="functional-equation verdict", parents=[common])
    fe.add_argument("--name", required=True)
    fe.add_argument("--solve", action="store_true")
    fe.add_argument("--expect-sign", type=int)
    fe.add_argument("--expect-a", type=int)
    fe.add_argument("--expect-b", type=int)
    fe.set_defaults(handler=cmd_zeta_funeq)

    cone = sub.add_parser("cone", help="diophantine cone generating functions")
    conesub = cone.add_subparsers(dest="cone_command", required=True)
    for name, with_bound in (("rays", False), ("series", True), ("ratform", True), ("reciprocity", True)):
        cc = conesub.add_parser(name, parents=[common])
        cc.add_argument("--system", required=True, help="JSON file: {phi: [[..]], kinds: [..]}")
        if with_bound:
            cc.add_argument("--bound", type=_nonnegative_int, default=6)
        if name == "series":
            cc.add_argument("--strict", action="store_true")
        cc.set_defaults(handler=cmd_cone)

    ig = sub.add_parser("igusa", help="congruence counting and the rank-3 assembly").add_subparsers(
        dest="igusa_command", required=True
    )
    pc = ig.add_parser("poincare", parents=[common])
    pc.add_argument("--poly", required=True,
                    help="polynomial over named variables; grammar: integer literals, variables, +, -, *, ^ (or **), parentheses")
    pc.add_argument("--prime", type=_prime, required=True)
    pc.add_argument("--depth", type=_nonnegative_int, required=True)
    pc.set_defaults(handler=cmd_igusa_poincare)
    z3 = ig.add_parser("zeta3d", parents=[common])
    z3.add_argument("--ring", required=True)
    z3.add_argument("--prime", type=_prime, required=True)
    z3.add_argument("--scale-exp", type=_nonnegative_int, default=0)
    z3.add_argument("--max-index", "--depth", dest="max_index", type=_nonnegative_int,
                    required=True)
    z3.set_defaults(handler=cmd_igusa_zeta3d)

    rep = sub.add_parser("rep", help="representation zeta truncations").add_subparsers(
        dest="rep_command", required=True
    )
    rz = rep.add_parser("zeta", parents=[common])
    rz.add_argument("--presentation", required=True)
    rz.add_argument("--prime", type=_prime, required=True)
    rz.add_argument("--max-exp", type=_nonnegative_int, required=True)
    rz.set_defaults(handler=cmd_rep_zeta)
    rc = rep.add_parser("compare", parents=[common])
    rc.add_argument("--presentation", required=True)
    rc.add_argument("--formula", required=True)
    rc.add_argument("--prime", type=_prime, required=True)
    rc.add_argument("--max-exp", type=_nonnegative_int, required=True)
    rc.set_defaults(handler=cmd_rep_compare)

    eu = sub.add_parser("euler", help="global Dirichlet coefficients from local factors", parents=[common])
    eu.add_argument("--name", required=True)
    eu.add_argument("--primes-up-to", type=_nonnegative_int, required=True)
    eu.add_argument("--max-m", type=_nonnegative_int, required=True)
    eu.add_argument("--asymptotics", help="alpha,b,c: print partial-sum ratios")
    eu.set_defaults(handler=cmd_euler)

    cox = sub.add_parser("coxeter", help="symmetric-group identities").add_subparsers(
        dest="coxeter_command", required=True
    )
    ck = cox.add_parser("check", parents=[common])
    ck.add_argument("--n", type=_nonnegative_int, required=True)
    ck.set_defaults(handler=cmd_coxeter_check)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(
            argv, argparse.Namespace(output="table", yes=False, ceiling=DEFAULT_CEILING))
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; re-raise others unchanged
        raise SystemExit(EXIT_USAGE if exc.code not in (0, None) else 0)
    try:
        report, code = args.handler(args)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InternalConsistencyError as exc:
        print(f"internal consistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (
        MalformedInputError,
        LookupError_,
        UnsupportedError,
        PoleError,
        NonExpandableError,
        CoverageError,
        FileNotFoundError,
        json.JSONDecodeError,
    ) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        import traceback  # here, not at the top: only this path needs it

        traceback.print_exc()
        return EXIT_INTERNAL
    try:
        _emit(report, args.output)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
