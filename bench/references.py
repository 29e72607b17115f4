"""Regenerate references.json, the pinned outputs every run is checked against.

    python3 bench/references.py

Comparisons and the rank-3 assembly are pinned to the expansion of the
catalog's closed-form Euler factor, never to an enumerator.  The zeta_Zn(2)
Euler product is pinned to divisor sums computed here.  The other reports
(Euler products from local factors, functional equations, cone and Coxeter
verdicts) are closed-form computations already, pinned from one CLI run; each
must exit 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cases  # noqa: E402
from ringzeta import ratfun, repzeta  # noqa: E402
from run import run_case  # noqa: E402

ASSEMBLY_FORMULA = {"@ring:heisenberg": "heisenberg_subring"}


def closed_form(name, p, K):
    f = ratfun.formula_catalog(name)
    if isinstance(f, ratfun.PointCountHybrid):
        return list(f.expand(p, K, repzeta.weight_values(f, p)).coefficients)
    return list(ratfun.expand(f, p, K).coefficients)


def divisor_sum_ratios(bound, c):
    """Rows of `euler --asymptotics 2,0,c` for zeta_Zn(2), whose m-th
    coefficient is the divisor sum sigma(m)."""
    sigma = [0] * (bound + 1)
    for d in range(1, bound + 1):
        for m in range(d, bound + 1, d):
            sigma[m] += d
    samples = [10**e for e in range(1, len(str(bound))) if 10**e < bound] + [bound]
    running, rows = 0, []
    for m in range(1, bound + 1):
        running += sigma[m]
        if m in samples:
            rows.append({"m": m, "ratio": f"{running / (c * m**2.0 * 1.0):.6f}"})
    return rows


def reference(argv, cli_argv):
    def opt(flag):
        return argv[argv.index(flag) + 1]

    if argv[1] == "compare":
        depth = opt("--max-index") if "--max-index" in argv else opt("--max-exp")
        return {"exit": 0, "fields": {"verdict": "pass"},
                "coefficients": closed_form(opt("--formula"), int(opt("--prime")), int(depth))}
    if argv[:2] == ["igusa", "zeta3d"]:
        return {"exit": 0, "coefficients": closed_form(
            ASSEMBLY_FORMULA[opt("--ring")], int(opt("--prime")), int(opt("--max-index")))}
    if argv[0] == "euler" and opt("--name") == "zeta_Zn(2)":
        alpha, b, c = opt("--asymptotics").split(",")
        assert (alpha, b) == ("2", "0")
        return {"exit": 0, "fields": {"rows": divisor_sum_ratios(int(opt("--max-m")), float(c))}}
    from ringzeta import cli

    code, stdout = run_case(cli, cli_argv)
    assert code == 0, (argv, code)
    report = json.loads(stdout)
    keep = set(report) if argv[0] == "euler" else set(report) - {"rows"}
    return {"exit": 0, "fields": {k: report[k] for k in sorted(keep)}}


def main():
    import tempfile

    refs = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent, prefix=".bench_inputs_") as tmp:
        for workload, (_, case_list) in cases.WORKLOADS.items():
            resolved = cases.materialize(workload, 0, HERE.parent, Path(tmp))
            for (case_id, argv), (_, cli_argv) in zip(case_list, resolved):
                refs[case_id] = reference(argv, cli_argv)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
