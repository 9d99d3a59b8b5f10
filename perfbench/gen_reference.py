"""Generate the benchmark's reference outputs, cross-checked against
independent routes.  Run once from the repository root:

    python3 perfbench/gen_reference.py

It covers every operation any seed can draw (see workloads.py) and writes
`perfbench/reference/reports.json` and `perfbench/reference/residues.json.gz`.
The package output is accepted only where it agrees with:

* report fields (`order`, `terms_used`) given by the closed window formulas
  below, and `passed` on every call;
* p3 and overp from their product definitions through q^3000, and from the
  enumeration oracles of the test suite for small n;
* A_k and C_k, k <= 12, through q^600 from the theta-quotient formulas of
  Andrews and Rose, built on the product-definition p3 and overp, and from
  brute-force enumeration, the literal nested sum and the unpruned multiset
  oracle for small parameters.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402
from macmahon import families, identities, partitions  # noqa: E402

from checks import MODULUS, REFERENCE_DIR, report_key  # noqa: E402
from workloads import COROLLARY_WINDOWS, DEEP_J, DEEP_K  # noqa: E402

SERIES_ORDER = 10000
MEMBER_CAP = 12
MEMBER_ORDER = 600
PRODUCT_CHECK_ORDER = 3000

VERIFY = {
    "thm-a": identities.verify_theorem_A,
    "thm-c": identities.verify_theorem_C,
    "cor-a": identities.verify_corollary_A,
    "cor-c": identities.verify_corollary_C,
    "limit-a": identities.verify_limit_A,
    "limit-c": identities.verify_limit_C,
    "divisor": identities.verify_divisor_identities,
}


def _tri(m: int) -> int:
    return m * (m + 1) // 2


def expected_fields(op: dict) -> list[int]:
    """[order, terms_used] from the identity windows alone."""
    t, k, j, N = op["target"], op.get("k"), op.get("j"), op.get("N")
    if t == "thm-a":
        return [N, sum(1 for m in range(k, N + k + 2) if _tri(m) - _tri(k) <= N)]
    if t == "thm-c":
        return [N, sum(1 for m in range(k, N + k + 2) if m * m - k * k <= N)]
    if t == "cor-a":
        return [(j + 1) * (j + 2 * k + 2) // 2 - 1, j + 1]
    if t == "cor-c":
        return [(j + 1) * (j + 2 * k + 1) - 1, j + 1]
    if t in ("limit-a", "limit-c"):
        return [N, 1]
    return [N, 2]


def report_space() -> list[dict]:
    """Every verifier call the three workloads can draw, warm-ups excluded."""
    ops = []
    for N in range(100, 201):  # identity-sweep passes
        ops += [{"target": t, "k": k, "N": N} for t in ("thm-a", "thm-c") for k in range(13)]
        ops += [{"target": "limit-a", "k": k, "N": N} for k in range(11)]
        ops += [{"target": "limit-c", "k": k, "N": N} for k in range(9)]
        ops.append({"target": "divisor", "N": 3 * N})
    ops += [{"target": t, "k": k, "j": j} for t in ("cor-a", "cor-c") for k, j in COROLLARY_WINDOWS]
    ops += [{"target": t, "k": k, "j": j} for t in ("cor-a", "cor-c") for k in DEEP_K for j in DEEP_J]
    for N in range(20, 61):  # small cli-export verify calls
        ops += [{"target": t, "k": k, "N": N} for t in ("thm-a", "thm-c") for k in range(9)]
        ops += [{"target": "limit-a", "k": k, "N": N} for k in range(7) if N >= 21]
        ops += [{"target": "limit-c", "k": k, "N": N} for k in range(6) if N >= 25]
        ops.append({"target": "divisor", "N": N})
    ops += [{"target": t, "k": k, "j": j} for t in ("cor-a", "cor-c") for k in range(9) for j in range(4)]
    unique = {report_key(op): op for op in ops}
    return list(unique.values())


def reports() -> dict[str, list[int]]:
    out = {}
    for op in report_space():
        args = [op[p] for p in ("k", "j", "N") if p in op]
        report = VERIFY[op["target"]](*args)
        fields = [report.order, report.terms_used]
        if not report.passed or fields != expected_fields(op):
            raise SystemExit(f"{report_key(op)}: passed={report.passed} fields={fields}")
        out[report_key(op)] = fields
    return out


# -- independent series routes --------------------------------------------------


def product_p3(order: int) -> list[int]:
    """prod (1-q^e)^-3, three running-sum divisions per factor."""
    c = [1] + [0] * order
    for e in range(1, order + 1):
        for _ in range(3):
            for i in range(e, order + 1):
                c[i] += c[i - e]
    return c


def product_overp(order: int) -> list[int]:
    """prod (1+q^e)/(1-q^e)."""
    c = [1] + [0] * order
    for e in range(1, order + 1):
        for i in range(order, e - 1, -1):
            c[i] += c[i - e]
        for i in range(e, order + 1):
            c[i] += c[i - e]
    return c


def theta_members(tag: str, gf: list[int], cap: int, order: int) -> list[list[int]]:
    """A_k = p3 * sum_{m>=k} (-1)^(m+k) (2m+1)/(2k+1) C(m+k, m-k) q^(m(m+1)/2)
    and C_k = overp * sum_{m>=k} (-1)^(m+k) c(m,k) q^(m^2), with c(0,0) = 1
    and c(m,k) = 2m/(m+k) C(m+k, 2k)."""
    rows = []
    for k in range(cap + 1):
        theta = {}
        m = k
        while True:
            e = _tri(m) if tag == "A" else m * m
            if e > order:
                break
            if tag == "A":
                w, rem = divmod((2 * m + 1) * math.comb(m + k, m - k), 2 * k + 1)
            else:
                w, rem = (1, 0) if m == 0 else divmod(2 * m * math.comb(m + k, 2 * k), m + k)
            if rem:
                raise SystemExit(f"{tag} theta weight ({m},{k}) is not integral")
            theta[e] = -w if (m + k) % 2 else w
            m += 1
        row = [0] * (order + 1)
        for e, w in theta.items():
            for n in range(e, order + 1):
                row[n] += w * gf[n - e]
        rows.append(row)
    return rows


def _agree(name: str, got, want) -> None:
    if list(got) != list(want):
        raise SystemExit(f"cross-check failed: {name}")


def residues() -> dict[str, list[int]]:
    p3 = partitions.p3_series(SERIES_ORDER).coeffs
    overp = partitions.overpartition_series(SERIES_ORDER).coeffs
    p3_product = product_p3(PRODUCT_CHECK_ORDER)
    overp_product = product_overp(PRODUCT_CHECK_ORDER)
    _agree("p3 product", p3[: PRODUCT_CHECK_ORDER + 1], p3_product)
    _agree("overp product", overp[: PRODUCT_CHECK_ORDER + 1], overp_product)
    _agree("p3 convolution oracle", p3[:201], oracles.three_colored_counts(200))
    _agree("overp enumeration", overp[:16], [oracles.overpartition_count(n) for n in range(16)])

    out = {"p3": p3, "overp": overp}
    for tag, compute, gf, brute, odd in (
        ("A", families.compute_A_family_uncached, p3_product, partitions.mk_bruteforce, False),
        ("C", families.compute_C_family_uncached, overp_product, partitions.mk_odd_bruteforce, True),
    ):
        members = [list(m.coeffs) for m in compute(MEMBER_CAP, MEMBER_ORDER).members]
        _agree(f"{tag} theta", members, theta_members(tag, gf, MEMBER_CAP, MEMBER_ORDER))
        for k in range(5):
            _agree(f"{tag}{k} brute force", members[k][:25], [brute(k, n).value for n in range(25)])
            _agree(
                f"{tag}{k} multiset oracle",
                members[k][:17],
                [oracles.multiplicity_product_total(n, k, odd) for n in range(17)],
            )
        for k, member in enumerate(members):
            out[f"{tag}{k}"] = member
    for k in range(4):
        _agree(f"A{k} nested sum", out[f"A{k}"][:31], families.a_k_directsum(k, 30).coeffs)
    return {name: [c % MODULUS for c in cs] for name, cs in out.items()}


def main() -> int:
    t0 = time.perf_counter()
    REFERENCE_DIR.mkdir(exist_ok=True)
    table = residues()
    packed = {name: "".join(f"{r:016x}" for r in rs) for name, rs in table.items()}
    with open(REFERENCE_DIR / "residues.json.gz", "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps({"modulus": MODULUS, "series": packed}, sort_keys=True).encode())
    fields = reports()
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(fields.items())]
    (REFERENCE_DIR / "reports.json").write_text('{"reports": {\n' + ",\n".join(lines) + "\n}}\n")
    print(f"{len(table)} series, {len(fields)} reports in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
