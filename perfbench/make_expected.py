"""Regenerate perfbench/expected.json: the count-deep answers as digests.

    PYTHONPATH=src python3 perfbench/make_expected.py

Each answer is computed along the route the workload takes and accepted
only after a second route agrees:

- P at p_n: e_total formula vs recurrence; each e_rank mu_sum vs
  recurrence; exi_total formula vs recurrence; rank sums vs totals.
- e_total at wide_n: B and PB by R-class reconstruction (sum of rho times
  the per-class count), T by the binomial sum over image sizes, I as 2^n
  and Idual as the Bell number B_n.  exi_total at wide_n: B by the twisted
  R-class reconstruction, PB equal to B at order 0, T, I and Idual by the
  sum of exi_rank.
- e_rank at rank_n: B per rank by rho(B, n, r) * a_nr(n, r), PB per rank
  by the sum over t of rho(PB, n, r, t) * a_nrt(n, r, t), and both rank
  sums against e_total.

The closed per-rank forms and the partition formula sum over every
integer partition of n, which is out of reach at wide_n and rank_n, so
they are cross-checked at the P size only (through mu_sum and formula).
Both the full and the smoke sizes are stored.
"""

from __future__ import annotations

import json
import sys
from math import comb
from pathlib import Path

import diagmon as dm

import workloads

HERE = Path(__file__).parent


def _same(label: str, *values: int) -> int:
    if len(set(values)) != 1:
        raise SystemExit(f"routes disagree on {label}: {values}")
    return values[0]


def expected_answers(size: dict) -> dict[tuple, int]:
    p, w, k = size["p_n"], size["wide_n"], size["rank_n"]
    out: dict[tuple, int] = {}
    total = _same(f"e_total(P,{p})", dm.e_total("P", p), dm.e_total("P", p, "formula"))
    out[("e_total", "P", p)] = total
    for r in range(p + 1):
        out[("e_rank", "P", p, r)] = _same(
            f"e_rank(P,{p},{r})", dm.e_rank("P", p, r), dm.e_rank("P", p, r, "mu_sum")
        )
        out[("exi_rank", "P", p, r)] = dm.exi_rank("P", p, r, 0)
    _same(f"rank sum of P_{p}", total, sum(out[("e_rank", "P", p, r)] for r in range(p + 1)))
    exi = _same(
        f"exi_total(P,{p})",
        dm.exi_total("P", p, 0),
        dm.exi_total("P", p, 0, "recurrence"),
        sum(out[("exi_rank", "P", p, r)] for r in range(p + 1)),
    )
    out[("exi_total", "P", p)] = exi

    b_classes = sum(dm.rho("B", w, r) * dm.a_nr(w, r) for r in range(w % 2, w + 1, 2))
    out[("e_total", "B", w)] = _same(f"e_total(B,{w})", dm.e_total("B", w), b_classes)
    pb_ranks = sum(dm.e_rank("PB", w, r) for r in range(w + 1))
    out[("e_total", "PB", w)] = _same(f"e_total(PB,{w})", dm.e_total("PB", w), pb_ranks)
    t_images = sum(comb(w, j) * j ** (w - j) for j in range(1, w + 1))
    out[("e_total", "T", w)] = _same(f"e_total(T,{w})", dm.e_total("T", w), t_images)
    b_twisted = sum(dm.rho("B", w, r) * dm.b_nr(w, r) for r in range(w % 2, w + 1, 2))
    twisted = _same(
        f"exi_total(B|PB,{w})",
        dm.exi_total("B", w, 0, "recurrence"),
        dm.exi_total("PB", w, 0, "recurrence"),
        b_twisted,
    )
    out[("exi_total", "B", w)] = out[("exi_total", "PB", w)] = twisted
    out[("e_total", "I", w)] = _same(f"e_total(I,{w})", dm.e_total("I", w), 2 ** w)
    out[("e_total", "Idual", w)] = _same(f"e_total(Idual,{w})", dm.e_total("Idual", w), dm.bell(w))
    for fam in ("T", "I", "Idual"):
        ranks = sum(dm.exi_rank(fam, w, r, 0) for r in range(w + 1))
        out[("exi_total", fam, w)] = _same(
            f"exi_total({fam},{w})", dm.exi_total(fam, w, 0, "recurrence"), ranks
        )

    for r in range(k + 1):
        b_class = dm.rho("B", k, r) * dm.a_nr(k, r) if (k - r) % 2 == 0 else 0
        out[("e_rank", "B", k, r)] = _same(f"e_rank(B,{k},{r})", dm.e_rank("B", k, r), b_class)
        pb_class = sum(
            dm.rho("PB", k, r, t) * dm.a_nrt(k, r, t)
            for t in range(k - r + 1)
            if (k - r - t) % 2 == 0
        )
        out[("e_rank", "PB", k, r)] = _same(f"e_rank(PB,{k},{r})", dm.e_rank("PB", k, r), pb_class)
    for fam in ("B", "PB"):
        _same(
            f"rank sum of {fam}_{k}",
            dm.e_total(fam, k),
            sum(out[("e_rank", fam, k, r)] for r in range(k + 1)),
        )
    return out


def main() -> None:
    sys.setrecursionlimit(10_000)  # the second routes recurse deeper than the workload
    deep = {}
    for sizes in workloads.SIZES.values():
        size = sizes["count-deep"]
        answers = expected_answers(size)
        keys = {key for key, _, _ in workloads.deep_ops(size)}
        if keys != set(answers):
            raise SystemExit(f"expected answers do not cover the op list: {keys ^ set(answers)}")
        deep[workloads.deep_label(size)] = {workloads.op_id(key): workloads.digest(v) for key, v in sorted(answers.items(), key=str)}
    (HERE / "expected.json").write_text(json.dumps({"count-deep": deep}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
