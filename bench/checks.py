"""Correctness checks on the files one pass writes, and failure counting.

Failures are counted from the output, never from the exit code alone:
`preset` and `sweep` exit 0 even when seeds fail.  A seed counts as failed
when stderr names it (``seed N failed`` / ``flagged failures: [(N, ...)]``) or
when it has fewer rows than seeds x points x methods x tasks predicts.

Checks chosen to survive the planned changes to the program:

* reference: the deterministic rows (analytic and lemma_approx) of each
  (case, seed, estimator, task, method) group match values recorded at the
  commit that defined the benchmark, within ``REF_RTOL`` relative.  Each group
  is stored as two numbers, the plain sum of its values and the sum weighted by
  each row's position on the sorted (lambda, tau) grid, so a wrong value at one
  grid point, a value at the wrong point or errors that cancel in the plain sum
  all show.  Changing the BLAS thread count moves single rows by at most ~4e-16
  relative, so byte digests are not used;
* identities, for any seed: value = sum of its terms, ensemble(lam, tau=1) =
  ridge(lam), ensemble(lam, tau=0) = pretrained, every number finite;
* Monte Carlo in aggregate, by the rule of acceptance test c03: at least 95%
  of MC rows within 3 standard errors of their analytic row.  A different MC
  stream therefore does not count as a failure.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from workloads import Output, Pass

REF_RTOL = 1e-9
IDENTITY_RTOL = 1e-12
MC_Z = 3.0
MC_SHARE = 0.95
DETERMINISTIC = ("analytic", "lemma_approx")
TERM_COLUMNS = ("bias_thetac", "term_zeta1", "term_zeta2", "term_sigma", "term_sigma_tilde")

_SEED_FAILED = re.compile(r"^seed (\d+) failed", re.M)
_FLAGGED = re.compile(r"^flagged failures: (.*)$", re.M)
_FLAGGED_SEED = re.compile(r"\((\d+), ")


@dataclass
class Tally:
    """Seeds and checks attempted and failed, plus the MC agreement counts."""

    seeds: int = 0
    failed_seeds: int = 0
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    mc: dict[int, tuple[int, int]] = field(default_factory=dict)  # master seed -> hits, rows

    @property
    def attempted(self) -> int:
        return self.seeds + self.checks

    @property
    def failed(self) -> int:
        return self.failed_seeds + len(self.failures)

    def check(self, name: str, ok: bool) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(name)

    def add(self, other: "Tally") -> None:
        self.seeds += other.seeds
        self.failed_seeds += other.failed_seeds
        self.checks += other.checks
        self.failures += other.failures
        self.mc.update(other.mc)

    def close_mc(self) -> None:
        """Apply the MC rule, as one check, to the MC rows of every master seed seen.

        Rows repeat exactly for a repeated master seed, so each seed counts once.
        """
        hits = sum(h for h, _ in self.mc.values())
        rows = sum(n for _, n in self.mc.values())
        if rows:
            self.check(f"monte_carlo: {hits}/{rows} rows within {MC_Z:g} SE over "
                       f"{len(self.mc)} master seeds", hits >= MC_SHARE * rows)


def stderr_failed_seeds(text: str) -> set[int]:
    seeds = {int(m) for m in _SEED_FAILED.findall(text)}
    for listing in _FLAGGED.findall(text):
        seeds |= {int(m) for m in _FLAGGED_SEED.findall(listing)}
    return seeds


def _num(text: str) -> float | None:
    return None if text == "" else float(text)


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _grid_key(row: dict) -> tuple[float, float]:
    """Position of a row on its group's (lambda, tau) grid; a blank sorts first."""
    lam, tau = _num(row["lambda"]), _num(row["tau"])
    return (-math.inf if lam is None else lam, -math.inf if tau is None else tau)


def summaries(p: Pass) -> dict[str, float]:
    """Reference quantities of one pass, keyed by a readable name."""
    out: dict[str, float] = {}
    for o in p.outputs:
        if o.kind == "rows":
            groups: dict[str, list[dict]] = {}
            for r in read_rows(o.path):
                if r["method"] in DETERMINISTIC:
                    key = "|".join((r["case"], r["seed"], r["estimator"], r["task"], r["method"]))
                    groups.setdefault(key, []).append(r)
            for key, rows in groups.items():
                values = [float(r["value"]) for r in sorted(rows, key=_grid_key)]
                out[f"{key}|sum"] = sum(values)
                out[f"{key}|wsum"] = sum((1 + i) * v for i, v in enumerate(values))
        else:
            with open(o.path) as fh:
                rep = json.load(fh)
            for item, rate in rep["rates"].items():
                out[f"rate|{item}"] = rate
            out["band|inside"] = float(rep["eigen_band"]["inside"])
            for i, s in enumerate(rep["seeds"]):
                for lam, tau in s["tau_star"].items():
                    out[f"tau_star|{i}|{lam}"] = tau
    return out


def _check_rows(o: Output, rows: list[dict], named: set[int], tally: Tally,
                master_seed: int) -> None:
    per_seed = o.expected_rows // o.seeds
    counts = {s: 0 for s in range(o.seeds)}
    finite = True
    sums_ok = True
    by_point: dict[tuple, float] = {}
    analytic: dict[tuple, float] = {}
    mc = []
    for r in rows:
        seed = int(r["seed"])
        counts[seed] = counts.get(seed, 0) + 1
        nums = [_num(r[c]) for c in ("value", "se", *TERM_COLUMNS)]
        if any(v is not None and not math.isfinite(v) for v in nums):
            finite = False
            continue
        value = nums[0]
        if r["method"] in DETERMINISTIC:
            total = sum(v for v in nums[2:] if v is not None)
            sums_ok &= abs(value - total) <= IDENTITY_RTOL * max(abs(value), 1e-300)
            lam, tau = _num(r["lambda"]), _num(r["tau"])
            by_point[(seed, r["task"], r["method"], r["estimator"], lam, tau)] = value
        if r["method"] == "analytic":
            analytic[(seed, r["task"], r["estimator"], r["lambda"], r["tau"])] = value
        elif r["method"] == "monte_carlo":
            mc.append((seed, r["task"], r["estimator"], r["lambda"], r["tau"],
                       value, _num(r["se"])))
    short = {s for s, c in counts.items() if c < per_seed}
    tally.seeds += o.seeds
    tally.failed_seeds += len(short | (named & set(counts)))
    tally.check(f"{o.path}: {len(rows)} rows, expected {o.expected_rows}",
                len(rows) == o.expected_rows)
    tally.check(f"{o.path}: non-finite values", finite)
    tally.check(f"{o.path}: value != sum of terms", sums_ok)

    endpoints_ok = True
    for (seed, task, method, est, lam, tau), value in by_point.items():
        if est != "ensemble" or tau not in (0.0, 1.0):
            continue
        twin = (seed, task, method, "ridge_ft", lam, None) if tau == 1.0 else \
            (seed, task, method, "pretrained", None, None)
        if twin in by_point:
            endpoints_ok &= _close(value, by_point[twin], IDENTITY_RTOL)
    tally.check(f"{o.path}: ensemble endpoints differ from ridge/pretrained", endpoints_ok)

    hits = total = 0
    for seed, task, est, lam, tau, value, se in mc:
        exact = analytic.get((seed, task, est, lam, tau))
        if exact is None or se is None:
            continue
        total += 1
        hits += abs(value - exact) <= MC_Z * se
    if total:
        tally.mc[master_seed] = (hits, total)


def _check_verify(o: Output, rc: int, tally: Tally) -> None:
    tally.seeds += o.seeds
    with open(o.path) as fh:
        rep = json.load(fh)
    taus = [t for s in rep["seeds"] for t in s["tau_star"].values()]
    tally.check(f"{o.path}: {len(rep['seeds'])} seeds, expected {o.seeds}",
                len(rep["seeds"]) == o.seeds)
    tally.check(f"{o.path}: non-finite tau_star or rate",
                all(math.isfinite(v) for v in (*taus, *rep["rates"].values())))
    tally.check(f"{o.path}: orderings or band check failed (exit {rc})", rc == 0)


def check_pass(p: Pass, returncodes: list[int], stderrs: list[str],
               reference: dict | None) -> Tally:
    """Check every file of one pass; ``reference`` maps group names to values."""
    tally = Tally()
    for o, rc, err in zip(p.outputs, returncodes, stderrs):
        if not os.path.exists(o.path) or rc not in (0, 2):
            tally.seeds += o.seeds
            tally.failed_seeds += o.seeds
            tally.check(f"{o.path}: not written (exit {rc})", False)
            continue
        if o.kind == "rows":
            _check_rows(o, read_rows(o.path), stderr_failed_seeds(err), tally,
                        p.master_seed)
        else:
            _check_verify(o, rc, tally)
    for svg in p.svgs:
        try:
            ok = ET.parse(svg).getroot().tag.endswith("svg")
        except (OSError, ET.ParseError):
            ok = False
        tally.check(f"{svg}: not a well-formed SVG", ok)
    if reference is None:
        tally.check(f"no reference values for master seed {p.master_seed}", False)
        return tally
    try:
        got = summaries(p)
    except (OSError, ValueError, KeyError):
        got = {}
    bad = sorted(k for k in reference.keys() | got.keys()
                 if k not in got or k not in reference
                 or not _close(got[k], reference[k], REF_RTOL))
    tally.check(f"reference mismatch at {bad[:3]}", not bad)
    return tally
