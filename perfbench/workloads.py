"""Seeded inputs for the three workloads.

Every workload has a fixed make-up; the seed only picks the exact r and
eps values inside fixed strata, so the cost of a pass barely depends on
the seed while the answers do.  A query is a JSON-ready dict; all
rationals are strings.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

from oracle_spectral import nakano_kernel_is_decidable

WORKLOADS = ("eta-grid", "flow-sweep", "cli-batch")

# Product bases used by the explicit part of flow-sweep and by cli-batch:
# name -> (factors, largest eps the table must cover).
EXPLICIT_FLOW = {"x2": (2, 64), "x4": (4, 64)}
EXPLICIT_CLI = {"c2": (2, 8)}
# Explicit-mode twists lie in (1, R_EXPLICIT_MAX], above kappa/2 = 1, so the
# Type 1 crossings at delta* = 2(r - k)/n spread over the eps range.
R_EXPLICIT_MAX = 12
SPREAD = 0.02  # relative jitter of eps inside its stratum


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _frac_near(rng: random.Random, value: float) -> Fraction:
    """A rational within +-SPREAD of value, with a small odd denominator."""
    den = rng.choice((7, 9, 11, 13))
    target = value * (1 + rng.uniform(-SPREAD, SPREAD))
    return Fraction(max(1, round(target * den)), den)


def _with_denominator(rng: random.Random, den: int, top: int) -> Fraction:
    """k/den in lowest terms with 0 < k < top.  Fixing the denominator per
    slot keeps the size of the exact arithmetic, and so the cost, the same
    for every seed."""
    while True:
        k = rng.randrange(1, top)
        if math.gcd(k, den) == 1:
            return Fraction(k, den)


def _r_small(rng: random.Random, den: int) -> Fraction:
    """A non-integral twist 0 < r < 1 with denominator den."""
    return _with_denominator(rng, den, den)


def _eps_list(rng: random.Random, count: int):
    """count values 0 < eps <= 2 with denominators cycling through 3, 5, 7, 9."""
    return [_with_denominator(rng, den, 2 * den + 1)
            for den in ((3, 5, 7, 9) * count)[:count]]


def _decidable_kernel_input(rng: random.Random, n: int, centre: float):
    """A nakano kernel query (|r| <= 1, eps near centre) that the Nakano
    bound can decide; undecidable inputs (the program rightly answers
    "indeterminate") are redrawn."""
    while True:
        r = Fraction(rng.randrange(-6, 7), 6)
        eps = _frac_near(rng, centre)
        if nakano_kernel_is_decidable(n, r, eps):
            return r, eps


def _geometric_bins(lo: float, hi: float, count: int):
    return [lo * (hi / lo) ** ((i + 0.5) / count) for i in range(count)]


def eta_grid(seed: int):
    """(base, r) groups share eps; every base has r = 0 and +-r pairs.

    Make-up per pass (141 queries): cp1xcp1 7 r x (12 eta + 2 paper_i),
    cp1x4 5 r x (6 eta + 1 paper_i), cp1x6 r = 0 once and +-a twice each,
    cp1x8 r in {0, 1/2, -1/2} once each.  Sorted by cost, the cp1xcp1 eta
    queries hold ranks 15-98 and the cp1x4 eta queries ranks 104-133, so the
    median (rank 71) lies inside the first class and the 90th percentile
    (rank 127) inside the second, clear of every class boundary.
    """
    rng = _rng("eta-grid", seed)
    plan = [  # base, |r| other than 0 (an int, or the denominator of a fraction),
        #         eta per r, paper_i per r
        ("cp1xcp1", (1, 3, 8), 12, 2),
        ("cp1x4", (5, 7), 6, 1),
    ]
    queries = []
    for base, slots, n_eta, n_tp in plan:
        mags = [Fraction(1) if base == "cp1xcp1" and den == 1 else _r_small(rng, den)
                for den in slots]
        for m in [Fraction(0)] + mags:
            mag_eps = _eps_list(rng, n_eta)
            for r in ((m, -m) if m else (m,)):
                for eps in mag_eps:
                    queries.append({"op": "eta", "base": base, "r": str(r),
                                    "eps": str(eps)})
                for eps in mag_eps[:n_tp]:
                    queries.append({"op": "tp", "base": base, "r": str(r),
                                    "eps": str(eps)})
    a = _r_small(rng, 4)
    eps6 = _eps_list(rng, 2)
    queries.append({"op": "eta", "base": "cp1x6", "r": "0", "eps": str(eps6[0])})
    for r in (a, -a):
        for eps in eps6:
            queries.append({"op": "eta", "base": "cp1x6", "r": str(r), "eps": str(eps)})
    eps8 = _eps_list(rng, 1)[0]
    for r in ("0", "1/2", "-1/2"):
        queries.append({"op": "eta", "base": "cp1x8", "r": r, "eps": str(eps8)})
    return queries


def _table_entries(rng: random.Random, n: int, cutoff: int, k_span: int):
    """Laplacian entries above the Nakano bound max(q(k+1), (n-q)(1-k)).

    The fractional part (q+1)/(n+2) differs between degrees, so one
    eigenvalue never repeats across q and every alternating multiplicity
    equals the listed one.
    """
    entries = []
    for q in range(n + 1):
        for k in range(-k_span, k_span + 1):
            bound = max(q * (k + 1), (n - q) * (1 - k))
            if bound > cutoff:
                continue
            shifts = rng.sample(range(0, 6), rng.choice((1, 1, 2)))
            for t in sorted(shifts):
                half = Fraction(bound + t) + Fraction(q + 1, n + 2)
                entries.append((q, k, half, rng.randrange(1, 5)))
    return entries


def write_explicit_configs(workdir: Path, workload: str, seed: int, spec: dict):
    """Write one product_cp1 config and its synthetic spectrum per entry of
    ``spec``; returns {name: (config path, factors, entries)}."""
    rng = _rng(workload + ":tables", seed)
    out = {}
    for name, (factors, eps_max) in spec.items():
        cutoff = math.ceil(Fraction(eps_max, 8)) + 2
        k_span = math.ceil(eps_max * (1 + SPREAD) * (factors + 2) / 2) + R_EXPLICIT_MAX + 4
        entries = _table_entries(rng, factors, cutoff, k_span)
        table = {
            "half_mu_sq_max": str(cutoff),
            "k_min": -k_span,
            "k_max": k_span,
            "entries": [{"q": q, "k": k, "halfMuSq": str(h), "mult": m}
                        for q, k, h, m in entries],
        }
        (workdir / f"{name}_spectrum.json").write_text(json.dumps(table))
        config = {"name": f"bench-{name}", "type": "product_cp1", "factors": factors,
                  "laplacian_table": f"{name}_spectrum.json"}
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(config))
        out[name] = (path, factors, entries)
    hyp = workdir / "hyp.json"
    hyp.write_text(json.dumps({"name": "bench-octic", "type": "hypersurface_general_type",
                               "n": 4, "d": 8}))
    out["hyp"] = (hyp, 4, None)
    return out


def flow_sweep(seed: int, configs: dict):
    """124 queries in three parts.

    Nakano part (68), |r| <= 1: cp1xcp1, cp1x4 and cp1x6 over 5 eps strata
    in [1, 30], one spectral_flow and one kernel_dimension each; 16 kernels
    on cp1x4 near eps = 6 and 16 flows on cp1x4 near eps = 60; a flow and
    a kernel on cp1xcp1 and cp1x4 near eps = 1000 and on cp1x6 near 300.
    The two groups of 16 are plateaus of equal cost on which the median and
    the 90th percentile of the query times fall.  Explicit part (36): the
    generated x2 and x4 tables, 2 r in (1, R_EXPLICIT_MAX] each, 6 strata in
    [1, 64], a flow per stratum and a kernel on every other one.
    Counterexample part (20): hyp:n=4,d=8 at r = 0 over 10 strata in
    [1, 1000], by builtin name and by config file.
    """
    rng = _rng("flow-sweep", seed)
    nakano = [(base, op, centre) for base in ("cp1xcp1", "cp1x4", "cp1x6")
              for centre in _geometric_bins(1, 30, 5) for op in ("sf", "kd")]
    nakano += [("cp1x4", "kd", 6.0)] * 16 + [("cp1x4", "sf", 60.0)] * 16
    nakano += [(base, op, centre) for base, centre in
               (("cp1xcp1", 1000), ("cp1x4", 1000), ("cp1x6", 300)) for op in ("sf", "kd")]
    r_flow = {base: Fraction(rng.randrange(-6, 7), 6) for base in ("cp1xcp1", "cp1x4", "cp1x6")}
    queries = []
    for base, op, centre in nakano:
        if op == "sf":
            r, eps = r_flow[base], _frac_near(rng, centre)
        else:
            r, eps = _decidable_kernel_input(rng, 2 if base == "cp1xcp1" else int(base[-1]),
                                             centre)
        queries.append({"op": op, "base": base, "mode": "nakano", "r": str(r),
                        "eps": str(eps)})
    for name in EXPLICIT_FLOW:
        base = str(configs[name][0])
        for _ in range(2):
            r = 1 + Fraction(rng.randrange(1, R_EXPLICIT_MAX * 4 - 3), 4)
            for i, centre in enumerate(_geometric_bins(1, 64, 6)):
                eps = _frac_near(rng, centre)
                queries.append({"op": "sf", "base": base, "mode": "explicit",
                                "r": str(r), "eps": str(eps)})
                if i % 2:
                    queries.append({"op": "kd", "base": base, "mode": "explicit",
                                    "r": str(r), "eps": str(_frac_near(rng, centre))})
    for centre in _geometric_bins(1, 1000, 10):
        for base in ("hyp:n=4,d=8", str(configs["hyp"][0])):
            queries.append({"op": "cx", "base": base, "mode": "nakano", "r": "0",
                            "eps": str(_frac_near(rng, centre))})
    return queries


def cli_batch(seed: int, configs: dict):
    """52 commands, each run once with --format json and once with
    --format csv (104 invocations): every subcommand, builtin names and
    generated configs, cp1xcp1 and cp1x4 at eps <= 3.  Sorted by cost, the
    4 check-identities invocations come last and the 16 cp1x4 eta
    invocations just before them, so the 90th percentile falls inside that
    group of equal cost and the median among the cheap cp1xcp1 commands."""
    rng = _rng("cli-batch", seed)
    c2 = str(configs["c2"][0])
    hyp = str(configs["hyp"][0])

    def r_val():
        return str(Fraction(rng.randrange(-8, 9), 8))

    def eps_val():
        den = rng.choice((2, 3, 5, 7))
        return str(Fraction(rng.randrange(1, 3 * den + 1), den))

    argvs = []
    for base in ("cp1xcp1",) * 6 + ("cp1x4",) * 8:
        argvs.append(["eta", "--manifold", base, f"--r={r_val()}", f"--eps={eps_val()}"])
    for _ in range(2):
        argvs.append(["eta", "--manifold", c2, "--mode", "explicit",
                      f"--r={1 + Fraction(rng.randrange(1, 8), 4)}", f"--eps={eps_val()}"])
    for _ in range(4):
        argvs.append(["adiabatic-limit", "--manifold", "cp1xcp1", f"--r={r_val()}"])
    for i in range(6):
        argvs.append(["transgression", "--manifold", "cp1xcp1", f"--r={r_val()}",
                      f"--eps={eps_val()}", "--convention", "paper_i" if i % 2 else "real"])
    for i in range(7):
        if i < 3:
            argvs.append(["spectral-flow", "--manifold", "cp1xcp1",
                          f"--r={r_val()}", f"--eps={eps_val()}"])
        else:
            argvs.append(["spectral-flow", "--manifold", c2, "--mode", "explicit",
                          f"--r={1 + Fraction(rng.randrange(1, 8), 4)}",
                          f"--eps={eps_val()}"])
    for base in ("cp1xcp1",) * 4 + ("cp1x4",):
        argvs.append(["aps-index", "--manifold", base, f"--eps={eps_val()}"])
    for i in range(6):
        if i < 3:
            while True:
                r, eps = r_val(), eps_val()
                if nakano_kernel_is_decidable(2, Fraction(r), Fraction(eps)):
                    break
            argvs.append(["kernel-dim", "--manifold", "cp1xcp1", f"--r={r}", f"--eps={eps}"])
        else:
            argvs.append(["kernel-dim", "--manifold", c2, "--mode", "explicit",
                          f"--r={1 + Fraction(rng.randrange(1, 8), 4)}",
                          f"--eps={eps_val()}"])
    argvs.append(["check-identities", "--manifold", "cp1xcp1", f"--r={r_val()}",
                  "--order", "8"])
    argvs.append(["check-identities", "--manifold", "cp1xcp1", f"--r={r_val()}",
                  "--dump-series"])
    for i in range(6):
        argvs.append(["counterexample", "--manifold", "hyp:n=4,d=8" if i < 3 else hyp,
                      f"--eps={eps_val()}"])
    for i, argv in enumerate(argvs):
        if i % 5 == 0 and argv[0] in ("eta", "adiabatic-limit", "transgression"):
            argv += ["--decimal", "6"]
    queries = []
    for argv in argvs:
        for fmt in ("json", "csv"):
            queries.append({"op": "cli", "argv": argv + ["--format", fmt]})
    return queries
