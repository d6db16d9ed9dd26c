"""Answer checks against the independent oracles and the paper's properties.

``Checker`` collects one message per wrong answer in ``problems``.  Nothing
here is compared with a stored copy of earlier output.
"""

from __future__ import annotations

from fractions import Fraction

import oracle_class as oc
import oracle_spectral as osp

KAPPA_HALF = 1  # kappa = 2 on every product of projective lines


def base_factors(base: str) -> int:
    return 2 if base == "cp1xcp1" else int(base.removeprefix("cp1x"))


class Checker:
    """Holds the oracle state of one run: the generated tables by path."""

    def __init__(self, configs: dict):
        self.tables = {str(path): osp.ExplicitTable(n, entries)
                       for path, n, entries in configs.values() if entries}
        self.problems = []

    def expect(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)

    # -- eta-grid --------------------------------------------------------------

    def eta_grid(self, queries, answers):
        seen = {}
        for query, ans in zip(queries, answers):
            n = base_factors(query["base"])
            r, eps = Fraction(query["r"]), Fraction(query["eps"])
            tag = f"{query['op']} {query['base']} r={r} eps={eps}"
            if query["op"] == "tp":
                re, im = oc.transgression_paper_i(n, r, eps)
                self.expect(ans == {"re": str(re), "im": str(im)}, f"{tag}: {ans}")
                continue
            ad = oc.adiabatic(n, r)
            tr = oc.transgression(n, r, eps)
            self.expect(ans["adiabatic_term"] == str(ad), f"{tag}: adiabatic")
            self.expect(ans["transgression_term"] == str(tr), f"{tag}: transgression")
            # |r| <= kappa/2: the flow vanishes (nakano certificate)
            self.expect(ans["spectral_flow"] == 0 and ans["flow"]["indeterminate"] == [],
                        f"{tag}: flow")
            self.expect(ans["total"] == str(ad + tr), f"{tag}: total")
            seen[(query["base"], r, eps)] = (Fraction(ans["adiabatic_term"]),
                                             Fraction(ans["transgression_term"]))
        self._class_properties(seen)

    def _class_properties(self, seen):
        """r -> -r antisymmetry and vanishing at r = 0, from program output."""
        bases = {base for base, _, _ in seen}
        for base in bases:
            pairs = zeros = 0
            for (b, r, eps), (ad, tr) in seen.items():
                if b != base:
                    continue
                if r == 0:
                    zeros += 1
                    self.expect(ad == 0 and tr == 0, f"{base} r=0 eps={eps}: nonzero")
                elif r > 0 and (b, -r, eps) in seen:
                    pairs += 1
                    ad2, tr2 = seen[(b, -r, eps)]
                    self.expect(ad2 == -ad and tr2 == -tr,
                                f"{base} r=+-{r} eps={eps}: not antisymmetric")
            self.expect(pairs > 0 and zeros > 0, f"{base}: no property inputs")

    # -- flow-sweep ------------------------------------------------------------

    def flow_sweep(self, queries, answers):
        groups = {}
        for query, ans in zip(queries, answers):
            r, eps = Fraction(query["r"]), Fraction(query["eps"])
            tag = f"{query['op']} {query['base']} {query['mode']} r={r} eps={eps}"
            table = self.tables.get(query["base"])
            if query["op"] == "kd":
                if table is not None:
                    want = table.kernel(r, eps)
                else:
                    n = base_factors(query["base"])
                    self.expect(osp.nakano_kernel_is_decidable(n, r, eps), f"{tag}: undecidable")
                    want = osp.type1_kernel(n, r, eps)
                self.expect(ans == want, f"{tag}: kernel {ans} != {want}")
                continue
            self.expect(ans["indeterminate"] == [], f"{tag}: indeterminate")
            if query["op"] == "cx":
                # the twist k0 = (n + 2 - d)/2 = -1 crosses at delta = -2 k0 / n = 1/2
                crosses = eps > Fraction(1, 2)
                at_half = [c for c in ans["crossings"] if c["delta_star"] == "1/2"]
                self.expect(len(at_half) == crosses and ans["total_paper"] == -crosses
                            and ans["partial"], f"{tag}: counterexample crossing")
            elif table is not None:
                want = table.flow(r, eps)
                self.expect(ans["total_paper"] == want, f"{tag}: flow {ans['total_paper']} != {want}")
            else:
                n = base_factors(query["base"])
                self.expect(abs(r) <= KAPPA_HALF and ans["total_paper"] == 0
                            and osp.type1_flow(n, r, eps) == 0, f"{tag}: nakano flow")
            groups.setdefault((query["base"], query["mode"], r), []).append((eps, ans))
        self._flow_additivity(groups)

    def _flow_additivity(self, groups):
        """SF(eps1) = signed sum of the crossings with delta* < eps1 in the
        report at a larger eps2."""
        for key, reports in groups.items():
            reports.sort(key=lambda item: item[0])
            for i, (eps1, small) in enumerate(reports):
                for eps2, big in reports[i + 1:]:
                    if eps2 <= eps1:
                        continue
                    limit = osp.sympy.Rational(eps1)
                    partial = sum(c["direction"] * c["multiplicity"] for c in big["crossings"]
                                  if osp.exact_from_json(c["delta_star"]) < limit)
                    self.expect(partial == small["total_paper"],
                                f"{key} eps {eps1} < {eps2}: flow not additive")

    # -- cli-batch -------------------------------------------------------------

    def cli_result(self, argv, payload):
        """Check one CLI payload against the oracles."""
        opts = {}
        for i, token in enumerate(argv):
            if token.startswith("--"):
                flag, eq, value = token.partition("=")
                opts[flag] = value if eq else (argv[i + 1] if i + 1 < len(argv) else "")
        cmd = argv[0]
        base = opts["--manifold"]
        res = payload["result"]
        tag = " ".join(argv)
        table = self.tables.get(base)
        n = table.n if table is not None else (4 if base.startswith("hyp") or
                                               base.endswith("hyp.json") else base_factors(base))
        r = Fraction(opts.get("--r", "0"))
        eps = Fraction(opts["--eps"]) if "--eps" in opts else None
        self.expect(payload["command"] == cmd, f"{tag}: command")

        def flow_at(r, eps):
            return table.flow(r, eps) if table is not None else 0

        if cmd == "eta":
            ad, tr = oc.adiabatic(n, r), oc.transgression(n, r, eps)
            sf = flow_at(r, eps)
            self.expect(res["adiabatic_term"] == str(ad) and res["transgression_term"] == str(tr)
                        and res["spectral_flow"] == sf and res["total"] == str(ad + tr + 2 * sf),
                        f"{tag}: eta")
        elif cmd == "adiabatic-limit":
            self.expect(res["value"] == str(oc.adiabatic(n, r)), f"{tag}: adiabatic")
        elif cmd == "transgression":
            if opts.get("--convention") == "paper_i":
                re, im = oc.transgression_paper_i(n, r, eps)
                want = {"re": str(re), "im": str(im)} if im else str(re)
            else:
                want = str(oc.transgression(n, r, eps))
            self.expect(res["value"] == want, f"{tag}: transgression")
        elif cmd == "spectral-flow":
            self.expect(res["total_paper"] == flow_at(r, eps), f"{tag}: flow")
        elif cmd == "aps-index":
            total = 0
            for p in range(n + 1):
                k = -eps * Fraction(2 * p - n, 2)
                if k.denominator == 1:
                    total += osp.kunneth_h(n, p, int(k))
            self.expect(res["index"] == str(-Fraction(total, 2)), f"{tag}: aps index")
        elif cmd == "kernel-dim":
            want = table.kernel(r, eps) if table is not None else osp.type1_kernel(n, r, eps)
            self.expect(res["kernel_dimension"] == want, f"{tag}: kernel")
        elif cmd == "check-identities":
            self.expect(res["all_pass"] is True, f"{tag}: identities")
        elif cmd == "counterexample":
            crosses = eps > Fraction(1, 2)
            at_half = [c for c in res["crossings"] if c["delta_star"] == "1/2"]
            self.expect(len(at_half) == crosses and res["total_paper"] == -crosses
                        and res["crossing_found"] == res["spectral_flow_nonzero"] == crosses,
                        f"{tag}: counterexample")
        else:
            self.problems.append(f"{tag}: unknown command")
