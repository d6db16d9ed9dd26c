"""Command-line front end.

Every command emits a deterministic report (exact rational strings, no
timestamps) as JSON or two-column CSV.  Exit codes: 0 success, 1 config
or math error, 2 indeterminate spectral results.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .catalog import ConfigError, resolve_manifold
from .eta import (
    CONVENTION_PAPER_I,
    CONVENTION_REAL,
    CONVENTIONS,
    a_hat_coefficients,
    adiabatic_limit_eta,
    aps_index,
    aps_terms,
    convention_integral,
    corollary_check,
    eta_invariant,
    eval_at_i,
    horner,
    transgression_forms,
    transgression_raw,
)
from .exact import ZERO, exact_value_to_json, parse_rational, rational_str
from .spectral import (
    IndeterminateSpectralFlow,
    ON_UNKNOWN_SKIP,
    SF_SIGN_PAPER,
    SF_SIGN_STANDARD,
    SpectralModel,
    SpectralWindowError,
    UnknownCohomologyError,
    kernel_dimension,
    spectral_flow,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INDETERMINATE = 2

# Largest --order, which only sizes the series of check-identities --dump-series
# (the classes are always built to order n).  p, p' and eta-hat cost O(order^2)
# rational operations: 0.02 s at order 50, 0.07 s at 100 and 0.4 s at 200 on a
# 2-vCPU Xeon.  The default 2n + 2 is below it on every catalog base (66 on cp1x32).
MAX_SERIES_ORDER = 100

# Largest --decimal digit count.  A decimal field is one integer of about
# digits + (digits of the integer part) digits, refused by rational_str past
# exact.MAX_RATIONAL_DIGITS; this leaves room for the integer part.
MAX_DECIMAL_DIGITS = 1000


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def series_order(text: str) -> int:
    """--order value: an integer no larger than MAX_SERIES_ORDER, refused
    while parsing so that no command builds a series first."""
    order = int(text)
    if order > MAX_SERIES_ORDER:
        raise argparse.ArgumentTypeError(
            f"series order {order} exceeds MAX_SERIES_ORDER = {MAX_SERIES_ORDER}"
        )
    return order


def decimal_digits(text: str) -> int:
    """--decimal value: 0..MAX_DECIMAL_DIGITS, refused while parsing."""
    digits = int(text)
    if not 0 <= digits <= MAX_DECIMAL_DIGITS:
        raise argparse.ArgumentTypeError(
            f"decimal digits {digits} outside 0..MAX_DECIMAL_DIGITS = "
            f"{MAX_DECIMAL_DIGITS}"
        )
    return digits


def _add_common(sp, *, r=False, eps=False, order=False, mode=False,
                convention=False, sf_sign=False):
    sp.add_argument("--manifold", required=True,
                    help="builtin name (cp1xcp1, cp1x4, hyp:n=4,d=8) or config path")
    if r:
        sp.add_argument("--r", default="0", help="twist parameter, exact rational")
    if eps:
        sp.add_argument("--eps", required=True, help="deformation parameter > 0")
    if order:
        sp.add_argument("--order", type=series_order, default=None,
                        help="series order: refused below n; sizes the "
                        "--dump-series output (default 2n+2)")
    if mode:
        sp.add_argument("--mode", choices=["nakano", "explicit"], default="nakano")
    if convention:
        sp.add_argument("--convention", choices=CONVENTIONS,
                        default=CONVENTION_REAL)
    if sf_sign:
        sp.add_argument("--sf-sign", choices=[SF_SIGN_PAPER, SF_SIGN_STANDARD],
                        default=SF_SIGN_PAPER)
    sp.add_argument("--out", default=None, help="write the report to this path")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--decimal", type=decimal_digits, default=None,
                    help="add decimal display fields with this many digits")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand; with ``command``, only that
    subcommand gets its options (the others keep their name and help), since
    each option costs a terminal-size query while it is added."""
    parser = _Parser(prog="etaflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        if command in (None, name):
            _add_common(sp, **options)
            if name == "check-identities":
                sp.add_argument("--dump-series", action="store_true",
                                help="include the characteristic series in the report")
    return parser


def _model_for(entry, mode: str):
    model = entry.model
    if mode == "explicit":
        if model.spectrum is None:
            raise ConfigError(
                "explicit mode needs a 'laplacian_table' in the manifold config"
            )
        return model
    if model.spectrum is not None:
        # nakano mode deliberately ignores a shipped table
        model = SpectralModel(model.name, model.n, model.kappa, model.table)
    return model


def _provenance(entry, args, extra=None):
    block = {
        "schema_version": SCHEMA_VERSION,
        "generator": f"etaflow {__version__}",
        "manifold": entry.name,
    }
    for key in ("mode", "convention", "sf_sign"):
        value = getattr(args, key, None)
        if value is not None:
            block[key] = value
    block.update(extra or {})
    return block


def _decimal_str(value: Fraction, digits: int) -> str:
    scaled = round(value * 10**digits)
    sign = "-" if scaled < 0 else ""
    body = rational_str(abs(scaled)).rjust(digits + 1, "0")
    if digits == 0:
        return sign + body
    return f"{sign}{body[:-digits]}.{body[-digits:]}"


def _add_decimals(result: dict, fields, digits):
    if digits is None:
        return
    for field in fields:
        value = result.get(field)
        if isinstance(value, str):
            result[field + "_decimal"] = _decimal_str(parse_rational(value), digits)


def _class_base(entry, order):
    """The entry's base, once an --order below its complex dimension n is
    refused: the classes live in Q[delta][c]/(c^{n+1}) and are always built
    to order n, so a lower order names an inexact truncation."""
    manifold = entry.require_manifold()
    if order is not None and order < manifold.n:
        raise ValueError(f"series order {order} is below the complex dimension "
                         f"n = {manifold.n} of {manifold.name}")
    return manifold


def _cmd_eta(args):
    entry = resolve_manifold(args.manifold)
    manifold = _class_base(entry, args.order)
    model = _model_for(entry, args.mode)
    res = eta_invariant(
        manifold, model, parse_rational(args.r), parse_rational(args.eps),
        convention=args.convention, sf_sign=args.sf_sign,
    )
    result = res.to_json()
    _add_decimals(result, ("total", "adiabatic_term", "transgression_term"),
                  args.decimal)
    code = EXIT_OK if res.flow_report.is_exact else EXIT_INDETERMINATE
    return result, _provenance(entry, args, {"convention_constant": "1"}), code


def _cmd_adiabatic(args):
    entry = resolve_manifold(args.manifold)
    manifold = _class_base(entry, args.order)
    r = parse_rational(args.r)
    value = adiabatic_limit_eta(manifold, r)
    result = {"r": rational_str(r), "value": rational_str(value)}
    _add_decimals(result, ("value",), args.decimal)
    return result, _provenance(entry, args), EXIT_OK


def _cmd_transgression(args):
    entry = resolve_manifold(args.manifold)
    manifold = _class_base(entry, args.order)
    r = parse_rational(args.r)
    eps = parse_rational(args.eps)
    value = transgression_raw(manifold, r, eps, args.convention)
    result = {
        "r": rational_str(r),
        "eps": rational_str(eps),
        "convention": args.convention,
        "value": exact_value_to_json(value),
    }
    _add_decimals(result, ("value",), args.decimal)
    return result, _provenance(entry, args, {"convention_constant": "1"}), EXIT_OK


def _cmd_spectral_flow(args):
    entry = resolve_manifold(args.manifold)
    model = _model_for(entry, args.mode)
    report = spectral_flow(
        model, parse_rational(args.r), parse_rational(args.eps),
        sf_sign=args.sf_sign,
    )
    code = EXIT_OK if report.is_exact else EXIT_INDETERMINATE
    return report.to_json(), _provenance(entry, args), code


def _cmd_aps_index(args):
    entry = resolve_manifold(args.manifold)
    eps = parse_rational(args.eps)
    n = entry.model.n
    table = entry.model.table
    value = aps_index(n, table, eps)
    contributing = [
        {"p": p, "k": k, "h": h} for p, k, h in aps_terms(n, table, eps) if h
    ]
    result = {
        "eps": rational_str(eps),
        "index": rational_str(value),
        "contributing": contributing,
        "resonant": bool(contributing),
    }
    _add_decimals(result, ("index",), args.decimal)
    return result, _provenance(entry, args), EXIT_OK


def _cmd_kernel_dim(args):
    entry = resolve_manifold(args.manifold)
    model = _model_for(entry, args.mode)
    r = parse_rational(args.r)
    eps = parse_rational(args.eps)
    value = kernel_dimension(model, r, eps)
    result = {
        "r": rational_str(r),
        "eps": rational_str(eps),
        "kernel_dimension": value,
    }
    return result, _provenance(entry, args), EXIT_OK


def _identity_suite(manifold, r):
    """Deterministic symbolic self-checks on one catalog manifold."""
    from .series import (class_product, constant_class, eta_hat_series_from_alpha,
                         eta_hat_series_integer, exp_class, series_eta_hat, series_p,
                         series_p_prime)
    n = manifold.n
    c = constant_class((0, 1) + (0,) * (n - 1))
    checks = []
    # read from the reference memos, which corollary_check shares
    omega0, omega2, w = transgression_forms(manifold)  # w = Omega_2 e^{Omega_0}
    ahat = a_hat_coefficients(manifold)

    def scaled(x, s):
        return tuple(tuple(a * s for a in row) for row in x)

    def integral(x):  # over X: only the c^n row survives
        return tuple(a * manifold.top_integral for a in x[n])

    def check(name, fn):
        try:
            ok = bool(fn())
            note = ""
        except Exception as exc:  # report, never crash the suite
            ok = False
            note = f"{type(exc).__name__}: {exc}"
        item = {"name": name, "pass": ok}
        if note:
            item["note"] = note
        checks.append(item)

    one = constant_class((1,) + (0,) * n)
    check("exp_inverse",
          lambda: class_product(exp_class(c), exp_class(scaled(c, -1))) == one)
    check("series_p_derivative",
          lambda: series_p_prime(12)
          == tuple(j * a for j, a in enumerate(series_p(13)))[1:])
    check("eta_hat_integer_is_average_of_one_sided_limits",
          lambda: tuple(2 * a for a in eta_hat_series_integer(12))
          == tuple(a + b for a, b in zip(eta_hat_series_from_alpha(1, 12),
                                         eta_hat_series_from_alpha(-1, 12))))
    check("eta_hat_at_r_constant_term",
          lambda: series_eta_hat(r, 0)[0]
          == (0 if r.denominator == 1 else 1 - 2 * (r - math.floor(r))))
    check("a_hat_degrees_divisible_by_four",
          lambda: all(k % 2 == 0 for k, a in enumerate(ahat) if a))
    check("transgression_derivative_real",
          lambda: tuple(tuple(d * a for d, a in enumerate(row))[1:] + (ZERO,)
                        for row in omega0)
          == class_product(scaled(c, 2), omega2))
    two_c_w = class_product(scaled(c, 2), w)

    def derivative_paper_i():
        # paper_i turns Omega_0 into Omega_0(i delta), of derivative
        # 2c i Omega_2(i delta): the paper_i integral over [0, 1] of the top
        # degree of 2c Omega_2 e^{Omega_0} is P(i) - P(0), P = top e^{Omega_0}
        lhs = convention_integral(integral(two_c_w), 1, CONVENTION_PAPER_I)
        top = integral(exp_class(omega0))
        return lhs == eval_at_i((ZERO,) + top[1:], 1)

    check("transgression_derivative_paper_i", derivative_paper_i)

    def ftc(rr, ee):
        erc = exp_class(scaled(c, rr))
        lhs = convention_integral(integral(class_product(two_c_w, erc)), ee)
        at_eps = exp_class(constant_class([horner(row, ee) for row in omega0]))
        difference = tuple((row[0] - a,) + row[1:] for row, a in zip(at_eps, ahat))
        return lhs == integral(class_product(difference, erc))[0]  # delta-free

    for rr, ee in ((Fraction(0), Fraction(1, 3)), (Fraction(1, 2), Fraction(1))):
        check(f"fundamental_theorem_r={rr}_eps={ee}",
              lambda rr=rr, ee=ee: ftc(rr, ee))

    if manifold.n % 2 == 0:
        check("corollary_parity",
              lambda: corollary_check(manifold).both_terms_zero)
    return checks


def _cmd_check_identities(args):
    from .series import default_order, series_eta_hat, series_p, series_p_prime
    entry = resolve_manifold(args.manifold)
    manifold = _class_base(entry, args.order)
    r = parse_rational(args.r)
    checks = _identity_suite(manifold, r)
    result = {"checks": checks, "all_pass": all(c["pass"] for c in checks)}
    if args.dump_series:
        order = default_order(manifold.n) if args.order is None else args.order
        result["series"] = {
            "order": order,
            "p": [rational_str(a) for a in series_p(order)],
            "p_prime": [rational_str(a) for a in series_p_prime(order)],
            "eta_hat": [rational_str(a) for a in series_eta_hat(r, order)],
            "r": rational_str(r),
        }
    code = EXIT_OK if result["all_pass"] else EXIT_ERROR
    return result, _provenance(entry, args), code


def _cmd_counterexample(args):
    entry = resolve_manifold(args.manifold)
    report = spectral_flow(
        entry.model, parse_rational(args.r), parse_rational(args.eps),
        sf_sign=args.sf_sign, on_unknown=ON_UNKNOWN_SKIP,
    )
    result = report.to_json()
    result["crossing_found"] = bool(report.crossings)
    result["spectral_flow_nonzero"] = report.total_paper != 0
    if report.partial:
        result["note"] = (
            "cohomology table is partial; totals cover tabulated entries only"
        )
    return result, _provenance(entry, args), EXIT_OK


# each subcommand's handler, help and the options of _add_common it takes
_COMMANDS = {
    "eta": (_cmd_eta, "full eta-invariant decomposition",
            dict(r=True, eps=True, order=True, mode=True, convention=True, sf_sign=True)),
    "adiabatic-limit": (_cmd_adiabatic, "small-eps limit term", dict(r=True, order=True)),
    "transgression": (_cmd_transgression, "transgression term",
                      dict(r=True, eps=True, order=True, convention=True)),
    "spectral-flow": (_cmd_spectral_flow, "certified spectral flow",
                      dict(r=True, eps=True, mode=True, sf_sign=True)),
    "aps-index": (_cmd_aps_index, "boundary index on the disc bundle", dict(eps=True)),
    "kernel-dim": (_cmd_kernel_dim, "kernel dimension at delta = eps",
                   dict(r=True, eps=True, mode=True)),
    "check-identities": (_cmd_check_identities, "run the symbolic identity suite",
                         dict(r=True, order=True)),
    "counterexample": (_cmd_counterexample, "exhibit the general-type crossing",
                       dict(r=True, eps=True, sf_sign=True)),
}


def _flatten(value, prefix=""):
    rows = []
    if isinstance(value, dict) and value:
        for key in sorted(value):
            rows.extend(_flatten(value[key], f"{prefix}{key}."))
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            rows.extend(_flatten(item, f"{prefix}{i}."))
    else:
        # empty containers serialize as JSON leaves so CSV round-trips
        rows.append((prefix[:-1], json.dumps(value)))
    return rows


def payload_to_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in _flatten(payload):
        writer.writerow([key, value])
    return buf.getvalue()


def payload_to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_report(text: str, fmt: str = "json") -> dict:
    """Parse a report back into the payload dict (JSON and CSV agree)."""
    if fmt == "json":
        return json.loads(text, parse_float=parse_rational)
    root = {}
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["key", "value"]:
        raise ValueError("not an etaflow CSV report")
    entries = [(row[0].split("."), json.loads(row[1], parse_float=parse_rational))
               for row in reader]
    for path, value in entries:
        node = root
        for i, seg in enumerate(path[:-1]):
            node = node.setdefault(seg, {})
        node[path[-1]] = value

    def listify(node):
        if not isinstance(node, dict):
            return node
        node = {k: listify(v) for k, v in node.items()}
        if node and all(k.isdigit() for k in node):
            return [node[k] for k in sorted(node, key=int)]
        return node

    return listify(root)


def main(argv=None) -> int:
    # "--r -1/2" as "--r=-1/2" (and --eps): argparse takes -1/2 for an option
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    for i in range(len(argv) - 1, 0, -1):
        flag, value = argv[i - 1:i + 1]
        if flag in ("--r", "--eps") and value[:1] == "-" and value[1:2].isdigit():
            argv[i - 1:i + 1] = [f"{flag}={value}"]
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        print(f"etaflow: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        result, provenance, code = _COMMANDS[args.command][0](args)
        payload = {"command": args.command, "provenance": provenance, "result": result}
        text = (payload_to_json if args.format == "json" else payload_to_csv)(payload)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except IndeterminateSpectralFlow as exc:
        print(f"etaflow: indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (ConfigError, UnknownCohomologyError, SpectralWindowError,
            ValueError, OSError) as exc:
        print(f"etaflow: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
