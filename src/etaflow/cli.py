"""Command-line front end.

Every command emits a deterministic report (exact rational strings, no
timestamps) as JSON or two-column CSV.  Exit codes: 0 success, 1 config
or math error, 2 indeterminate spectral results.
"""

from __future__ import annotations

import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .catalog import ConfigError, os_refusal, resolve_manifold
from .eta import (
    CONVENTION_REAL,
    CONVENTIONS,
    adiabatic_limit_eta,
    aps_index,
    aps_terms,
    eta_invariant,
    transgression_raw,
)
from .exact import MAX_QUOTED, exact_value_to_json, parse_rational, quoted, rational_str
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


def _int_value(text: str, name: str) -> int:
    """An integer option value, refused in argparse's words with at most
    a quoted head of the text."""
    try:
        return int(text)
    except ValueError:
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(
            f"invalid {name} value: {quoted(text)}") from None


def series_order(text: str) -> int:
    """--order value: an integer no larger than MAX_SERIES_ORDER, refused
    while parsing so that no command builds a series first."""
    order = _int_value(text, "series_order")
    if order > MAX_SERIES_ORDER:
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(f"series order {quoted(order, str)} exceeds "
                                f"MAX_SERIES_ORDER = {MAX_SERIES_ORDER}")
    return order


def decimal_digits(text: str) -> int:
    """--decimal value: 0..MAX_DECIMAL_DIGITS, refused while parsing."""
    digits = _int_value(text, "decimal_digits")
    if not 0 <= digits <= MAX_DECIMAL_DIGITS:
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(
            f"decimal digits {quoted(digits, str)} outside 0..MAX_DECIMAL_DIGITS = "
            f"{MAX_DECIMAL_DIGITS}"
        )
    return digits


# every option once, in help order: name -> (default, choices, converter,
# required, help); a default of False makes a flag that takes no value
_OPTIONS = {
    "manifold": (None, None, None, True,
                 "builtin name (cp1xcp1, cp1x4, hyp:n=4,d=8) or config path"),
    "r": ("0", None, None, False, "twist parameter, exact rational"),
    "eps": (None, None, None, True, "deformation parameter > 0"),
    "order": (None, None, series_order, False, "series order: refused below n; sizes "
              "the --dump-series output (default 2n+2)"),
    "mode": ("nakano", ("nakano", "explicit"), None, False, None),
    "convention": (CONVENTION_REAL, CONVENTIONS, None, False, None),
    "sf-sign": (SF_SIGN_PAPER, (SF_SIGN_PAPER, SF_SIGN_STANDARD), None, False, None),
    "out": (None, None, None, False, "write the report to this path"),
    "format": ("json", ("json", "csv"), None, False, None),
    "decimal": (None, None, decimal_digits, False,
                "add decimal display fields with this many digits"),
    "dump-series": (False, None, None, False,
                    "include the characteristic series in the report"),
}


def _options(*own):
    """A subcommand's options in help order: its ``own`` and the four that
    every subcommand takes."""
    return tuple(name for name in _OPTIONS
                 if name in own or name in ("manifold", "out", "format", "decimal"))


def build_parser():
    """The argparse parser of every subcommand, built from ``_OPTIONS``.  It
    parses what ``_read_args`` declines and writes help and usage errors."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise CliError(message)

    parser = _Parser(prog="etaflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, names) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        for name in names:
            default, choices, convert, required, help_text = _OPTIONS[name]
            if default is False:
                sp.add_argument(f"--{name}", action="store_true", help=help_text)
            else:
                sp.add_argument(f"--{name}", default=default, choices=choices,
                                type=convert, required=required, help=help_text)
    return parser


def _bounded(message: str, argv) -> str:
    """An argparse refusal with each long text that it echoes from ``argv``
    quoted (``exact.quoted``): the leftover tokens that it lists as
    unrecognized, taken whole, and otherwise a token, its value after '='
    or its tail after a short option (-hX), as repr or as text."""
    head = "unrecognized arguments: "
    if message.startswith(head):
        return head + quoted(message[len(head):], str)
    for token in argv:
        for text in (token, token.partition("=")[2], token[2:]):
            if len(text) > MAX_QUOTED:
                message = message.replace(repr(text), quoted(text))
                message = message.replace(text, quoted(text, str))
    return message


def _read_args(argv):
    """The attributes that ``build_parser().parse_args(argv)`` gives a
    well-formed command line: a known command, then ``--name value`` or
    ``--name=value`` tokens of its options, each name exact.  None for
    anything else (help, an abbreviation, ``--``, a separate value starting
    with '-', a bad or missing value), which argparse then parses or
    reports; so argparse is imported only for those."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    names, given, tokens = _COMMANDS[argv[0]][2], {}, iter(argv[1:])
    for token in tokens:
        option, eq, value = token.partition("=")
        if option[:2] != "--" or option[2:] not in names:
            return None
        default, choices, convert, _, _ = _OPTIONS[option[2:]]
        if default is False:
            if eq:
                return None
            value = True
        elif not eq:
            value = next(tokens, "-")
            if value[:1] == "-":
                return None
        if convert is not None:
            try:
                value = convert(value)
            except Exception:  # ValueError, or ArgumentTypeError from argparse
                return None
        if choices is not None and value not in choices:
            return None
        given[option[2:]] = value
    if any(_OPTIONS[name][3] and name not in given for name in names):
        return None
    values = {name.replace("-", "_"): given.get(name, _OPTIONS[name][0]) for name in names}
    return SimpleNamespace(command=argv[0], **values)


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
        model = SpectralModel(model.n, model.kappa, model.table, manifold=model.manifold)
    return model


def _provenance(entry, args):
    """The report's provenance; a command with --convention also names N = 1."""
    block = {
        "schema_version": SCHEMA_VERSION,
        "generator": f"etaflow {__version__}",
        "manifold": entry.name,
    }
    for key in ("mode", "convention", "sf_sign"):
        value = getattr(args, key, None)
        if value is not None:
            block[key] = value
    if "convention" in block:
        block["convention_constant"] = "1"
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
    manifold = entry.manifold
    if manifold is None:
        raise ConfigError(f"{quoted(entry.name)} has no characteristic-class data (general-type "
                          "entries support only the spectral operations)")
    if order is not None and order < manifold.n:
        raise ValueError(f"series order {order} is below the complex dimension "
                         f"n = {manifold.n} of {manifold.name}")
    return manifold


def _cmd_eta(args, entry):
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
    return result, code


def _cmd_adiabatic(args, entry):
    manifold = _class_base(entry, args.order)
    r = parse_rational(args.r)
    result = {"r": rational_str(r)}  # an r too long to print is refused first
    result["value"] = rational_str(adiabatic_limit_eta(manifold, r))
    _add_decimals(result, ("value",), args.decimal)
    return result, EXIT_OK


def _cmd_transgression(args, entry):
    manifold = _class_base(entry, args.order)
    r = parse_rational(args.r)
    eps = parse_rational(args.eps)
    if eps >= 0:  # else transgression_raw refuses eps, before it evaluates
        # an r or eps too long to print is refused before evaluating
        result = {"r": rational_str(r), "eps": rational_str(eps)}
    value = transgression_raw(manifold, r, eps, args.convention)
    result.update(convention=args.convention, value=exact_value_to_json(value))
    _add_decimals(result, ("value",), args.decimal)
    return result, EXIT_OK


def _cmd_spectral_flow(args, entry):
    model = _model_for(entry, args.mode)
    report = spectral_flow(
        model, parse_rational(args.r), parse_rational(args.eps),
        sf_sign=args.sf_sign,
    )
    code = EXIT_OK if report.is_exact else EXIT_INDETERMINATE
    return report.to_json(), code


def _cmd_aps_index(args, entry):
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
    return result, EXIT_OK


def _cmd_kernel_dim(args, entry):
    model = _model_for(entry, args.mode)
    r = parse_rational(args.r)
    eps = parse_rational(args.eps)
    value = kernel_dimension(model, r, eps)
    result = {
        "r": rational_str(r),
        "eps": rational_str(eps),
        "kernel_dimension": value,
    }
    return result, EXIT_OK


def _cmd_check_identities(args, entry):
    from .series import (_identity_suite, default_order, series_eta_hat, series_p,
                         series_p_prime)
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
    return result, code


def _cmd_counterexample(args, entry):
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
    return result, EXIT_OK


# each subcommand's handler, (args, entry) -> (result, exit code), its help and options
_COMMANDS = {
    "eta": (_cmd_eta, "full eta-invariant decomposition",
            _options("r", "eps", "order", "mode", "convention", "sf-sign")),
    "adiabatic-limit": (_cmd_adiabatic, "small-eps limit term", _options("r", "order")),
    "transgression": (_cmd_transgression, "transgression term",
                      _options("r", "eps", "order", "convention")),
    "spectral-flow": (_cmd_spectral_flow, "certified spectral flow",
                      _options("r", "eps", "mode", "sf-sign")),
    "aps-index": (_cmd_aps_index, "boundary index on the disc bundle", _options("eps")),
    "kernel-dim": (_cmd_kernel_dim, "kernel dimension at delta = eps",
                   _options("r", "eps", "mode")),
    "check-identities": (_cmd_check_identities, "run the symbolic identity suite",
                         _options("r", "order", "dump-series")),
    "counterexample": (_cmd_counterexample, "exhibit the general-type crossing",
                       _options("r", "eps", "sf-sign")),
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


def _printable(value):
    """Refuse, as ``rational_str`` refuses a rational, an integer anywhere in
    ``value`` of more than exact.MAX_RATIONAL_DIGITS digits: below Python's
    own limit, and with a message that names this one."""
    if isinstance(value, int):
        rational_str(value, 1)
    elif isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            _printable(item)


def payload_to_csv(payload: dict) -> str:
    import csv

    _printable(payload)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in _flatten(payload):
        writer.writerow([key, value])
    return buf.getvalue()


def payload_to_json(payload: dict) -> str:
    _printable(payload)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_report(text: str, fmt: str = "json") -> dict:
    """Parse a report back into the payload dict (JSON and CSV agree)."""
    if fmt == "json":
        return json.loads(text, parse_float=parse_rational)
    import csv

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
    for i in range(len(argv) - 1, 0, -1):
        flag, value = argv[i - 1:i + 1]
        if flag in ("--r", "--eps") and value[:1] == "-" and value[1:2].isdigit():
            argv[i - 1:i + 1] = [f"{flag}={value}"]
    args = _read_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except CliError as exc:
            print(f"etaflow: {_bounded(str(exc), argv)}", file=sys.stderr)
            return EXIT_ERROR
    try:
        entry = resolve_manifold(args.manifold)
        result, code = _COMMANDS[args.command][0](args, entry)
        payload = {"command": args.command, "provenance": _provenance(entry, args),
                   "result": result}
        text = (payload_to_json if args.format == "json" else payload_to_csv)(payload)
        if args.out:
            try:
                Path(args.out).write_text(text)
            except OSError as exc:
                print(f"etaflow: {os_refusal('write report', args.out, exc)}",
                      file=sys.stderr)
                return EXIT_ERROR
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
