"""Catalog of base manifolds and their spectral data.

Two families are built in: products of projective lines (Fano, spin, any
positive even number of factors up to MAX_CP1_FACTORS) with the
polarization of multidegree (1, ..., 1),
and general-type hypersurfaces of even degree d > n + 2 in P^{n+1}, which
carry the counterexample twist k0 = (n + 2 - d)/2 < 0.  Line-bundle
cohomology on the products comes from the one-dimensional dimension count
combined with the Kunneth rule; hypersurface cohomology is deliberately
partial (only the constants in twist k0 are asserted).
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

from .exact import MAX_RATIONAL_DIGITS, Record, as_fraction, parse_rational, quoted
from .spectral import (
    CohomologyTable,
    LaplacianSpectrum,
    SpectralModel,
    UnknownCohomologyError,
    _scaled_bound,
)


# Largest builtin (P^1)^n; its default check-identities series order
# 2n + 2 = 66 stays below cli.MAX_SERIES_ORDER.  On a 2-vCPU Xeon its class
# side is built once, from e^{Omega_0} in integers, in 3-4 ms, after 0.2-0.3
# ms for the 34 Bernoulli numbers; each (r, eps) then takes about 0.04 ms for
# the adiabatic limit and 0.1 ms for the transgression.  `adiabatic-limit
# --manifold cp1x32` takes about 0.09 s as a whole process, most of it
# interpreter start.
MAX_CP1_FACTORS = 32

# Largest builtin or configured hypersurface dimension n.  `counterexample`
# lists one skipped entry per q and run of unknown k, so its report grows
# linearly in n and not with eps: about 3.4 KB at n = 32, 30 KB at n = 400.
MAX_HYPERSURFACE_DIM = 32


class ConfigError(ValueError):
    """A manifold configuration or data file is invalid."""


class TableValidationError(ConfigError):
    """A Laplacian table entry violates schema or curvature bounds."""


def cohomology_line_cp1(d: int):
    """(h^0, h^1) of the degree-d line bundle on the projective line."""
    h0 = d + 1 if d >= 0 else 0
    h1 = -d - 1 if d <= -2 else 0
    return h0, h1


class KunnethCohomology(CohomologyTable):
    """h^{q,k} for (P^1)^factors with the twist K^{1/2} (x) L^k, which
    restricts to degree k - 1 on every factor.  Valid for every k."""

    def __init__(self, factors: int):
        self.factors = factors
        self.name = f"kunneth[(P1)^{factors}]"

    def h(self, q: int, k: int) -> int:
        if not 0 <= q <= self.factors:
            return 0
        h0, h1 = cohomology_line_cp1(k - 1)
        return math.comb(self.factors, q) * h0 ** (self.factors - q) * h1**q

    def k_support(self, q: int, lo: int, hi: int) -> range:
        # h^0 needs k >= 1 and h^1 needs k <= -1, so only q = 0 and
        # q = factors carry cohomology
        if q == 0:
            return range(max(lo, 1), hi + 1)
        if q == self.factors:
            return range(lo, min(hi, -1) + 1)
        return range(0)


class PartialCohomology(CohomologyTable):
    """Explicitly partial table: anything not listed is unknown, and the
    listed values may be lower bounds (flagged)."""

    complete = False

    def __init__(self, name: str, entries: dict, lower_bounds=()):
        self.name = name
        self.entries = dict(entries)
        self.lower_bounds = set(lower_bounds)

    def h(self, q: int, k: int) -> int:
        try:
            return self.entries[(q, k)]
        except KeyError:
            raise UnknownCohomologyError(
                f"h^{{{q},{quoted(k, str)}}} is not tabulated for {quoted(self.name)}"
            ) from None

    def is_known(self, q: int, k: int) -> bool:
        return (q, k) in self.entries

    def known_ks(self, q: int, lo: int, hi: int) -> list:
        """The k in lo..hi with h^{q,k} tabulated, ascending."""
        return sorted(k for j, k in self.entries if j == q and lo <= k <= hi)

    def is_lower_bound(self, q: int, k: int) -> bool:
        return (q, k) in self.lower_bounds


class ManifoldSpec(Record):
    """Base manifold data for the characteristic-class side.

    The integrands depend on X only through the polarization class c and
    the power sums of the Chern roots x_i of the holomorphic tangent
    bundle, which must be multiples of powers of c:
    sum_i x_i^k = power_sums[k] * c^k for k = 0..n (power_sums[0] = n).
    Every class then lives in Q[delta][c]/(c^{n+1}) (see ``series``), and
    ``top_integral``, the integral of c^n over X, is a nonzero rational;
    ``kappa`` is the Ricci lower bound (None marks a non-Fano entry).  A
    spec is immutable and hashed once: it keys the memos of ``eta``.
    """

    __slots__ = ("_hash",)  # outside __dict__, so equality and repr skip it

    def __init__(self, name: str, n: int, top_integral: Fraction,
                 power_sums: tuple, kappa: Fraction | None):
        if n < 1:
            raise ValueError("complex dimension must be >= 1")
        if len(power_sums) != n + 1:
            raise ValueError("need one power sum for each k = 0..n")
        top_integral = as_fraction(top_integral)
        if top_integral == 0:
            raise ValueError("top integral must be nonzero")
        self.__dict__.update(name=name, n=n, top_integral=top_integral,
                             power_sums=power_sums, kappa=kappa)
        object.__setattr__(self, "_hash", hash(tuple(self.__dict__.values())))

    def __setattr__(self, name, value):
        raise AttributeError("ManifoldSpec is immutable")

    def __hash__(self):
        return self._hash


class HypersurfaceSpec(Record):
    """Even-degree hypersurface in P^{n+1} with d > n + 2 (general type)."""

    def __init__(self, n: int, degree: int):
        if n > MAX_HYPERSURFACE_DIM:
            raise ConfigError(
                f"hypersurface dimension n = {quoted(n, str)} exceeds "
                f"MAX_HYPERSURFACE_DIM = {MAX_HYPERSURFACE_DIM}"
            )
        if n % 2 or n <= 0:
            raise ConfigError("complex dimension n must be a positive even integer")
        if degree % 2:
            raise ConfigError("degree must be even for a spin square root")
        if degree <= n + 2:
            raise ConfigError("need degree d > n + 2 for general type")
        self.n, self.degree = n, degree

    @property
    def k0(self) -> int:
        return (self.n + 2 - self.degree) // 2

    @property
    def name(self) -> str:
        return f"hyp:n={self.n},d={self.degree}"


def product_cp1_model(factors: int):
    """(ManifoldSpec, CohomologyTable) for (P^1)^factors with the
    multidegree-(1,...,1) polarization.

    With a_i the point classes of the factors (a_i^2 = 0), c = sum a_i
    satisfies c^n = n! a_1...a_n, so the integral of c^n is n!.  The
    tangent roots 2 a_i have power sums s_0 = n, s_1 = 2c and s_k = 0 for
    k >= 2.  Ricci bound kappa = 2 (the first Chern class s_1 of the
    anticanonical bundle equals 2c, asserted in the tests).  At most
    MAX_CP1_FACTORS factors are accepted.
    """
    if factors > MAX_CP1_FACTORS:
        raise ConfigError(
            f"cp1x{quoted(factors, str)} has more than MAX_CP1_FACTORS = {MAX_CP1_FACTORS} "
            "factors"
        )
    if factors % 2 or factors <= 0:
        raise ConfigError(f"the product model needs a positive even number of factors, "
                          f"got {quoted(factors, str)}")
    spec = ManifoldSpec(
        name=f"cp1x{factors}" if factors != 2 else "cp1xcp1",
        n=factors,
        top_integral=Fraction(math.factorial(factors)),
        power_sums=(factors, 2) + (0,) * (factors - 1),
        kappa=Fraction(2),
    )
    return spec, KunnethCohomology(factors)


def general_type_hypersurface_model(n: int, d: int):
    """(HypersurfaceSpec, partial table) asserting only the constants:
    h^{0,k0} >= 1 at the twist k0 = (n + 2 - d)/2 where the twisted bundle
    is trivial.  Everything else stays unknown and errors loudly."""
    spec = HypersurfaceSpec(n, d)
    table = PartialCohomology(
        spec.name, {(0, spec.k0): 1}, lower_bounds=[(0, spec.k0)]
    )
    return spec, table


def _integer(value, field: str, error=ConfigError) -> int:
    """An integer field of loaded JSON.  A number literal arrives as an exact
    Fraction (``parse_float``), so 2.0 is accepted and 0.7 refused, never
    truncated; any other type is refused, naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)) \
            or value.denominator != 1:
        raise error(f"{field} must be an integer, got {quoted(value, str)}")
    return int(value)


def _parse_entry_field(entry, key):
    if not isinstance(entry, dict):
        raise TableValidationError(f"spectrum entry {quoted(entry)} is not an object")
    if key not in entry:
        raise TableValidationError(f"spectrum entry {quoted(entry, str)} lacks {key!r}")
    return entry[key]


def os_refusal(action: str, path, exc: OSError) -> str:
    """The message of an OSError from ``action`` ("read manifold config",
    say) on ``path``, a name of any length read from outside: str(exc) with
    the name quoted, in front and behind."""
    return (f"cannot {action} {quoted(path, str)}: [Errno {exc.errno}] "
            f"{exc.strerror}: {quoted(str(path))}")


def _json_number(text: str):
    """parse_float for tables: a Fraction, or a refused literal's text for its field to name."""
    try:
        return parse_rational(text)
    except ValueError:
        return text


# a halfMuSq string that the loader reads in integers: ASCII -?digits(/digits),
# denominator > 0; any other value goes through parse_rational
_RATIO_RE = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def _entry_fields(entry, rational):
    """(q, k, p, d, mult) of a table entry, mu^2/2 = p/d, by the Fraction
    checks, which refuse its first bad field by name."""
    q, k = (_integer(_parse_entry_field(entry, key), f"spectrum entry {key!r}",
                     TableValidationError) for key in ("q", "k"))
    half = rational(_parse_entry_field(entry, "halfMuSq"), "spectrum entry 'halfMuSq'")
    mult = _integer(_parse_entry_field(entry, "mult"), "spectrum entry 'mult'",
                    TableValidationError)
    return q, k, half.numerator, half.denominator, mult


def laplacian_table_load(path, n: int, kappa) -> LaplacianSpectrum | None:
    """Load and validate a Laplacian spectrum table.

    Accepts either a bare JSON array of entries
    ``{"q", "k", "halfMuSq": "p/q", "mult"}`` or an object
    ``{"half_mu_sq_max": "p/q", "k_min", "k_max", "entries": [...]}``
    declaring the enumeration cutoff and covered k-range explicitly (a
    bare array infers both from the entries present).  Every entry must
    satisfy the curvature lower bound, and every eigenvalue must have a
    nonnegative alternating multiplicity; violations are hard errors naming
    the entry.  An empty table loads as None, which falls back to
    bound-only certification.  Entries are checked in integers, with one
    Fraction per eigenvalue level.
    """
    kappa = as_fraction(kappa)

    def rational(value, field):
        try:
            return parse_rational(str(value))
        except ValueError as exc:
            raise TableValidationError(
                f"cannot read Laplacian table {quoted(path, str)}: {field}: {exc}") from exc

    try:
        raw = json.loads(Path(path).read_text(), parse_float=_json_number)
    except OSError as exc:
        raise TableValidationError(os_refusal("read Laplacian table", path, exc)) from exc
    except ValueError as exc:
        raise TableValidationError(
            f"cannot read Laplacian table {quoted(path, str)}: {exc}") from exc
    entries_raw = raw  # a bare array, with no declared cutoff or k-range
    declared_cutoff = declared_range = None
    if isinstance(raw, dict):
        entries_raw = raw.get("entries", [])
        if not isinstance(entries_raw, list):
            raise TableValidationError("spectrum table 'entries' must be a JSON array")
        declared_cutoff = raw.get("half_mu_sq_max")
        if declared_cutoff is not None:
            declared_cutoff = rational(declared_cutoff, "spectrum table 'half_mu_sq_max'")
        if "k_min" in raw or "k_max" in raw:
            for key in ("k_min", "k_max"):
                if key not in raw:
                    raise TableValidationError(f"spectrum table lacks {key!r}")
            declared_range = tuple(_integer(raw[key], f"spectrum table {key!r}",
                                            TableValidationError)
                                   for key in ("k_min", "k_max"))
    elif not isinstance(raw, list):
        raise TableValidationError("spectrum file must be a JSON array or object")

    if not entries_raw:
        return None

    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    H, den = (kappa / 2).numerator, (kappa / 2).denominator
    # (k, p, d) with mu^2/2 = p/d in lowest terms -> {q: multiplicity}; integer
    # keys, because hashing a Fraction costs a modular inverse
    levels = {}
    for entry in entries_raw:
        try:  # int fields and a _RATIO_RE halfMuSq, read in integers
            q, k, mult = entry["q"], entry["k"], entry["mult"]
            match = _RATIO_RE.fullmatch(entry["halfMuSq"])
            p, d = int(match[1]), int(match[2] or 1)
        except (KeyError, TypeError, ValueError):  # ValueError: past the int string limit
            match = None
        if match is None or type(q) is not int or type(k) is not int or type(mult) is not int:
            q, k, p, d, mult = _entry_fields(entry, rational)
        else:
            g = math.gcd(p, d)
            p, d = p // g, d // g
        if not 0 <= q <= n:
            raise TableValidationError(
                f"entry (q={quoted(q, str)}, k={quoted(k, str)}): q outside 0..{n}")
        if p <= 0:
            raise TableValidationError(
                f"entry (q={q}, k={quoted(k, str)}): halfMuSq must be positive, "
                f"got {quoted(Fraction(p, d), str)}"
            )
        if mult < 1:
            raise TableValidationError(
                f"entry (q={q}, k={quoted(k, str)}): multiplicity must be >= 1"
            )
        bound = _scaled_bound(q, k, n, den, H)
        if p * den < bound * d:
            raise TableValidationError(
                f"entry (q={q}, k={quoted(k, str)}, halfMuSq="
                f"{quoted(Fraction(p, d), str)}) violates the curvature lower bound "
                f"{quoted(Fraction(bound, den), str)}"
            )
        level = levels.setdefault((k, p, d), {})
        if q in level:
            raise TableValidationError(
                f"duplicate eigenvalue for (q,k)={quoted((q, k), str)}")
        level[q] = mult

    # the Type 2 family at (q, k, mu^2/2) has the alternating multiplicity
    # d_q = e_q - e_{q-1} + ... +- e_0 = e_q - d_{q-1}, which must be >= 0
    entries = {}
    for (k, p, d), level in levels.items():
        half = Fraction(p, d)
        alternating = 0
        for q in range(max(level) + 1):
            mult = level.get(q, 0)
            alternating = mult - alternating
            if mult:
                if alternating < 0:
                    raise TableValidationError(
                        f"negative alternating multiplicity {quoted(alternating, str)} "
                        f"at (q={q}, k={quoted(k, str)}, mu^2/2={quoted(half, str)})")
                entries.setdefault((q, k), []).append((half, alternating))
    entries = {key: tuple(sorted(values)) for key, values in entries.items()}

    ks = [k for (_, k) in entries]
    k_range = declared_range or (min(ks), max(ks))
    cutoff = declared_cutoff
    if cutoff is None:
        cutoff = max(h for values in entries.values() for h, _ in values)
    return LaplacianSpectrum(entries, cutoff, k_range)


class CatalogEntry(Record):
    """A resolved manifold: the name its reports carry and the spectral
    model, which holds the characteristic-class side when it exists."""

    __hash__ = None

    def __init__(self, name: str, model: SpectralModel):
        self.name = name
        self.model = model

    @property
    def manifold(self) -> ManifoldSpec | None:
        return self.model.manifold


_HYP_RE = re.compile(r"^hyp:n=(-?\d+),d=(-?\d+)$")
_CP1_RE = re.compile(r"^cp1x(\d+)$")


def _entry_from_product(factors: int) -> CatalogEntry:
    spec, table = product_cp1_model(factors)
    return CatalogEntry(spec.name, SpectralModel(spec.n, spec.kappa, table, manifold=spec))


def _entry_from_hypersurface(n: int, d: int) -> CatalogEntry:
    spec, table = general_type_hypersurface_model(n, d)
    return CatalogEntry(spec.name, SpectralModel(spec.n, None, table))


def load_config(path) -> CatalogEntry:
    """Build a catalog entry from a JSON config file.

    Schema: {"name", "type": "product_cp1" | "hypersurface_general_type",
    "factors" | {"n", "d"}, optional "laplacian_table": path (relative to
    the config file)}.
    """
    path = Path(path)
    try:
        cfg = json.loads(path.read_text(), parse_float=parse_rational)
    except OSError as exc:
        raise ConfigError(os_refusal("read manifold config", path, exc)) from exc
    except ValueError as exc:
        raise ConfigError(f"cannot read manifold config {quoted(path, str)}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"manifold config {quoted(path, str)} must be a JSON object")
    kind = cfg.get("type")
    if kind == "product_cp1":
        entry = _entry_from_product(_integer(cfg.get("factors"),
                                             "product_cp1 config 'factors'"))
    elif kind == "hypersurface_general_type":
        try:
            entry = _entry_from_hypersurface(
                _integer(cfg["n"], "hypersurface config 'n'"),
                _integer(cfg["d"], "hypersurface config 'd'"))
        except KeyError as exc:
            raise ConfigError(f"hypersurface config needs key {exc}") from exc
    else:
        raise ConfigError(f"unknown manifold type {quoted(kind)} in {quoted(path, str)}")
    if "name" in cfg:
        entry.name = str(cfg["name"])
    if "laplacian_table" in cfg:
        table_path = cfg["laplacian_table"]
        if not isinstance(table_path, str) or not table_path:
            raise ConfigError(f"'laplacian_table' must be a path, "
                              f"got {quoted(table_path, str)}")
        if entry.model.kappa is None:
            raise ConfigError(
                "laplacian tables require a Fano entry (curvature validation)"
            )
        entry.model.spectrum = laplacian_table_load(
            path.parent / table_path, entry.model.n, entry.model.kappa
        )
    return entry


def resolve_manifold(text: str) -> CatalogEntry:
    """Resolve a builtin name ("cp1xcp1", "cp1x4", "hyp:n=4,d=8") or a
    config file path.  A builtin name whose number is written in more than
    MAX_RATIONAL_DIGITS digits is unknown: int() never reads the number."""
    if text == "cp1xcp1":
        return _entry_from_product(2)
    match = _CP1_RE.match(text)
    if match and len(match[1]) <= MAX_RATIONAL_DIGITS:
        return _entry_from_product(int(match[1]))
    match = _HYP_RE.match(text)
    if match and max(len(match[1]), len(match[2])) <= MAX_RATIONAL_DIGITS:
        return _entry_from_hypersurface(int(match[1]), int(match[2]))
    try:
        is_file = text != "" and Path(text).exists()  # Path("") is the current directory
    except OSError:  # a name too long for the file system, say
        is_file = False
    if is_file:
        return load_config(text)
    raise ConfigError(
        f"unknown manifold {quoted(text)}: expected cp1xcp1, cp1x<2m> with 2m <= "
        f"MAX_CP1_FACTORS = {MAX_CP1_FACTORS}, hyp:n=<n>,d=<d> with n <= MAX_HYPERSURFACE_DIM "
        f"= {MAX_HYPERSURFACE_DIM}, each number in at most MAX_RATIONAL_DIGITS = "
        f"{MAX_RATIONAL_DIGITS} digits, or a config file path"
    )
