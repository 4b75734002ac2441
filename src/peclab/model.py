"""Core domain types: distributions, outcome/error models, scenarios, datasets.

All types are immutable value objects after construction and safe to share
across threads; a Dataset only caches its regression factor and the rows of
its coordinate columns (derived columns, whose coordinates on its columns
the factor holds), each on first use.
Scenarios round-trip through a line-oriented text format (``section.key =
value``, see docs/scenario-format.md); datasets round-trip through CSV with
the canonical column header ``X,Xep,C,Cep,V,Vep,Y``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import ParameterError, ScenarioFormatError, SchemaError
from .regress import INTERCEPT, ColumnFactor, _with_intercept

# Canonical dataset column order. Generated datasets may omit the C/V block
# (the discrete exposure-only world has no confounders).
COLUMN_ORDER = ("X", "Xep", "C", "Cep", "V", "Vep", "Y")
# The error-prone columns lead a dataset's regression factor, so the
# calibration design [1, Xep, Cep, Vep] is its leading block.
MEASURED_COLUMNS = ("Xep", "Cep", "Vep")


class Link(str, Enum):
    IDENTITY = "identity"
    LOGIT = "logit"
    LOG = "log"


class ErrorKind(str, Enum):
    NONE = "none"
    NON_BERKSON_LINEAR = "nonBerksonLinear"
    PURE_BERKSON = "pureBerkson"
    SHARED_V = "sharedV"


class Estimand(str, Enum):
    RISK_DIFFERENCE = "riskDifference"
    RISK_RATIO = "riskRatio"


@dataclass(frozen=True)
class DistributionSpec:
    """One of four sampling families.

    family/parameter meaning:
      normal(p1=mu, p2=sigma), gamma(p1=shape, p2=scale),
      roundedUniform(p1=lo, p2=hi)  -> round(Uniform(lo, hi)),
      pointMass(p1=c).

    roundedUniform with integer endpoints hi - lo = 2 is the three-point law
    (1/4, 1/2, 1/4) on {lo, lo+1, hi}. normal(mu, 0) is discrete, the one
    point mu, as pointMass(mu) is.
    """

    family: str
    p1: float = 0.0
    p2: float = 0.0

    @classmethod
    def normal(cls, mu: float, sigma: float) -> "DistributionSpec":
        return cls("normal", float(mu), float(sigma))

    @classmethod
    def gamma(cls, shape: float, scale: float) -> "DistributionSpec":
        return cls("gamma", float(shape), float(scale))

    @classmethod
    def rounded_uniform(cls, lo: float, hi: float) -> "DistributionSpec":
        return cls("roundedUniform", float(lo), float(hi))

    @classmethod
    def point_mass(cls, c: float) -> "DistributionSpec":
        return cls("pointMass", float(c))

    def violations(self) -> list[str]:
        if not (math.isfinite(self.p1) and math.isfinite(self.p2)):
            return [f"parameters must be finite, got {_format_distribution(self)}"]
        v = []
        if self.family == "normal":
            if self.p2 < 0:
                v.append("normal sigma must be >= 0")
        elif self.family == "gamma":
            if self.p1 <= 0:
                v.append("gamma shape must be > 0")
            if self.p2 <= 0:
                v.append("gamma scale must be > 0")
        elif self.family == "roundedUniform":
            if not self.p1 < self.p2:
                v.append("roundedUniform requires lo < hi")
            elif not math.isfinite(self.p2 - self.p1):
                v.append("roundedUniform requires hi - lo to be finite")
        elif self.family != "pointMass":
            v.append(f"unknown distribution family {self.family!r}")
        return v

    def check(self) -> None:
        v = self.violations()
        if v:
            raise ParameterError("; ".join(v))

    def _rounded_ends(self) -> tuple[int, int, float, float]:
        """The end cells kl <= kh of round(Uniform(lo, hi)), the first and last
        integers k whose cell [k - 0.5, k + 0.5] overlaps (lo, hi), found exactly
        (in floats lo + 0.5 can round up), and the widths wl = kl + 0.5 - lo and
        wh = hi - (kh - 0.5) they hold; each cell between them holds width 1."""
        half = Fraction(1, 2)
        kl, kh = math.floor(Fraction(self.p1) + half), math.ceil(Fraction(self.p2) - half)
        return kl, kh, kl + 0.5 - self.p1, self.p2 - (kh - 0.5)

    def _rounded_moments(self) -> tuple[float, float]:
        """Mean and variance of round(Uniform(lo, hi)) from its end cells, in
        O(1) of the width. The interior is symmetric about (kl + kh) / 2, so
        only the end cells shift the mean: lo = -hi gives mean exactly 0.
        Each term divides by the width before its last product, so the
        variance stays finite wherever w^2 / 12 is (w up to about 4.6e154)."""
        width = self.p2 - self.p1
        kl, kh, wl, wh = self._rounded_ends()
        half, inner = (kh - kl) / 2, float(kh - kl - 1)
        shift = half * (wh - wl) / width
        ends = half * (half * ((wl + wh) / width))
        interior = inner * ((inner + 1.0) / width) * ((inner - 1.0) / 12.0)
        return (kl + kh) / 2 + shift, ends + interior - shift * shift

    def _moments(self) -> tuple[float, float]:
        """(mean, variance), dispatched on the family once."""
        if self.family == "normal":
            return self.p1, self.p2**2
        if self.family == "gamma":
            return self.p1 * self.p2, self.p1 * self.p2**2
        if self.family == "pointMass":
            return self.p1, 0.0
        return self._rounded_moments()

    def mean(self) -> float:
        return self._moments()[0]

    def variance(self) -> float:
        return self._moments()[1]

    def is_discrete(self) -> bool:
        point_normal = self.family == "normal" and self.p2 == 0
        return point_normal or self.family in ("roundedUniform", "pointMass")

    def cells(self) -> int:
        """The number of support points of a discrete law, read from its end
        cells in O(1) of its width."""
        if self.family == "roundedUniform":
            kl, kh = self._rounded_ends()[:2]
            return kh - kl + 1
        return 1

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, probabilities) for discrete laws; a rounded uniform's
        cells hold the widths (wl, 1, ..., 1, wh), or hi - lo in one cell."""
        if self.family == "roundedUniform":
            lo, hi = self.p1, self.p2
            kl, kh, wl, wh = self._rounded_ends()
            widths = np.r_[wl, np.ones(kh - kl - 1), wh] if kl < kh else np.array([hi - lo])
            return np.arange(kl, kh + 1, dtype=float), widths / (hi - lo)
        if self.is_discrete():
            return np.array([self.p1]), np.array([1.0])
        raise ParameterError(f"{self.family} has no discrete support")

    def density(self, x: np.ndarray) -> np.ndarray:
        """Probability density for the continuous families."""
        x = np.asarray(x, dtype=float)
        if self.family == "normal":
            if self.p2 == 0:
                raise ParameterError("degenerate normal has no density")
            z = (x - self.p1) / self.p2
            return np.exp(-0.5 * z * z) / (self.p2 * math.sqrt(2 * math.pi))
        if self.family == "gamma":
            shape, scale = self.p1, self.p2
            out = np.zeros_like(x)
            pos = x > 0
            xp = x[pos]
            out[pos] = np.exp(
                (shape - 1) * np.log(xp) - xp / scale - math.lgamma(shape) - shape * math.log(scale)
            )
            return out
        raise ParameterError(f"{self.family} is not a continuous family")


@dataclass(frozen=True)
class OutcomeModel:
    """Structural outcome model Y(x) for a given confounder/covariate draw.

    identity link: Y = beta0 + beta_x*X + beta_x2*X^2 + beta_c*C + beta_v*V
                       + noise_scale*eps
    logit link:    Y ~ Bernoulli(sigmoid(same linear predictor)), the noise
                   draw sits inside the linear predictor
    log link:      Y ~ Bernoulli(exp(same linear predictor)), valid only for
                   rare outcomes (all probabilities <= 1)

    noise (eps) is mean zero; noise_scale lets the discrete-world model put
    0.1*W into the outcome while W itself stays a unit three-point law.
    """

    link: Link = Link.IDENTITY
    beta0: float = 0.0
    beta_x: float = 0.0
    beta_x2: float = 0.0
    beta_c: float = 0.0
    beta_v: float = 0.0
    noise: DistributionSpec = field(default_factory=lambda: DistributionSpec.point_mass(0.0))
    noise_scale: float = 1.0

    def violations(self, label: str) -> list[str]:
        return [f"{label}.noise: {msg}" for msg in self.noise.violations()]

    def linear_predictor(self, x, c=0.0, v=0.0, eps=0.0):
        x = np.asarray(x, dtype=float)
        lp = self.beta0 + self.beta_x * x
        if self.beta_x2 != 0:
            # 0 * (x * x) would be NaN wherever x * x overflows
            lp = lp + self.beta_x2 * (x * x)
        return (
            lp
            + self.beta_c * np.asarray(c, dtype=float)
            + self.beta_v * np.asarray(v, dtype=float)
            + self.noise_scale * np.asarray(eps, dtype=float)
        )


@dataclass(frozen=True)
class ErrorModel:
    """Measurement error model attached to one true variable T.

    none:              T^ep = T
    nonBerksonLinear / sharedV:
                       T^ep = gamma0 + gamma1*T + gammaV*V + U
    pureBerkson:       the measured value is generated first and
                       T = gamma0 + gamma1*T^ep + gammaV*V + U
                       (exposure_error only)
    """

    kind: ErrorKind = ErrorKind.NONE
    gamma0: float = 0.0
    gamma1: float = 1.0
    gammaV: float = 0.0
    noiseU: DistributionSpec = field(default_factory=lambda: DistributionSpec.point_mass(0.0))

    def violations(self, label: str) -> list[str]:
        v = [f"{label}.noiseU: {msg}" for msg in self.noiseU.violations()]
        if self.kind is not ErrorKind.NONE and self.gamma1 == 0:
            v.append(f"{label}.gamma1 must be nonzero")
        return v


@dataclass(frozen=True)
class StructuralSpec:
    """Linear structural equation T = intercept + coef_c*C + coef_v*V + noise."""

    intercept: float = 0.0
    coef_c: float = 0.0
    coef_v: float = 0.0
    noise: DistributionSpec = field(default_factory=lambda: DistributionSpec.point_mass(0.0))

    def violations(self, label: str) -> list[str]:
        return [f"{label}.noise: {msg}" for msg in self.noise.violations()]


@dataclass(frozen=True)
class Scenario:
    """A complete data-generating process for one simulation study."""

    name: str
    outcome: OutcomeModel
    exposure_error: ErrorModel = field(default_factory=ErrorModel)
    confounder_error: ErrorModel = field(default_factory=ErrorModel)
    v_error: ErrorModel = field(default_factory=ErrorModel)
    x_model: StructuralSpec = field(default_factory=StructuralSpec)
    c_model: StructuralSpec = field(default_factory=StructuralSpec)
    v_model: DistributionSpec = field(default_factory=lambda: DistributionSpec.point_mass(0.0))
    n: int = 1
    replications: int = 1
    seed: int = 0


# The model sections of a Scenario, in scenario-file order: the attribute
# name is the file's section name, the class lists its keys.
_SECTION_FIELDS = {
    "outcome": OutcomeModel,
    "exposure_error": ErrorModel,
    "confounder_error": ErrorModel,
    "v_error": ErrorModel,
    "x_model": StructuralSpec,
    "c_model": StructuralSpec,
}


def _section_violations(label: str, obj) -> list[str]:
    """A model section's own invariants: finite numbers, then its ``violations``
    (each law's, gamma1 != 0). Centred noise is a rule of scenarios only."""
    v = [
        f"{label}.{f.name} must be finite, got {value!r}"
        for f in fields(obj)
        if isinstance(value := getattr(obj, f.name), float) and not math.isfinite(value)
    ]
    return v + obj.violations(label)


def validate_scenario(s: Scenario) -> list[str]:
    """Every invariant violation as a human-readable message; empty iff generable.
    The one place that decides it, so a bad scenario fails before any draw."""
    v: list[str] = []
    name = s.name
    if not name or name != name.strip() or len(name.splitlines()) > 1 or {",", '"'} & set(name):
        v.append(
            f"name {name!r} must be non-empty, with no comma, double quote, line break,"
            " or whitespace at either end"
        )
    if s.n < 1:
        v.append("n must be >= 1")
    if s.replications < 1:
        v.append("replications must be >= 1")
    if not 0 <= s.seed < 2**64:
        v.append(f"seed {s.seed} is outside [0, 2**64)")
    for section in _SECTION_FIELDS:
        v.extend(_section_violations(section, getattr(s, section)))
    v.extend(f"v_model: {msg}" for msg in s.v_model.violations())
    # a scenario's noises are centred: a shift belongs in beta0 or gamma0
    noises = {"outcome noise": s.outcome.noise}
    for section in ("exposure_error", "confounder_error", "v_error"):
        noises[f"{section}.noiseU"] = getattr(s, section).noiseU
    for label, law in noises.items():
        if not law.violations() and abs(law.mean()) > 1e-9:
            v.append(f"{label} must have mean 0")
    if s.c_model.coef_c != 0:
        v.append("c_model.coef_c must be 0 (C cannot depend on itself)")
    if s.v_error.gammaV != 0:
        v.append("v_error.gammaV must be 0 (the V slope is gamma1)")
    for section in ("confounder_error", "v_error"):
        if getattr(s, section).kind is ErrorKind.PURE_BERKSON:
            v.append(f"{section}.kind must not be pureBerkson (only exposure_error can be)")
    return v


def check_scenario(s: Scenario) -> None:
    """Raise one ParameterError naming the scenario and every violation."""
    violations = validate_scenario(s)
    if violations:
        raise ParameterError(f"scenario {s.name}: {'; '.join(violations)}")


# ---------------------------------------------------------------------------
# Dataset


def _checked_column(name: str, col, n: int | None) -> np.ndarray:
    """The column as a float vector, of length ``n`` when one is given."""
    arr = np.asarray(col, dtype=float)
    if arr.ndim != 1:
        raise SchemaError(f"column {name!r} is not a vector")
    if n is not None and arr.shape[0] != n:
        raise SchemaError(f"column {name!r} has length {arr.shape[0]}, expected {n}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"column {name!r} contains NaN or infinite values")
    return arr


class Dataset:
    """Columnar table of generated or user-supplied variables.

    Columns are float vectors of equal length keyed by the canonical names in
    COLUMN_ORDER plus any derived columns (X_RC, ...). Instances are treated
    as immutable; derived columns are added by ``with_coordinates``, which
    returns a new Dataset whose factor alone holds them, as coordinates on
    this one's columns. The mutable parts are caches: the regression factor
    of the columns (``factor``) and the rows of each coordinate column, each
    built on first use. Two threads that build the same one compute
    identical values, so either may keep it.
    """

    def __init__(self, columns: dict[str, np.ndarray]):
        if not columns:
            raise SchemaError("dataset must have at least one column")
        clean: dict[str, np.ndarray] = {}
        n = None
        for name, col in columns.items():
            clean[name] = _checked_column(name, col, n)
            n = clean[name].shape[0]
        # a coordinate column's rows are None until it is first read
        self._columns: dict[str, np.ndarray | None] = clean
        self._factor: ColumnFactor | None = None

    @property
    def n(self) -> int:
        return next(iter(self._columns.values())).shape[0]

    @property
    def names(self) -> list[str]:
        ordered = [c for c in COLUMN_ORDER if c in self._columns]
        extra = [c for c in self._columns if c not in COLUMN_ORDER]
        return ordered + extra

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            col = self._columns[name]
        except KeyError:
            raise SchemaError(f"dataset has no column {name!r}") from None
        if col is None:
            # [1, regressors] @ coordinates, intercept first, as a fit predicts;
            # the regressors are the factor's columns in use, in its order
            coordinate = self._factor.coordinates([name])[:, 0]
            used = 1 + np.flatnonzero(coordinate[1:])
            regressors = [self._columns[self._factor.names[j]] for j in used]
            col = _with_intercept(self.n, regressors) @ coordinate[[0, *used]]
            self._columns[name] = col
        return col

    def require(self, *names: str) -> None:
        missing = [c for c in names if c not in self._columns]
        if missing:
            raise SchemaError(f"dataset is missing column(s): {', '.join(missing)}")

    def with_coordinates(self, new: dict[str, dict[str, float]]) -> "Dataset":
        """This dataset plus the ``new`` columns, each a linear combination
        {column: coefficient} of this dataset's columns ("intercept" for the
        ones column) that its factor, built here if absent, holds as
        coordinates. No rows are written: a column's rows are built when it
        is first read. The result shares this dataset's columns, R and fits."""
        taken = [name for name in new if name in self._columns]
        if taken:
            raise SchemaError(f"dataset already has column(s): {', '.join(taken)}")
        self.require(*(c for combination in new.values() for c in combination if c != INTERCEPT))
        out = object.__new__(Dataset)
        out._factor = self.factor().derive(new)
        out._columns = {**self._columns, **dict.fromkeys(new)}
        return out

    def factor(self) -> ColumnFactor:
        """The regression factor of this dataset: one QR of the ones column
        and every column, the measured columns first. A dataset with
        coordinate columns got its factor from ``with_coordinates``."""
        if self._factor is None:
            self._factor = ColumnFactor.of(
                {c: self._columns[c] for c in self.names if c in MEASURED_COLUMNS},
                {c: self._columns[c] for c in self.names if c not in MEASURED_COLUMNS},
            )
        return self._factor

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            self.write_csv(fh)

    def write_csv(self, fh) -> None:
        names = self.names
        fh.write(",".join(names) + "\n")
        cols = [self[c] for c in names]
        for row in zip(*cols):
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header:
                raise SchemaError(f"{path}: empty CSV")
            names = [c.strip() for c in header.split(",")]
            empty = [str(i) for i, c in enumerate(names, start=1) if not c]
            if empty:
                raise SchemaError(
                    f"{path}: empty column name in header field(s) {', '.join(empty)}"
                )
            duplicated = sorted({c for c in names if names.count(c) > 1})
            if duplicated:
                raise SchemaError(
                    f"{path}: duplicate column name(s) in header: {', '.join(duplicated)}"
                )
            try:
                with warnings.catch_warnings():
                    # a header-only file is reported below, as "no data rows"
                    warnings.filterwarnings(
                        "ignore", "loadtxt: input contained no data", UserWarning
                    )
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise SchemaError(f"{path}: malformed CSV ({exc})") from None
        if data.size == 0:
            raise SchemaError(f"{path}: no data rows")
        if data.shape[1] != len(names):
            raise SchemaError(
                f"{path}: {len(names)} header fields but {data.shape[1]} columns"
            )
        # contiguous columns, as generated: a strided one sums in another order
        return cls(dict(zip(names, np.ascontiguousarray(data.T))))


# ---------------------------------------------------------------------------
# Scenario text format ("section.key = value"; docs/scenario-format.md).
# One codec: every key is a dataclass field, parsed and formatted by what
# _CODECS holds for the field's annotation. The scenario section holds the
# Scenario fields named in _SCENARIO_KEYS, each model section every field of
# its class, and both are read and written by the same walk.

# the scenario section's keys, in file order
_SCENARIO_KEYS = ("name", "n", "replications", "seed", "v_model")
# the parameters each distribution family takes, in file order
_PARAMETERS = {
    "normal": ("mu", "sigma"),
    "gamma": ("shape", "scale"),
    "roundedUniform": ("lo", "hi"),
    "pointMass": ("c",),
}


def _parse_distribution(text: str) -> DistributionSpec:
    family, _, args = text.partition("(")
    family = family.strip()
    params = args.removesuffix(")").split(",")
    if not args.endswith(")") or len(params) != len(_PARAMETERS.get(family, ())):
        raise ValueError(text)
    return DistributionSpec(family, *map(float, params))


def _format_distribution(d: DistributionSpec) -> str:
    # an unknown family, which validation rejects, shows both parameters
    params = (d.p1, d.p2)
    params = params[: len(_PARAMETERS.get(d.family, params))]
    return f"{d.family}({', '.join(map(repr, params))})"


# field annotation -> (parse, format, what a value must look like); parse
# raises ValueError on a value that does not fit
_CODECS = {
    "str": (str, str, "a string"),
    "int": (int, str, "an integer"),
    "float": (float, repr, "a number"),
    **{
        enum.__name__: (enum, lambda member: member.value, f"one of {', '.join(enum)}")
        for enum in (Link, ErrorKind)
    },
    "DistributionSpec": (
        _parse_distribution,
        _format_distribution,
        "one of " + ", ".join(f"{family}({', '.join(p)})" for family, p in _PARAMETERS.items()),
    ),
}


def _annotations(cls) -> dict[str, str]:
    return {f.name: f.type for f in fields(cls)}


# every section of a scenario file in file order, each key with its annotation
_FILE_SECTIONS = {
    "scenario": {key: _annotations(Scenario)[key] for key in _SCENARIO_KEYS},
    **{section: _annotations(cls) for section, cls in _SECTION_FIELDS.items()},
}


def format_scenario(s: Scenario) -> str:
    blocks = []
    for section, keys in _FILE_SECTIONS.items():
        obj = s if section == "scenario" else getattr(s, section)
        blocks.append("".join(
            f"{section}.{key} = {_CODECS[annotation][1](getattr(obj, key))}\n"
            for key, annotation in keys.items()
        ))
    return "\n".join(blocks)


def parse_scenario(text: str) -> Scenario:
    values: dict[str, dict] = {section: {} for section in _FILE_SECTIONS}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ScenarioFormatError(f"line {lineno}: expected 'section.key = value'")
        lhs, value = line.split("=", 1)
        lhs = lhs.strip()
        if "." not in lhs:
            raise ScenarioFormatError(f"line {lineno}: key {lhs!r} has no section")
        section, key = (part.strip() for part in lhs.split(".", 1))
        where = f"{section}.{key}"
        first = seen.setdefault(where, lineno)
        if first != lineno:
            raise ScenarioFormatError(
                f"line {lineno}: duplicate key {where} (first set on line {first})"
            )
        if section not in _FILE_SECTIONS:
            raise ScenarioFormatError(f"{where}: unknown section")
        if key not in _FILE_SECTIONS[section]:
            raise ScenarioFormatError(f"{where}: unknown key")
        parse, _, expected = _CODECS[_FILE_SECTIONS[section][key]]
        text = value.strip()
        try:
            values[section][key] = parse(text)
        except ValueError:
            raise ScenarioFormatError(f"{where}: expected {expected}, got {text!r}") from None
    return Scenario(
        **{"name": "unnamed", **values.pop("scenario")},
        **{section: cls(**values[section]) for section, cls in _SECTION_FIELDS.items()},
    )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_scenario(s))
