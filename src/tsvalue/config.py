"""Run configuration: JSON file -> validated dataclasses, with a stable hash.

Each section is a dataclass whose fields give its keys, types and defaults
and whose ``__post_init__`` checks its ranges, so a bad setting fails at
load. The config hash covers the fully-defaulted normalized document, and
every output file embeds it alongside the tool version.
"""

from __future__ import annotations

import hashlib
import json
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .errors import ConfigError, require, require_at_least
from .experiments import BENCH_METHODS
from .forecaster import ModelSpec
from .oracles import SHAPLEY_MODES
from .pipeline import TrainSettings, spec_for_block_length
from .selection import CORRUPTION_KINDS, STRATEGIES
from .synthetic import SyntheticSpec
from .valuation import ValuationConfig

ORACLE_METHODS = ("one_step", "grad_inner", "exact_influence", "loo", "shapley")
# a float field keeps a JSON integer unconverted: converting it would change config hashes
_JSON_TYPES = {int: int, float: (int, float), bool: bool, str: str}


def _load(cls, raw, name: str, base=None):
    """Build the dataclass ``cls`` (over ``base``, if given) from the JSON object ``raw``.

    The keys, types and defaults are ``cls``'s fields, except those whose
    metadata says ``in_file: False``; the range checks are its ``__post_init__``.
    """
    where = f"config section {name or 'top level'!r}"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    known = {f.name: f for f in fields(cls) if f.metadata.get("in_file", True)}
    unknown = set(raw) - set(known)
    require(not unknown, f"unknown key(s) {sorted(unknown)} in {where}")
    missing = [k for k, f in known.items()
               if k not in raw and f.default is MISSING and f.default_factory is MISSING]
    require(not missing, f"{where} needs key(s) {missing}")
    hints = typing.get_type_hints(cls)
    values = {k: _value(v, hints[k], f"{name}.{k}" if name else k, known[k].default_factory)
              for k, v in raw.items()}
    try:
        return cls(**values) if base is None else replace(base, **values)
    except ConfigError as exc:
        raise type(exc)(f"{name}: {exc}" if name else str(exc)) from None


def _value(value, typ, name: str, factory=MISSING):
    """``value`` checked against ``typ``; a list becomes a tuple, a section loads over factory()."""
    args = typing.get_args(typ)
    if type(None) in args:  # X | None, always written in that order
        return None if value is None else _value(value, args[0], name)
    if is_dataclass(typ):
        return _load(typ, value, name, None if factory is MISSING else factory())
    is_tuple = typing.get_origin(typ) is tuple
    if is_tuple and isinstance(value, list):
        return tuple(_value(v, args[0], f"{name}[{i}]") for i, v in enumerate(value))
    # bool is an int to Python, never to a config file
    if isinstance(value, _JSON_TYPES.get(typ, ())) and (typ is bool) == isinstance(value, bool):
        return value
    raise ConfigError(f"{name} must be {'a list' if is_tuple else typ.__name__}, got {value!r}")


def _known(what: str, names: tuple[str, ...], allowed: tuple[str, ...]) -> None:
    unknown = [n for n in names if n not in allowed]
    require(not unknown, f"unknown {what} {', '.join(map(repr, unknown))}; pick from {allowed}")


@dataclass(frozen=True)
class DatasetConfig:
    path: str | None = None
    synthetic: SyntheticSpec | None = None

    def __post_init__(self):
        require((self.path is None) != (self.synthetic is None),
                "needs exactly one of 'path' or 'synthetic'")


@dataclass(frozen=True)
class ModelConfig:
    architecture: str = "linear_ar"
    horizon: int = 1
    hidden: int = 0
    init_seed: int = 0
    checkpoint: str | None = None  # load instead of training

    def __post_init__(self):
        self.spec(self.horizon + 1, channels=1)  # ModelSpec's own checks, before any data

    def spec(self, block_length: int, channels: int) -> ModelSpec:
        """Lookback is derived so one block splits into (lookback -> horizon)."""
        return spec_for_block_length(ModelSpec(
            self.architecture, lookback=1, horizon=self.horizon, channels=channels,
            hidden=self.hidden, init_seed=self.init_seed), block_length)


def _check_selection(strategies: tuple[str, ...], ratios: tuple[float, ...]) -> None:
    _known("strategy", strategies, STRATEGIES)
    for r in ratios:
        require(0.0 < r <= 1.0, f"ratio must lie in (0, 1], got {r!r}")


@dataclass(frozen=True)
class SelectionConfig:
    strategies: tuple[str, ...] = ("top", "bottom", "random", "full")
    ratio: float = 0.5

    def __post_init__(self):
        _check_selection(self.strategies, (self.ratio,))


@dataclass(frozen=True)
class CorruptionConfig:
    fraction: float = 0.0
    kind: str = "gaussian_burst"
    magnitude: float = 0.3
    seed: int = 0

    def __post_init__(self):
        _known("kind", (self.kind,), CORRUPTION_KINDS)
        require(0.0 <= self.fraction < 1.0, f"fraction must lie in [0, 1), got {self.fraction!r}")
        require(self.kind != "gaussian_burst" or self.magnitude >= 0,
                "gaussian_burst magnitude (a noise std) must be >= 0")
        require_at_least(self, 0, "seed")

    @property
    def active(self) -> bool:
        return self.fraction > 0.0


@dataclass(frozen=True)
class OracleCompareConfig:
    methods: tuple[str, ...] = ("one_step", "grad_inner", "exact_influence")
    max_blocks: int = 50
    stride: int | None = None  # default: spread scored blocks over the target
    context_cap: int = 50
    shapley_mode: str = "mc"
    shapley_permutations: int = 50
    shapley_epochs: int = 3

    def __post_init__(self):
        _known("method", self.methods, ORACLE_METHODS)
        _known("shapley_mode", (self.shapley_mode,), SHAPLEY_MODES)
        require_at_least(self, 1, "max_blocks", "stride", "context_cap", "shapley_permutations")
        require_at_least(self, 0, "shapley_epochs")
        require(self.max_blocks >= self.min_blocks,
                f"max_blocks must be >= 3 to rank-compare two or more methods, "
                f"got {self.max_blocks}")

    @property
    def min_blocks(self) -> int:
        """Scored blocks a run needs: a rank agreement between two methods takes 3."""
        return 3 if len(set(self.methods)) > 1 else 1


@dataclass(frozen=True)
class AblationConfig:
    block_lengths: tuple[int, ...] = (50, 75, 100, 125)
    ratio: float = 0.2
    strategies: tuple[str, ...] = ("top", "bottom", "random")

    def __post_init__(self):
        require(bool(self.block_lengths), "block_lengths must not be empty")
        _check_selection(self.strategies, (self.ratio,))


@dataclass(frozen=True)
class BenchConfig:
    p_list: tuple[int, ...] = (300, 1000, 3000, 10000, 30000)
    methods: tuple[str, ...] = BENCH_METHODS
    n_blocks: int = 256
    n_context: int = 64
    repeats: int = 3
    exact_limit: int = 3000

    def __post_init__(self):
        _known("method", self.methods, BENCH_METHODS)
        require_at_least(self, 1, "n_blocks", "n_context", "repeats")


@dataclass(frozen=True)
class GeneralizeConfig:
    ratios: tuple[float, ...] = (0.2,)
    strategies: tuple[str, ...] = ("top", "bottom", "random")

    def __post_init__(self):
        _check_selection(self.strategies, self.ratios)


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetConfig
    test_fraction: float = 0.3
    normalize: bool = True
    valuation: ValuationConfig = field(default_factory=ValuationConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    downstream_model: ModelConfig = field(default_factory=ModelConfig)
    pretrain: TrainSettings = field(default_factory=TrainSettings)
    finetune: TrainSettings = field(default_factory=lambda: TrainSettings(epochs=10))
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    corruption: CorruptionConfig = field(default_factory=CorruptionConfig)
    oracle_compare: OracleCompareConfig = field(default_factory=OracleCompareConfig)
    ablation: AblationConfig = field(default_factory=AblationConfig)
    bench: BenchConfig = field(default_factory=BenchConfig)
    generalize: GeneralizeConfig = field(default_factory=GeneralizeConfig)
    seed: int = 0
    output_dir: str = "out"

    def __post_init__(self):
        require_at_least(self, 0, "seed")
        require(0.0 < self.test_fraction < 1.0,
                f"test_fraction must lie in (0, 1), got {self.test_fraction!r}")
        for model in (self.model, self.downstream_model):
            model.spec(self.valuation.block_length, channels=1)
        require(self.downstream_model.checkpoint is None,
                "downstream_model.checkpoint is read by no command; generalize "
                "pretrains the downstream model itself")
        require(self.model.architecture == "linear_ar" or "loo" not in self.oracle_compare.methods,
                "oracle_compare: the loo oracle needs the linear_ar model")
        object.__setattr__(self, "valuation", replace(self.valuation, seed=self.seed))

    @classmethod
    def from_dict(cls, raw: dict, seed: int | None = None,
                  output_dir: str | None = None) -> "RunConfig":
        if isinstance(raw, dict) and "workers" in raw:
            # went with the scoring thread pool; ignored and not hashed
            print("tsvalue: warning: config key 'workers' is deprecated; ignored", file=sys.stderr)
            raw = {k: v for k, v in raw.items() if k != "workers"}
        overrides = {k: v for k, v in (("seed", seed), ("output_dir", output_dir)) if v is not None}
        return replace(_load(cls, raw, ""), **overrides)

    @classmethod
    def load(cls, path: str | Path, **overrides) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(raw, **overrides)

    def normalized(self) -> dict:
        """Fully-defaulted plain-dict form; the hash input."""
        return asdict(self)

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.normalized(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
