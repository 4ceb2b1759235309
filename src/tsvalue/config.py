"""Run configuration: JSON file -> validated dataclasses, with a stable hash.

Every section rejects unknown keys so typos fail loudly. The config hash
covers the fully-defaulted normalized document, and every output file
embeds it alongside the tool version.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import ConfigError
from .forecaster import ModelSpec
from .pipeline import TrainSettings
from .selection import STRATEGIES
from .synthetic import SyntheticSpec
from .valuation import ValuationConfig


def _section(raw: dict | None, allowed: dict, name: str) -> dict:
    """Merge a raw dict over defaults, rejecting unknown keys."""
    raw = {} if raw is None else dict(raw)
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in config section {name!r}")
    merged = dict(allowed)
    merged.update(raw)
    return {k: tuple(v) if isinstance(v, list) else v for k, v in merged.items()}


@dataclass(frozen=True)
class DatasetConfig:
    path: str | None = None
    synthetic: SyntheticSpec | None = None

    @classmethod
    def from_dict(cls, raw: dict | None) -> "DatasetConfig":
        d = _section(raw, {"path": None, "synthetic": None}, "dataset")
        synth = d["synthetic"]
        if synth is not None:
            synth = SyntheticSpec(**_section(
                synth,
                {"generator": "sine_mix", "length": 800, "channels": 1,
                 "noise_std": 0.1, "ar_coeffs": (0.6, -0.2), "seed": 0},
                "dataset.synthetic"))
        if (d["path"] is None) == (synth is None):
            raise ConfigError("dataset needs exactly one of 'path' or 'synthetic'")
        return cls(path=d["path"], synthetic=synth)


@dataclass(frozen=True)
class ModelConfig:
    architecture: str = "linear_ar"
    horizon: int = 1
    hidden: int = 0
    init_seed: int = 0
    checkpoint: str | None = None  # load instead of training

    @classmethod
    def from_dict(cls, raw: dict | None, name: str = "model") -> "ModelConfig":
        d = _section(raw, {"architecture": "linear_ar", "horizon": 1, "hidden": 0,
                           "init_seed": 0, "checkpoint": None}, name)
        return cls(**d)

    def spec(self, block_length: int, channels: int) -> ModelSpec:
        """Lookback is derived so one block splits into (lookback -> horizon)."""
        lookback = block_length - self.horizon
        if lookback < 1:
            raise ConfigError(
                f"block length {block_length} leaves no lookback for horizon {self.horizon}"
            )
        return ModelSpec(architecture=self.architecture, lookback=lookback,
                         horizon=self.horizon, channels=channels,
                         hidden=self.hidden, init_seed=self.init_seed)


def _train_settings(raw: dict | None, name: str, **overrides) -> TrainSettings:
    defaults = {"epochs": 30, "batch_size": 16, "optimizer_kind": "adam",
                "learning_rate": 0.01, "instance_stride": 1}
    defaults.update(overrides)
    return TrainSettings(**_section(raw, defaults, name))


def _valuation(raw: dict | None, seed: int) -> ValuationConfig:
    d = _section(raw, {"block_length": 100, "stride": 1, "learning_rate": 1e-5,
                       "optimizer_kind": "sgd", "k_folds": 5, "context_cap": None,
                       "sample_length": None}, "valuation")
    return ValuationConfig(seed=seed, **d)


def _check_selection(section: str, strategies: tuple, ratios: tuple) -> None:
    """Strategy names and selection ratios, checked before any work starts."""
    if not isinstance(ratios, tuple):
        raise ConfigError(f"{section}: ratios must be a list, got {ratios!r}")
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise ConfigError(f"{section}: unknown strategy {unknown}; pick from {STRATEGIES}")
    for r in ratios:
        if not isinstance(r, (int, float)) or not 0.0 < r <= 1.0:
            raise ConfigError(f"{section}: ratio must lie in (0, 1], got {r!r}")


@dataclass(frozen=True)
class SelectionConfig:
    strategies: tuple[str, ...] = ("top", "bottom", "random", "full")
    ratio: float = 0.5

    def __post_init__(self):
        _check_selection("selection", self.strategies, (self.ratio,))


@dataclass(frozen=True)
class CorruptionConfig:
    fraction: float = 0.0
    kind: str = "gaussian_burst"
    magnitude: float = 0.3
    seed: int = 0

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


@dataclass(frozen=True)
class AblationConfig:
    block_lengths: tuple[int, ...] = (50, 75, 100, 125)
    ratio: float = 0.2
    strategies: tuple[str, ...] = ("top", "bottom", "random")

    def __post_init__(self):
        if not self.block_lengths:
            raise ConfigError("ablation: block_lengths must not be empty")
        _check_selection("ablation", self.strategies, (self.ratio,))


@dataclass(frozen=True)
class BenchConfig:
    p_list: tuple[int, ...] = (300, 1000, 3000, 10000, 30000)
    methods: tuple[str, ...] = ("one_step", "exact_influence")
    n_blocks: int = 256
    n_context: int = 64
    repeats: int = 3
    exact_limit: int = 3000


@dataclass(frozen=True)
class GeneralizeConfig:
    ratios: tuple[float, ...] = (0.2,)
    strategies: tuple[str, ...] = ("top", "bottom", "random")

    def __post_init__(self):
        _check_selection("generalize", self.strategies, self.ratios)


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetConfig
    test_fraction: float
    normalize: bool
    valuation: ValuationConfig
    model: ModelConfig
    downstream_model: ModelConfig
    pretrain: TrainSettings
    finetune: TrainSettings
    selection: SelectionConfig
    corruption: CorruptionConfig
    oracle_compare: OracleCompareConfig
    ablation: AblationConfig
    bench: BenchConfig
    generalize: GeneralizeConfig
    seed: int
    output_dir: str

    @classmethod
    def from_dict(cls, raw: dict, seed: int | None = None,
                  output_dir: str | None = None) -> "RunConfig":
        if "workers" in raw:  # went with the scoring thread pool; ignored and not hashed
            print("tsvalue: warning: config key 'workers' is deprecated; ignored", file=sys.stderr)
            raw = {k: v for k, v in raw.items() if k != "workers"}
        top = _section(raw, {
            "dataset": None, "test_fraction": 0.3, "normalize": True,
            "valuation": None, "model": None, "downstream_model": None,
            "pretrain": None, "finetune": None, "selection": None,
            "corruption": None, "oracle_compare": None, "ablation": None,
            "bench": None, "generalize": None, "seed": 0, "output_dir": "out",
        }, "top level")
        the_seed = top["seed"] if seed is None else seed
        cfg = cls(
            dataset=DatasetConfig.from_dict(top["dataset"]),
            test_fraction=float(top["test_fraction"]),
            normalize=bool(top["normalize"]),
            valuation=_valuation(top["valuation"], the_seed),
            model=ModelConfig.from_dict(top["model"], "model"),
            downstream_model=ModelConfig.from_dict(
                top["downstream_model"], "downstream_model"),
            pretrain=_train_settings(top["pretrain"], "pretrain"),
            finetune=_train_settings(top["finetune"], "finetune", epochs=10),
            selection=SelectionConfig(**_section(
                top["selection"], {"strategies": ("top", "bottom", "random", "full"),
                                   "ratio": 0.5}, "selection")),
            corruption=CorruptionConfig(**_section(
                top["corruption"], {"fraction": 0.0, "kind": "gaussian_burst",
                                    "magnitude": 0.3, "seed": 0}, "corruption")),
            oracle_compare=OracleCompareConfig(**_section(
                top["oracle_compare"],
                {"methods": ("one_step", "grad_inner", "exact_influence"),
                 "max_blocks": 50, "stride": None, "context_cap": 50,
                 "shapley_mode": "mc", "shapley_permutations": 50,
                 "shapley_epochs": 3}, "oracle_compare")),
            ablation=AblationConfig(**_section(
                top["ablation"], {"block_lengths": (50, 75, 100, 125),
                                  "ratio": 0.2,
                                  "strategies": ("top", "bottom", "random")},
                "ablation")),
            bench=BenchConfig(**_section(
                top["bench"], {"p_list": (300, 1000, 3000, 10000, 30000),
                               "methods": ("one_step", "exact_influence"),
                               "n_blocks": 256, "n_context": 64, "repeats": 3,
                               "exact_limit": 3000}, "bench")),
            generalize=GeneralizeConfig(**_section(
                top["generalize"], {"ratios": (0.2,),
                                    "strategies": ("top", "bottom", "random")},
                "generalize")),
            seed=the_seed,
            output_dir=top["output_dir"] if output_dir is None else output_dir,
        )
        return cfg

    @classmethod
    def load(cls, path: str | Path, **overrides) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        return cls.from_dict(raw, **overrides)

    def normalized(self) -> dict:
        """Fully-defaulted plain-dict form; the hash input."""
        return asdict(self)

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.normalized(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
