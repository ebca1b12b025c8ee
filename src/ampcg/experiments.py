"""Scripted recovery experiments.

Each seed draws a random chain graph, random parameters rescaled to equal
error variances, and either the exact population covariance or samples of
the requested sizes. Up to `graphs.CLASS_CAP` nodes the parameters are
checked faithful to the graph by `sem.faithful_parameters`: the graph's
separation table, read once as a vector in pairwise-query order, is
compared with every pairwise independence of each draw. The chosen
method then tries to recover the graph and the report records exact
matches, structural Hamming distance and margins.
Rows are produced in seed order regardless of scheduling, so a config maps
to one report (timing columns aside).
"""

from __future__ import annotations

import csv
import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

from .graphs import CLASS_CAP, ChainGraph, random_chain_graph, structural_hamming_distance
from .io import _write_json, graph_hash, graph_to_dict
from .search import SearchConfig, greedy_search, identify_in_class, two_phase
from .seeds import _integer, compose_seed
from .sem import (
    faithful_parameters,
    implied_distribution,
    random_parameters,
    rescale_equal_variances,
    sample,
)

__all__ = ["ExperimentConfig", "ExperimentReport", "run_experiment", "write_report"]

_METHODS = ("identify", "greedy", "two-phase")


@dataclass(frozen=True)
class ExperimentConfig:
    p: int
    seeds: tuple
    edge_prob: float = 0.4
    undirected_frac: float = 0.3
    sigma2: float = 1.0
    n_list: tuple = ()
    method: str = "identify"
    out_dir: str | None = None
    workers: int = 1

    def __post_init__(self):
        """Reject a field of the wrong type or range by name, before any run.

        No value of the wrong type is converted: "3" is not p = 3, and 1.5
        is not a worker count (`seeds._integer`). p and workers are kept as
        ints, seeds and n_list as tuples of ints.
        """
        object.__setattr__(self, "p", _at_least("p", self.p, 1, ">= 1"))
        object.__setattr__(self, "workers", _at_least("workers", self.workers, 1, ">= 1"))
        for name, least, bound in (("seeds", 0, "non-negative"), ("n_list", 1, ">= 1")):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} must be a list of integers, got {type(values).__name__}")
            object.__setattr__(self, name, tuple(_at_least(name, value, least, bound) for value in values))
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        for name in ("edge_prob", "undirected_frac", "sigma2"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0 < self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")


def _at_least(name: str, value, least: int, bound: str) -> int:
    """value as an int, or ValueError naming `name` unless it is an integer (`seeds._integer`) of at least `least`."""
    value = _integer(value, name)
    if value < least:
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    config: ExperimentConfig
    rows: tuple
    recovery: dict


def _apply_method(cfg: ExperimentConfig, truth: ChainGraph, data_or_cov, seed: int):
    if cfg.method == "identify":
        result = identify_in_class(truth, data_or_cov)
        return result.chosen, result.margin
    if cfg.method == "two-phase":
        result = two_phase(data_or_cov)
        return result.chosen, result.margin
    return greedy_search(data_or_cov, SearchConfig(seed=seed)), math.nan


def _run_seed(cfg: ExperimentConfig, seed: int) -> list:
    rows = []
    truth = random_chain_graph(cfg.p, cfg.edge_prob, cfg.undirected_frac, seed=compose_seed(seed, 0))
    if cfg.p <= CLASS_CAP:  # faithful draws check every separation, so they stop at the enumeration cap
        params, _draws = faithful_parameters(truth, seed=compose_seed(seed, 1), sigma2=cfg.sigma2)
    else:
        params = rescale_equal_variances(random_parameters(truth, seed=compose_seed(seed, 1)), cfg.sigma2)
    dist = implied_distribution(params)
    for n in cfg.n_list or (None,):
        started = time.perf_counter()
        row = {
            "seed": seed,
            "n": "" if n is None else n,
            "true_hash": graph_hash(truth),
            "recovered_hash": "",
            "exact": False,
            "shd": "",
            "margin": "",
            "runtime_s": 0.0,
            "error": "",
            "true_graph": graph_to_dict(truth),
            "recovered_graph": None,
        }
        try:
            data_or_cov = dist.cov if n is None else sample(dist, n, seed=compose_seed(seed, 2, n))
            chosen, margin = _apply_method(cfg, truth, data_or_cov, seed)
            row.update(
                recovered_hash=graph_hash(chosen),
                exact=chosen == truth,
                shd=structural_hamming_distance(truth, chosen),
                margin=margin if math.isfinite(margin) else "",  # greedy has no class, identify may have no runner-up
                recovered_graph=graph_to_dict(chosen),
            )
        except Exception as exc:  # recorded per row; the sweep continues
            row["error"] = f"{type(exc).__name__}: {exc}"
        row["runtime_s"] = round(time.perf_counter() - started, 6)
        rows.append(row)
    return rows


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            per_seed = list(pool.map(_run_seed, [cfg] * len(cfg.seeds), cfg.seeds))
    else:
        per_seed = [_run_seed(cfg, seed) for seed in cfg.seeds]
    rows = [row for chunk in per_seed for row in chunk]
    recovery: dict[str, float] = {}
    for n in cfg.n_list or (None,):
        key = "population" if n is None else str(n)
        subset = [r for r in rows if r["n"] == ("" if n is None else n)]
        recovery[key] = sum(1 for r in subset if r["exact"]) / len(subset)
    report = ExperimentReport(config=cfg, rows=tuple(rows), recovery=recovery)
    if cfg.out_dir is not None:
        write_report(report, cfg.out_dir)
    return report


_CSV_COLUMNS = (
    "seed",
    "n",
    "true_hash",
    "recovered_hash",
    "exact",
    "shd",
    "margin",
    "runtime_s",
    "error",
)


def write_report(report: ExperimentReport, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in report.rows:
            writer.writerow(row)
    payload = {
        "config": asdict(report.config),
        "recovery": report.recovery,
        "rows": list(report.rows),
    }
    _write_json(payload, out / "report.json")
