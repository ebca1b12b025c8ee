"""File formats: graph JSON, parameter JSON, covariance JSON, dataset CSV.

All JSON readers are strict: unknown fields are rejected so that stored
experiment inputs stay honest, and graphs that fail validity are rejected
with a diagnostic naming one offending cycle.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .graphs import ChainGraph, _default_label, _require_chain_graph
from .sem import Dataset, SemParameters

__all__ = [
    "graph_from_dict",
    "graph_hash",
    "graph_to_dict",
    "parameters_from_dict",
    "parameters_to_dict",
    "read_covariance",
    "read_dataset",
    "read_graph",
    "read_parameters",
    "write_covariance",
    "write_dataset",
    "write_graph",
    "write_parameters",
]


def _require_keys(payload: dict, required: set, optional: set, what: str) -> None:
    keys = set(payload)
    unknown = keys - required - optional
    if unknown:
        raise ValueError(f"unknown field(s) in {what}: {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ValueError(f"missing field(s) in {what}: {sorted(missing)}")


def graph_to_dict(g: ChainGraph) -> dict:
    return {
        "p": g.p,
        "labels": [g.node_label(j) for j in range(g.p)],
        "directed": [list(e) for e in sorted(g.directed)],
        "undirected": [list(e) for e in sorted(g.undirected)],
    }


def graph_from_dict(payload: dict) -> ChainGraph:
    _require_keys(payload, {"p", "directed", "undirected"}, {"labels"}, "graph")
    g = ChainGraph(
        p=payload["p"],
        directed=frozenset(tuple(e) for e in payload["directed"]),
        undirected=frozenset(tuple(e) for e in payload["undirected"]),
        labels=tuple(payload["labels"]) if payload.get("labels") is not None else None,
    )
    _require_chain_graph(g)
    return g


def read_graph(path) -> ChainGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return graph_from_dict(json.load(handle))


def _write_json(payload, path) -> None:
    """Write payload as indented, key-sorted JSON plus a newline, creating parent directories."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_graph(g: ChainGraph, path) -> None:
    _write_json(graph_to_dict(g), path)


def graph_hash(g: ChainGraph) -> str:
    blob = json.dumps(
        {"p": g.p, "directed": sorted(g.directed), "undirected": sorted(g.undirected)},
        sort_keys=True,
    )
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:12]


def parameters_to_dict(params: SemParameters) -> dict:
    return {
        "beta": params.beta.tolist(),
        "sigma": params.sigma.tolist(),
        "graph": graph_to_dict(params.graph),
    }


def parameters_from_dict(payload: dict) -> SemParameters:
    _require_keys(payload, {"beta", "sigma", "graph"}, set(), "parameters")
    return SemParameters(
        graph=graph_from_dict(payload["graph"]),
        beta=np.asarray(payload["beta"], dtype=float),
        sigma=np.asarray(payload["sigma"], dtype=float),
    )


def read_parameters(path) -> SemParameters:
    with open(path, "r", encoding="utf-8") as handle:
        return parameters_from_dict(json.load(handle))


def write_parameters(params: SemParameters, path) -> None:
    _write_json(parameters_to_dict(params), path)


def read_covariance(path) -> np.ndarray:
    return _read_labelled_covariance(path)[0]


def _read_labelled_covariance(path) -> tuple[np.ndarray, tuple | None]:
    """(covariance, its labels or None) of a covariance file; the labels name the rows in order."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    _require_keys(payload, {"cov"}, {"labels"}, "covariance")
    cov = np.asarray(payload["cov"], dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"cov must be square, got shape {cov.shape}")
    labels = payload.get("labels")
    if labels is None:
        return cov, None
    if len(labels) != len(cov):
        raise ValueError(f"covariance has {len(labels)} labels for {len(cov)} rows")
    return cov, tuple(str(x) for x in labels)


def write_covariance(cov: np.ndarray, path, labels=None) -> None:
    payload = {"cov": np.asarray(cov, dtype=float).tolist()}
    if labels is not None:
        payload["labels"] = list(labels)
    _write_json(payload, path)


def read_dataset(path) -> Dataset:
    """The dataset of a CSV file: a header of column labels, then one sample per non-empty row.

    A row whose width differs from the header's, or a cell that is not a
    number, raises ValueError naming the column label and the data row
    (1 for the first sample); so does a non-finite number (see `Dataset`).
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            labels = next(reader)
        except StopIteration:
            raise ValueError("dataset file is empty") from None
        if not labels:
            raise ValueError("dataset header names no columns")
        rows = [_sample_row(row, labels, i) for i, row in enumerate(filter(None, reader), start=1)]
    if not rows:
        raise ValueError("dataset has a header but no samples")
    return Dataset(values=np.asarray(rows, dtype=float), labels=tuple(labels))


def _sample_row(row: list, labels: list, i: int) -> list:
    """The numbers of data row i, or ValueError naming the column that does not hold one."""
    if len(row) < len(labels):
        raise ValueError(f"data row {i} ends before column {labels[len(row)]}: {len(row)} of {len(labels)} entries")
    if len(row) > len(labels):
        raise ValueError(f"data row {i} has {len(row)} entries, past the header's last column {labels[-1]}")
    values = []
    for label, cell in zip(labels, row):
        try:
            values.append(float(cell))
        except ValueError:
            raise ValueError(f"column {label}, data row {i}: {cell!r} is not a number") from None
    return values


def write_dataset(data: Dataset, path) -> None:
    labels = data.labels or tuple(map(_default_label, range(data.p)))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(labels)
        for row in data.values:
            writer.writerow([repr(float(x)) for x in row])
