"""Plain-text file formats for matrices and sample sets.

Matrix files are diffable and language-neutral: optional '#'-prefixed
metadata lines, a 'm1 m2' dimension line, then m1 rows of m2 decimal values.
Sample-set files use the same header style followed by one 'row col label'
line per observation.
"""

import numpy as np

from .model import SampleSet, Shape, TruthMatrix


def _write_header(handle, metadata: dict):
    for key, value in metadata.items():
        handle.write(f"# {key} {value}\n")


def write_matrix(path, X: np.ndarray, metadata: dict | None = None):
    X = np.asarray(X, dtype=float)
    with open(path, "w") as handle:
        _write_header(handle, metadata or {})
        handle.write(f"{X.shape[0]} {X.shape[1]}\n")
        for row in X:
            handle.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def write_truth(path, truth: TruthMatrix, seed: int | None = None):
    metadata = {"r": truth.rank_budget, "gamma": f"{truth.gamma:.17g}",
                "margin_tau": f"{truth.margin_tau:.17g}",
                "generator": truth.generator_tag}
    if seed is not None:
        metadata["seed"] = seed
    write_matrix(path, truth.entries, metadata)


def _read_lines(path) -> tuple[dict, list]:
    """Split a file into its '# key value' metadata and its nonblank body lines.

    Each body line comes as (1-based line number in the file, text).
    """
    metadata = {}
    body = []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if line.startswith("#"):
                parts = line[1:].strip().split(None, 1)
                if len(parts) == 2:
                    metadata[parts[0]] = parts[1]
            elif line.strip():
                body.append((number, line))
    return metadata, body


def _parse_line(path, number: int, line: str, kind) -> list:
    """The whitespace-separated values of one body line, read by kind."""
    try:
        return [kind(v) for v in line.split()]
    except ValueError:
        raise ValueError(f"{path}, line {number}: cannot read {line!r} as "
                         f"{kind.__name__} values") from None


def read_matrix(path) -> tuple[np.ndarray, dict]:
    """Read a matrix file; returns (entries, metadata dict of strings)."""
    metadata, body = _read_lines(path)
    if not body:
        raise ValueError(f"{path}: no dimension line found")
    number, line = body[0]
    dims = _parse_line(path, number, line, int)
    if len(dims) != 2:
        raise ValueError(f"{path}, line {number}: malformed dimension line "
                         f"{line!r}")
    m1, m2 = dims
    if len(body) != 1 + m1:
        raise ValueError(f"{path}: expected {m1} rows, found {len(body) - 1}")
    entries = np.array([_parse_line(path, number, line, float)
                        for number, line in body[1:]])
    if entries.shape != (m1, m2):
        raise ValueError(f"{path}: row width does not match {m2} columns")
    return entries, metadata


def read_truth(path) -> TruthMatrix:
    entries, metadata = read_matrix(path)
    required = {"r", "gamma", "margin_tau", "generator"}
    missing = required - set(metadata)
    if missing:
        raise ValueError(f"{path}: missing truth metadata {sorted(missing)}")
    return TruthMatrix(entries=entries, rank_budget=int(metadata["r"]),
                       gamma=float(metadata["gamma"]),
                       margin_tau=float(metadata["margin_tau"]),
                       generator_tag=metadata["generator"])


def write_samples(path, samples: SampleSet):
    metadata = {"m1": samples.shape.m1, "m2": samples.shape.m2,
                "scheme": samples.scheme, "seed": samples.seed,
                "n": samples.n}
    with open(path, "w") as handle:
        _write_header(handle, metadata)
        for (row, col), label in zip(samples.indices, samples.labels):
            handle.write(f"{row} {col} {int(label)}\n")


def read_samples(path) -> SampleSet:
    """Read a sample-set file of 'row col label' lines.

    Every index must lie in the header's m1 x m2 shape, every label be -1 or
    +1, and an optional '# n' header match the number of lines.
    """
    metadata, body = _read_lines(path)
    required = {"m1", "m2", "scheme", "seed"}
    missing = required - set(metadata)
    if missing:
        raise ValueError(f"{path}: missing sample metadata {sorted(missing)}")
    shape = Shape(int(metadata["m1"]), int(metadata["m2"]))
    triples = [_parse_line(path, number, line, int) for number, line in body]
    if any(len(t) != 3 for t in triples):
        raise ValueError(f"{path}: a sample line is not 'row col label'")
    arr = np.array(triples, dtype=np.int64).reshape(-1, 3)
    rows, cols, labels = arr.T
    if np.any((rows < 0) | (rows >= shape.m1) | (cols < 0) | (cols >= shape.m2)):
        raise ValueError(f"{path}: a sample index lies outside "
                         f"{shape.m1}x{shape.m2}")
    if np.any(np.abs(labels) != 1):
        raise ValueError(f"{path}: a label is not -1 or +1")
    if int(metadata.get("n", len(arr))) != len(arr):
        raise ValueError(f"{path}: header n {metadata['n']} but {len(arr)} "
                         "samples")
    return SampleSet(indices=arr[:, :2], labels=labels.astype(np.int8),
                     scheme=metadata["scheme"], seed=int(metadata["seed"]),
                     shape=shape)
