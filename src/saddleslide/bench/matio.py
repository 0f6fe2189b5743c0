"""Binary matrix files and JSON manifests for benchmark instances.

Matrices are dense little-endian: a 16-byte header of u64 rows, u64 cols,
then row-major float64 payload.  Manifests are JSON documents with schema
version "1".  Both round-trip bit-exactly.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from ..errors import ManifestError

SCHEMA_VERSION = "1"
_HEADER = struct.Struct("<QQ")


def write_matrix(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ManifestError(f"can only store 1-d or 2-d arrays, got ndim={arr.ndim}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(arr.shape[0], arr.shape[1]))
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ManifestError(f"truncated header in {path}")
        rows, cols = _HEADER.unpack(header)
        payload = fh.read()
    expected = rows * cols * 8
    if len(payload) != expected:
        raise ManifestError(
            f"{path}: expected {expected} payload bytes, found {len(payload)}"
        )
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).astype(float)


def save_manifest(path, manifest: dict) -> None:
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise ManifestError(
            f"manifest schema_version must be {SCHEMA_VERSION!r}, "
            f"got {manifest.get('schema_version')!r}"
        )
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path) -> dict:
    path = Path(path)
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON ({exc})") from exc
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise ManifestError(
            f"{path}: unsupported schema_version {manifest.get('schema_version')!r}"
        )
    for key in ("kind", "files", "dimensions", "constants", "seed"):
        if key not in manifest:
            raise ManifestError(f"{path}: missing manifest key {key!r}")
    return manifest
