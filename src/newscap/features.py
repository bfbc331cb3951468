"""Image feature files: flat little-endian float32 [K x D] grids with a JSON
sidecar {k, d, checksum}. A seeded synthetic generator produces valid files
for tests and the desk-scale corpus."""

from __future__ import annotations

import collections
import hashlib
import json
import os

import numpy as np

# Bytes of grids a FeatureStore keeps: 83 paper-sized grids (49 x 2048
# float32, 401 KB each), where a sample's forward and backward cost some 70
# times a grid's reload.
CACHE_BYTES = 32 << 20


class FeatureError(Exception):
    pass


def _sidecar_path(path):
    return path + ".json"


def save_features(grid, path):
    grid = np.ascontiguousarray(grid, dtype="<f4")
    if grid.ndim != 2:
        raise FeatureError("feature grid must be 2-D [K x D]")
    blob = grid.tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)
    sidecar = {
        "k": grid.shape[0],
        "d": grid.shape[1],
        "checksum": hashlib.sha256(blob).hexdigest(),
    }
    with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True)
        fh.write("\n")


def _read_sidecar(path):
    """The sidecar {k, d, checksum} of the feature file at path; k and d
    must be integers >= 1."""
    try:
        with open(_sidecar_path(path), encoding="utf-8") as fh:
            sidecar = json.load(fh)
        sidecar = {key: sidecar[key] for key in ("k", "d", "checksum")}
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise FeatureError(f"cannot read the sidecar of {path}: "
                           f"{type(e).__name__}: {e}")
    for key in ("k", "d"):
        if type(sidecar[key]) is not int or sidecar[key] < 1:
            raise FeatureError(f"the sidecar of {path} has {key} "
                               f"{sidecar[key]!r}; it must be an integer >= 1")
    return sidecar


def load_features(path):
    sidecar = _read_sidecar(path)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise FeatureError(f"cannot read feature file {path}: {e}")
    k, d = sidecar["k"], sidecar["d"]
    if len(blob) != k * d * 4:
        raise FeatureError(f"{path} holds {len(blob)} bytes; its sidecar's "
                           f"{k} x {d} float32 grid needs {k * d * 4}")
    if hashlib.sha256(blob).hexdigest() != sidecar["checksum"]:
        raise FeatureError(f"feature checksum mismatch for {path}")
    grid = np.frombuffer(blob, dtype="<f4").reshape(k, d)
    if not np.all(np.isfinite(grid)):
        raise FeatureError(f"non-finite feature values in {path}")
    return grid.astype(np.float32)


def synthetic_features(k, d, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=(k, d)).astype(np.float32)


class FeatureStore:
    """Caches feature grids by ref, resolving relative refs against a root.
    It holds at most CACHE_BYTES of grids and evicts the least recently used
    first."""

    def __init__(self, root=""):
        self.root = root
        self._cache = collections.OrderedDict()
        self.cached_bytes = 0

    def _path(self, ref):
        return ref if os.path.isabs(ref) else os.path.join(self.root, ref)

    def get(self, ref):
        grid = self._cache.get(ref)
        if grid is not None:
            self._cache.move_to_end(ref)
            return grid
        grid = self._cache[ref] = load_features(self._path(ref))
        self.cached_bytes += grid.nbytes
        while self.cached_bytes > CACHE_BYTES:
            _, old = self._cache.popitem(last=False)
            self.cached_bytes -= old.nbytes
        return grid

    def check(self, refs, feat_dim):
        """Reject, before any work, a ref whose sidecar is missing or
        unreadable or whose grids are not feat_dim wide."""
        for ref in dict.fromkeys(refs):
            path = self._path(ref)
            d = _read_sidecar(path)["d"]
            if d != feat_dim:
                raise FeatureError(
                    f"{path} holds {d}-wide features; the model's feat_dim "
                    f"is {feat_dim}")
