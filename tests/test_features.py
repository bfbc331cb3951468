"""Tests for feature files and the feature store: the byte-bounded cache
and what the loader makes of damaged sidecars and blobs."""

import hashlib
import json

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from newscap import features as F
from newscap.features import (FeatureError, FeatureStore, load_features,
                              save_features, synthetic_features)


def test_store_keeps_at_most_its_byte_budget(tmp_path, monkeypatch):
    """Grids of 3 x 5 float32 are 60 bytes: a 150-byte budget holds two.
    The least recently used goes first, and an evicted grid reloads equal."""
    monkeypatch.setattr(F, "CACHE_BYTES", 150)
    grids = {}
    for i in range(4):
        grids[f"g{i}"] = synthetic_features(3, 5, seed=i)
        save_features(grids[f"g{i}"], str(tmp_path / f"g{i}"))
    loads = []
    load = F.load_features

    def counted(path):
        loads.append(path)
        return load(path)

    monkeypatch.setattr(F, "load_features", counted)
    store = FeatureStore(str(tmp_path))
    for ref in ["g0", "g1", "g0", "g2", "g0", "g1", "g3", "g2", "g3", "g0"]:
        assert np.array_equal(store.get(ref), grids[ref])
        assert store.cached_bytes == sum(g.nbytes
                                         for g in store._cache.values())
        assert store.cached_bytes <= F.CACHE_BYTES
    # g0, read again before each new load, outlived g1 and g2 until g3
    assert [p[len(str(tmp_path)) + 1:] for p in loads] == \
        ["g0", "g1", "g2", "g1", "g3", "g2", "g0"]


def test_store_holds_both_bench_working_sets():
    """32 desk grids (9 x 32) and 8 paper-sized ones (49 x 2048) fit."""
    assert 32 * 9 * 32 * 4 <= F.CACHE_BYTES
    assert 8 * 49 * 2048 * 4 <= F.CACHE_BYTES


GRID = synthetic_features(3, 4, seed=9)
JUNK = (st.none() | st.booleans() | st.integers(-5, 30)
        | st.integers(-5, 30).map(float) | st.integers(-5, 30).map(str)
        | st.integers(min_value=2 ** 62) | st.floats() | st.text(max_size=4)
        | st.lists(st.integers(0, 5), max_size=2))
MUTATIONS = st.one_of(
    st.tuples(st.just("sidecar"), st.sampled_from(["k", "d", "checksum"]),
              JUNK),
    st.tuples(st.just("drop"), st.sampled_from(["k", "d", "checksum"])),
    st.tuples(st.just("sidecar json"), st.sampled_from(
        ["[]", "3", '"k"', "{", "", "null", '{"k": NaN}'])),
    st.tuples(st.just("cut"), st.integers(1, GRID.nbytes)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=9)),
    st.tuples(st.just("value"), st.integers(0, GRID.size - 1),
              st.sampled_from([np.nan, np.inf, -np.inf]),
              st.booleans()),
    st.tuples(st.just("flip"), st.integers(0, GRID.nbytes - 1)),
)


def _mutate(path, mutation):
    """Apply one mutation to the feature file at path and its sidecar."""
    sidecar_path = path + ".json"
    sidecar = json.loads(open(sidecar_path).read())
    blob = bytearray(open(path, "rb").read())
    kind = mutation[0]
    if kind == "sidecar":
        sidecar[mutation[1]] = mutation[2]
    elif kind == "drop":
        del sidecar[mutation[1]]
    elif kind == "cut":
        blob = blob[:-mutation[1]]
    elif kind == "extend":
        blob += mutation[1]
    elif kind == "value":  # with the checksum of the new blob or the old one
        _, index, value, rehash = mutation
        grid = np.frombuffer(bytes(blob), dtype="<f4").copy()
        grid[index] = value
        blob = bytearray(grid.tobytes())
        if rehash:
            sidecar["checksum"] = hashlib.sha256(blob).hexdigest()
    elif kind == "flip":
        blob[mutation[1]] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(blob)
    with open(sidecar_path, "w") as fh:
        if kind == "sidecar json":
            fh.write(mutation[1])
        else:
            fh.write(json.dumps(sidecar))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=MUTATIONS)
def test_damaged_feature_file_loads_exactly_or_raises_feature_error(
        tmp_path, mutation):
    """Whatever one mutation does to the sidecar's k, d or checksum (value,
    type or presence), to the blob's length or to its values (NaN, inf or a
    flipped bit), loading returns the exact grid or raises FeatureError,
    which the command line turns into exit 2."""
    path = str(tmp_path / "f.bin")
    save_features(GRID, path)
    _mutate(path, mutation)
    try:
        grid = load_features(path)
    except FeatureError:
        grid = None
    if grid is not None:
        assert grid.dtype == np.float32
        assert np.array_equal(grid, GRID)
    try:
        FeatureStore(str(tmp_path)).check(["f.bin"], GRID.shape[1])
    except FeatureError:
        pass

