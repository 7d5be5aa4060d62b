"""Byte-identity of everything derived from a fitted tree, of the
dataset text and of the stimulus trace.

The SHA-256 digests of tree outputs below were recorded from the
linked-node tree representation that preceded the preorder arrays; any
change in how a tree is stored, walked, saved, printed or quantized that
alters one byte of these outputs fails here.  The dataset digest was
recorded from the per-cell writer that preceded the row-block codec.
"""

import hashlib

import numpy as np
import pytest

import powertree as pt
from powertree.workload import Dataset


def _single_leaf():
    ds = Dataset(np.array([[1], [2], [3]], dtype=np.int64),
                 np.array([5.0, 5.0, 5.0]), ("f0",), 1000, 1e8)
    return ds, pt.HyperParams(4, 2, 1, 0.0)


def _depth_4():
    rng = np.random.default_rng(21)
    X = rng.integers(0, 40, (200, 4)).astype(np.int64)
    y = rng.uniform(0.5, 8.0, 200)
    ds = Dataset(X, y, tuple(f"f{j}" for j in range(4)), 1000, 1e8)
    return ds, pt.HyperParams(4, 5, 2, 0.0)


def _depth_8():
    design = pt.generate_design(pt.hybrid_design_spec(seed=3))
    ds = pt.simulate_dataset(design, 1000, 300, seed=4)
    return ds, pt.HyperParams(8, 5, 5, 0.001)


FITS = {"single_leaf": (_single_leaf, 0), "depth_4": (_depth_4, 4),
        "depth_8": (_depth_8, 8)}

GOLDEN = {
    "single_leaf": {
        "save_tree":
            "9573bc432b5f51b190e49233b6981a3193f011bd54ddebc0e8f341e7fb55e1b0",
        "rule_text":
            "1d1cf0729e8f928ab22a76c7f1790bedf2a5392494db0c7405870b3f2bafcb38",
        "quantize":
            "ef2d2e6d36bfc7b55a484dfa437a2add1fcba8a28e05afabb4da51c0f744da03",
        "feature_importances":
            "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        "predict_tree_batch":
            "7a8a0b2bd96443a05c139cb1d10672e20e2cd7fc010e3e960e207137595c794f",
    },
    "depth_4": {
        "save_tree":
            "e812fffa519025dd6a42671fd276c7f95b9b357a8a9cfc06a7b45423a51af904",
        "rule_text":
            "d3d1506c58816497ee71f8c604dc7a0970676fea37fc68fd6be9cd7f10d9d5af",
        "quantize":
            "c8f41a55e3843357d36d90aff3647fed86c9f676eeb64f452ab225286892cca4",
        "feature_importances":
            "bad95d78558ea1e19c49c3de7a273926cccd63612a177347f35495d2d5342487",
        "predict_tree_batch":
            "8b0779440feefc552714a3c4b333fc3ab7e78a0d1ac4ac58e6f93a8bd55590a4",
    },
    "depth_8": {
        "save_tree":
            "8ff17d28704495be88d108daba03007e3752d88c511c77c53e8fbdfef39275e0",
        "rule_text":
            "eee053f60d8537e7f8b06c0684f5e20c713818ebb3be3a7b9ee1f22fd9354de1",
        "quantize":
            "f0a12cdd8957cc6678e3320cbae981b5148ec10d48398af2bfc7db495636bafd",
        "feature_importances":
            "97c6adfcf03c6f155ac77dfb95bb3249d5c3511bc434a5333cd6ecddcabec72c",
        "predict_tree_batch":
            "01c96c25811e7d2ab5a11a70b9648b1ce3fda31d6a945b33c4b792f552286370",
    },
}


def digests(name, tmp_path):
    make, depth = FITS[name]
    ds, hp = make()
    tree = pt.fit_tree(ds, hp)
    assert tree.depth == depth
    path = tmp_path / f"{name}.json"
    pt.save_tree(tree, path)
    # training rows plus rows outside the training range
    rng = np.random.default_rng(5)
    X = np.vstack([ds.features, rng.integers(0, 400, (100, ds.n_features))])

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    return {
        "save_tree": sha(path.read_bytes()),
        "rule_text": sha(pt.rule_text(tree).encode()),
        "quantize": sha(pt.quantize(tree).words.tobytes()),
        "feature_importances": sha(pt.feature_importances(tree).tobytes()),
        "predict_tree_batch": sha(pt.predict_tree_batch(tree, X).tobytes()),
    }


@pytest.mark.parametrize("name", list(FITS))
def test_tree_outputs_byte_identical(name, tmp_path):
    assert digests(name, tmp_path) == GOLDEN[name]


DATASET_CSV_SHA256 = \
    "a6719c846bdeb6c002eaa290857d7d8089b82f063f609a753fb829a84a6f17b7"


def test_dataset_text_byte_identical():
    ds = _depth_8()[0]
    text = pt.dataset_csv_text(ds)
    assert hashlib.sha256(text.encode()).hexdigest() == DATASET_CSV_SHA256


# The stimulus stream: synthesize_trace's levels for monitor_long's trace
# (the hybrid design of seed 1, 100 periods of 300 cycles, seed 8) and for
# an odd period, recorded before the pulses were written in place.
TRACE_LEVELS_SHA256 = {
    (100, 300, 8):
        "837b19be783a2264b20bcf3aa5dfb4694698320fb5bc0cd9714e900886df5a9e",
    (7, 301, 3):
        "4ac70cd3e4d1ce5d87f66072d1731ef1621d8620a12f5f1893ea806389f8718e",
}


@pytest.mark.parametrize("n_periods, period, seed", list(TRACE_LEVELS_SHA256))
def test_trace_levels_byte_identical(n_periods, period, seed):
    design = pt.generate_design(pt.hybrid_design_spec(1))
    levels = pt.synthesize_trace(design, n_periods, period, seed).levels
    assert levels.dtype == np.uint8
    assert levels.shape == (120, n_periods * period)
    assert hashlib.sha256(levels.tobytes()).hexdigest() \
        == TRACE_LEVELS_SHA256[n_periods, period, seed]
