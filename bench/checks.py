"""Output checks written independently of the code under test, and a
self-test proving that each check fails on a corrupted input.

Every check returns the number of program calls whose output it rejects.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import numpy as np

# Node word layout of the monitor's structure memory, decoded here without
# the program's own decoder.
_LEAF_BIT = 63
_FEATURE = (48, 0x7FFF)
_THRESHOLD = (28, 0xFFFFF)
_LEFT = (14, 0x3FFF)
_RIGHT_MASK = 0x3FFF
_VALUE_MASK = 0xFFFF

ENGINE_TOLERANCE_MW = 0.5


def edge_counts(levels: np.ndarray, period: int,
                chunk: int = 100) -> np.ndarray:
    """(n_periods, n_signals) positive-edge counts with the edge register
    cleared at every period start, so a period opening at level 1 counts."""
    n_sig, n_cycles = levels.shape
    n_periods = n_cycles // period
    out = np.empty((n_periods, n_sig), dtype=np.int64)
    for p0 in range(0, n_periods, chunk):
        p1 = min(n_periods, p0 + chunk)
        lv = levels[:, p0 * period:p1 * period].reshape(n_sig, p1 - p0, period)
        lv = lv.astype(bool)
        rising = (lv[:, :, 1:] & ~lv[:, :, :-1]).sum(axis=2)
        out[p0:p1] = (rising + lv[:, :, 0]).T
    return out


def feature_mismatches(features, expected: np.ndarray) -> int:
    """Rows of period_features output that differ from the oracle."""
    rows = expected.tolist()
    bad = sum(1 for got, want in zip(features, rows) if list(got) != want)
    return bad + abs(len(features) - len(rows))


def walk_image(words, X) -> tuple[list[int], list[int]]:
    """(leaf value LSBs, leaf depth) per feature row; depth -1 marks a walk
    that leaves the memory or revisits more nodes than it holds."""
    words = [int(w) for w in words]
    values, depths = [], []
    for x in X:
        addr, depth = 0, 0
        while depth <= len(words) and 0 <= addr < len(words):
            w = words[addr]
            if w >> _LEAF_BIT:
                break
            feature = (w >> _FEATURE[0]) & _FEATURE[1]
            threshold = (w >> _THRESHOLD[0]) & _THRESHOLD[1]
            if feature >= len(x):
                break
            addr = (w >> _LEFT[0]) & _LEFT[1] if x[feature] <= threshold \
                else w & _RIGHT_MASK
            depth += 1
        ok = 0 <= addr < len(words) and words[addr] >> _LEAF_BIT
        values.append(words[addr] & _VALUE_MASK if ok else -1)
        depths.append(depth if ok else -1)
    return values, depths


def engine_failures(estimates_mw, cycles, image, X, software_w,
                    tree_depth: int) -> int:
    """Engine calls whose estimate is more than 0.5 mW from the software
    tree, or whose cycle count is not 2*leaf_depth + 1 <= 2*depth + 1."""
    _, depths = walk_image(image.words, X)
    bad = abs(len(estimates_mw) - len(depths))
    for mw, cyc, d, sw in zip(estimates_mw, cycles, depths, software_w):
        if (abs(mw - sw * 1000.0) > ENGINE_TOLERANCE_MW + 1e-9 or d < 0
                or cyc != 2 * d + 1 or cyc > 2 * tree_depth + 1):
            bad += 1
    return bad


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(directory: Path) -> dict[str, str]:
    return {p.name: sha256_bytes(p.read_bytes())
            for p in sorted(directory.iterdir()) if p.is_file()}


def set_digest(digests: dict[str, str]) -> str:
    return sha256_bytes("".join(f"{n} {d}\n" for n, d in
                                sorted(digests.items())).encode())


def artifact_mismatches(a: dict[str, str], b: dict[str, str]) -> int:
    """Artifacts missing from one set or differing in bytes."""
    return len(a.keys() ^ b.keys()) + sum(a[k] != b[k] for k in a.keys() & b.keys())


def selftest(pt, work: Path) -> dict[str, tuple[int, int]]:
    """Run each check on a tiny clean input and on a corrupted copy.

    Returns {check: (failures on clean input, failures on corrupted input)};
    a sound check gives 0 and more than 0.
    """
    period = 40
    design = pt.generate_design(pt.DesignSpec(
        n_linear_nets=12, n_nonlinear_units=1, correlation_groups=2, seed=3))
    data = pt.simulate_dataset(design, 200, period, seed=4)
    tree = pt.fit_tree(data, pt.HyperParams(4, 5, 5, 0.001))
    image = pt.quantize(tree)
    out: dict[str, tuple[int, int]] = {}

    trace = pt.synthesize_trace(design, 6, period, seed=5)
    feats = pt.period_features(trace, pt.MonitorConfig(design.n_nets, period))
    expected = edge_counts(trace.levels, period)
    corrupt = list(feats)
    corrupt[2] = (corrupt[2][0] + 1,) + tuple(corrupt[2][1:])
    out["counter_tuple"] = (int(feature_mismatches(feats, expected) > 0),
                            int(feature_mismatches(corrupt, expected) > 0))

    X = data.features
    software = pt.predict_tree_batch(tree, X)

    def engine(img):
        runs = [pt.engine_invoke(img, x) for x in X]
        return engine_failures([pt.dequantize_mw(img, v) for v, _, _ in runs],
                               [c for _, c, _ in runs], img, X, software,
                               tree.depth)

    words = image.words.copy()
    words[0] ^= np.uint64(1 << (_THRESHOLD[0] + 19))  # root threshold MSB
    flipped = pt.TreeMemoryImage(words, image.n_nodes, image.max_depth,
                                 image.leaf_unit)
    out["engine_image"] = (engine(image), engine(flipped))

    a, b = work / "selftest_a", work / "selftest_b"
    a.mkdir(parents=True)
    pt.save_tree(tree, a / "model.json")
    pt.save_image(image, a / "image.bin")
    shutil.copytree(a, b)
    clean = artifact_mismatches(artifact_digests(a), artifact_digests(b))
    raw = bytearray((b / "model.json").read_bytes())
    raw[len(raw) // 2] ^= 1
    (b / "model.json").write_bytes(bytes(raw))
    out["artifact"] = (clean, artifact_mismatches(artifact_digests(a),
                                                  artifact_digests(b)))
    shutil.rmtree(a)
    shutil.rmtree(b)
    return out
