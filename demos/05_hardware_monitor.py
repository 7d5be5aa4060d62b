# The in-fabric power monitor, cycle by cycle.
#
# A fitted tree is quantized into 64-bit node words (integer thresholds,
# milliwatt leaves) and walked by a four-state engine: idle, node read,
# stall, result.  Every level costs two cycles plus one cycle to present the
# output, so a depth-n tree answers in at most 2n+1 cycles.

import numpy as np

import powertree as pt

design = pt.generate_design(pt.DesignSpec(
    n_linear_nets=24, n_nonlinear_units=2, correlation_groups=2, seed=5))
ds = pt.simulate_dataset(design, 600, 300, seed=6)
tree = pt.fit_tree(ds, pt.HyperParams(5, 5, 5, 0.001))
image = pt.quantize(tree)  # building the image proves it is a tree

print(f"tree: depth {tree.depth}, {tree.n_leaves()} leaves")
print(f"image: {image.n_nodes} words, {image.leaf_unit} mW per LSB")
print("first three node words:")
for i in range(3):
    word = int(image.words[i])
    node = pt.node_decode(word)
    kind = "leaf" if node.is_leaf else (
        f"decision f={node.feature} thr={node.threshold} "
        f"L={node.left} R={node.right}")
    print(f"  [{i}] 0x{word:016x}  {kind}")

# %% one invocation with its FSM trace
x = ds.features[0]
value, cycles, trace = pt.engine_invoke(image, x)
print(f"\ninvocation: {value} mW in {cycles} cycles "
      f"(bound 2*{image.max_depth}+1 = {2*image.max_depth+1})")
print(pt.fsm_trace_text(trace))

# %% a full monitoring session: counters + engine per estimation period
trace_levels = pt.synthesize_trace(design, n_periods=6, period_cycles=300,
                                   seed=7)
cfg = pt.MonitorConfig(n_counters=design.n_nets, estimation_period=300)
print("period  engine_mW  cycles   software_W")
for p, mw, cyc, feats in pt.run_monitor(trace_levels, image, cfg):
    soft = pt.predict_tree(tree, np.array(feats))
    print(f"  {p}      {mw:6d}     {cyc}     {soft:.6f}")
print("\nengine output equals the software prediction rounded to 1 mW")
