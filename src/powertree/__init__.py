"""Decision-tree dynamic power modeling with a bit-exact hardware-monitor
simulator and multi-phase regulator phase shedding."""

from .workload import (DEFAULT_NONLINEAR_STRENGTH, Dataset, DesignSpec, Net,
                       NonlinearUnit, SyntheticDesign, ToggleTrace, activity,
                       compose_datasets, dataset_csv_text, dataset_meta_text,
                       design_text, dynamic_power, generate_design,
                       hybrid_design_spec, linear_design_spec, load_dataset,
                       parse_dataset, parse_design, rank_signals_by_activity,
                       save_dataset, simulate_dataset, synthesize_trace)
from .model import (DecisionTree, EnsembleModel, HyperParams, LinearModel,
                    feature_importances, fit_linear, fit_tree, linear_text,
                    mae_percent, parse_linear, parse_tree, predict_ensemble,
                    predict_linear, predict_linear_batch, predict_tree,
                    predict_tree_batch, rule_text, save_tree,
                    scale_prediction, tree_text)
from .selection import RfeResult, RfeStep, rfe, rfe_history_text
from .tuning import (CvResult, CvRow, Grid, LearningPoint, cv_table_text,
                     grid_search_cv, kfold_split, learning_curve,
                     learning_curve_text)
from .hwsim import (CounterState, MalformedImageError, MemNode, MonitorConfig,
                    TreeMemoryImage, counter_step, dequantize_mw,
                    engine_invoke, fsm_trace_text, image_bytes, load_image,
                    node_decode, node_encode, parse_image, period_features,
                    quantize, run_monitor, save_image)
from .pdn import (PdnModel, PhaseLut, build_lut, efficiency, input_power,
                  lut_text, optimal_phases, shed, shed_rows, shed_table_text)

__version__ = "0.1.0"
