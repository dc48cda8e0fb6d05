"""alarmsift: ICU false-alarm classification toolkit.

Pipeline: multi-channel waveform records -> per-chunk Morlet scalograms ->
shared encoder + two-layer LSTM (or hand-crafted features + logistic
baseline) -> cross-validated evaluation with paired-model statistics.
"""

from .records import (AlarmType, CHANNEL_ORDER, Channel, ClassWeights,
                      DatasetSummary, Record, RecordError, SynthSpec,
                      class_weights, filter_four_channel, load_dataset,
                      load_record, synth_dataset, synthetic_ecg, tail_window,
                      write_dataset, write_record)
from .scalogram import MorletParams, cwt, morlet_wavelet, to_scalogram
from .temporal import build_sequence
from .features import (BeatAnnotations, FEATURE_NAMES, FeatureVector,
                       beat_features, detect_beats, extract_features,
                       linear_classifier_fit, linear_classifier_predict)
from .net import (ModelConfig, ModelParams, TrainHistory, finite_diff_check,
                  init_params, load_checkpoint, predict, save_checkpoint,
                  train)
from .stats import (BootstrapCI, Confusion, DelongResult, ErrorReport,
                    FoldAssignment, MetricsReport, auc, bootstrap_auc_diff,
                    confusion_metrics, delong_test, error_report,
                    fold_summary, per_alarm_report, stratified_kfold)
from .harness import (AblationSpec, ExperimentConfig, SweepSpec, ablate,
                      emit_report, run_experiment, stratified_split, sweep)

__version__ = "0.1.0"
