"""Phoneme boundary detection with learned segmental features."""

from .audio import MalformedWavError, UnsupportedCodecError, Waveform, read_wav, write_wav
from .autodiff import ParameterSet, Tape, Tensor, grad_check
from .config import ConfigError, RunConfig, load_run_config
from .data import (Annotation, CorpusManifest, LabeledUtterance, ManifestEntry, SynthConfig,
                   load_corpus, read_manifest, split_nonspeech, split_train_val,
                   synth_corpus, write_synth_corpus)
from .decode import dp_segment, dp_segment_k, dp_two_best
from .features import (FeatureConfig, FeatureStats, FrameMatrix, append_deltas,
                       assemble_features, compute_mfcc, corpus_stats,
                       spectral_change_features)
from .losses import bin_loss, frame_labels_from, hinge_loss, phn_loss
from .metrics import (EvalReport, TolerancePolicy, evaluate_corpus, evaluate_times,
                      match_boundaries, precision_recall_f1, r_value)
from .model import (ModelConfig, ScoreContext, SegmentalModel, Segmentation, boundary_logits,
                    build_context, phoneme_logits, score_segmentation)
from .nn import bilstm_encode
from .optim import AdamState, adam_step, clip_grad_norm
from .train import EpochLog, FitResult, TrainConfig, fit, validate_model

__version__ = "0.1.0"
