"""Distantly supervised token classification with difficulty-ordered
curricula and confidence-based positive-unlabeled training.

The package is organized around one pipeline: dictionary annotation gives
noisy token labels; an ensemble of small classifiers ("voters") turns
inter-voter disagreement into per-token difficulty scores and entity
confidence; a power-law curriculum orders the positive tokens easy-to-hard;
a fresh classifier trains stage by stage under a confidence-weighted PU
risk, optionally followed by soft-label self-training; strict and relaxed
span metrics evaluate the result.
"""

__version__ = "0.3.0"

from .corpus import (
    Corpus,
    LabelSet,
    Sentence,
    Token,
    Vocab,
    build_vocab,
    find_spans,
    read_conll,
    write_conll,
)
from .distant import (
    Dictionary,
    MatcherIndex,
    NoiseStats,
    SyntheticSpec,
    annotate,
    compile_dictionary,
    generate_synthetic,
    inject_noise,
    noise_report,
)
from .model import (
    AdamState,
    ModelConfig,
    TokenClassifier,
    adam_step,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from .risk import (
    ConfMpuConfig,
    Priors,
    RiskBreakdown,
    conf_mpu_risk,
    estimate_priors,
    pn_risk,
    sample_negatives,
)
from .voters import (
    ConfidenceTable,
    DifficultyTable,
    VoterConfig,
    VoterEnsemble,
    confidence_table,
    difficulty_scores,
    pairwise_disagreement,
    train_voters,
)
from .curriculum import (
    CurriculumPlan,
    SelfTrainConfig,
    StageSchedule,
    build_plan,
    self_train,
    sharpen,
    train_baby_step,
    train_no_confmpu,
    train_no_curriculum,
    train_soft_label,
)
from .evaluation import (
    EvalReport,
    Metrics,
    curriculum_error_analysis,
    difficulty_histogram,
    evaluate,
    evaluate_labels,
)
from .config import PipelineConfig, load_config
from .pipeline import run_pipeline
from .seeding import derive_seed, make_rng
