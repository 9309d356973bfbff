"""cyclecast: business-cycle phase forecasting toolkit.

From raw monthly macroeconomic series to four-phase predictions: composite
growth/inflation indices via expanding-window PCA, per-series trend features,
a rule-based baseline, and three trained classifiers with a top-k
probabilistic evaluation protocol.
"""

from .dataset import (
    Category,
    LabeledDataset,
    MonthStamp,
    PhaseLabel,
    RawSeries,
    Region,
    SplitSpec,
    Transform,
    load_labels,
    split_rows,
    write_labels,
)
from .errors import CycleCastError
from .evaluation import (
    ConfusionMatrix,
    EvaluationReport,
    accuracy,
    build_report,
    collapse_two_label,
    confusion_matrix,
    f_scores,
    render_report,
    topk_accuracy,
)
from .features import FeatureMatrix, build_feature_matrix, forecast_alignment, window_slopes
from .indices import CompositeIndex, IndexKind, expanding_pca_index, pca_first_component
from .models import (
    LinearModel,
    MlpModel,
    TrainConfig,
    load_model,
    save_model,
    train_mlp,
    train_mlr,
    train_svm,
)
from .preprocess import align_panel, newey_west_variance, subsample, zscore
from .rbbcp import RbbcpModel, TrendDirection, rbbcp_predict, rbbcp_predict_proba
from .synthgen import RegimeSpec, generate

__version__ = "0.1.0"
