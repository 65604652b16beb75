"""Exact algebra on decision-tree functions.

Combine several trees into one, form affine combinations, and compute exact
L2 norms, distances, means, variances, covariances, correlations, and
forest-to-forest distances under uniform or empirical measures.
"""

from importlib import import_module

from .combine import (
    CombineBudget,
    affine_combination,
    combine_many,
    combine_pair,
    simplify,
)
from .errors import (
    BudgetExceededError,
    DegenerateCorrelationError,
    DomainError,
    LeafKindError,
    ParseError,
    SchemaError,
    TreeAlgebraError,
    UnknownNodeError,
    UnsupportedGeometryError,
    ValidationError,
)
from .geometry import Empirical, UniformBox
from .io import ForestFile, import_external_forest, load_forest, save_forest, save_tree
from .mds import classical_mds, mds_stress
from .measures import (
    TreeStatistics,
    distance_matrix,
    forest_distance,
    tree_correlation,
    tree_covariance,
    tree_distance,
    tree_inner_product,
    tree_mean,
    tree_statistics,
    tree_variance,
)
from .trees import (
    CategoricalFeature,
    CategoricalSubset,
    ClassProbs,
    FeatureSchema,
    Hyperplane,
    NumericFeature,
    NumericThreshold,
    Region,
    Scalar,
    Side,
    Tree,
    TreeBuilder,
    TupleValue,
    evaluate,
    evaluate_batch,
    validate,
)

__version__ = "0.1.0"

# the brute-force references, and the per-node walk that writes the
# messages of a tree that may be invalid: imported on first use, not at
# every start of the command line; neither a valid file nor a fold with
# hyperplanes (its depth-first overlay is in combine) uses it
_ORACLE = {"oracle", "CellGrid", "grid_integral", "monte_carlo_integral",
           "pointwise_equivalence", "random_schema", "random_tree"}


def __getattr__(name):
    if name in _ORACLE:
        oracle = import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
