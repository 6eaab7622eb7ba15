"""netfit: fit network models to real graphs and analyze the counterparts.

The pipeline: parse edge lists into simple undirected graphs, fit five
random-graph models per graph, generate synthetic counterparts, measure
a non-redundant metric suite, score goodness-of-fit with mean Canberra
distances, summarize model stability, and classify networks by domain
and origin with decision trees and random forests.
"""

from .graph import (
    EdgeListError,
    Graph,
    load_edge_list,
    parse_edge_list,
    save_edge_list,
    serialize_edge_list,
)
from .jdm import JointDegreeMatrix
from .metrics import (
    FeatureVector,
    MetricDomainError,
    assortativity,
    average_clustering,
    average_degree,
    average_path_length_normalized,
    degree_skewness,
    density,
    feature_vector,
    joint_degree_matrix,
    max_eigenvector_centrality,
)
from .generators import (
    CBAParams,
    CommunityParams,
    DDParams,
    TwoKParams,
    WSParams,
    generate,
    generate_2k,
    generate_cba,
    generate_community,
    generate_dd,
    generate_ws,
    validate_jdm,
)
from .fitting import (
    FitReport,
    Partition,
    fit_2k,
    fit_cba,
    fit_community,
    fit_dd,
    fit_model,
    fit_ws,
    louvain,
    modularity,
)
from .dataset import DatasetRow, DatasetTable
from .gof import canberra_distance, correlation_matrix, mean_distance_matrix, pca_project
from .stability import StabilitySummary, stability_run
from .classify import (
    EvalReport,
    accuracy,
    roc_auc,
    run_task,
    stratified_kfold,
    train_forest,
    train_tree,
)

__version__ = "0.1.0"
