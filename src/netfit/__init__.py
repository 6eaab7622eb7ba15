"""netfit: fit network models to real graphs and analyze the counterparts.

The pipeline: parse edge lists into simple undirected graphs, fit five
random-graph models per graph, generate synthetic counterparts, measure
a non-redundant metric suite, score goodness-of-fit with mean Canberra
distances, summarize model stability, and classify networks by domain
and origin with decision trees and random forests.

The package exports the names of README's "Library use"; everything else
is imported from its module (``netfit.graph``, ``netfit.metrics``, ...).
"""

from .fitting import fit_model
from .generators import generate
from .gof import mean_distance_matrix
from .graph import Graph, parse_edge_list
from .metrics import feature_vector

__version__ = "0.1.0"
