"""hyperspec: exact intersection-spectrum toolkit for small hypergraphs.

Modules
-------
core
    Bitmask hypergraphs, the pair kernel, spectra, exact averaging, ``.hg`` text I/O,
    and the node/time ``Budget`` shared by every exponential routine.
constructions
    Fano plane, iterated products, complete subsets, clique hypergraphs,
    seeded random families.
coloring
    Exact 2-colorability: module contraction with a checkable certificate
    in front of DPLL with not-all-equal propagation; randomized refutation,
    constructive 3-coloring, cover numbers.
lemmas
    Exact-rational inequality checkers and greedy common-vertex growth.
extraction
    Threshold graphs, dependent random choice, lambda-pair extractors,
    triple families, and the density-increment driver.
search
    Exhaustive search for minimum-spectrum witnesses.
"""

from .core import (
    Budget,
    Hypergraph,
    Spectrum,
    new_hypergraph,
    is_uniform,
    is_intersecting,
    intersection_spectrum,
    lambda_within,
    lambda_across,
    edges_containing,
    parse_hypergraph,
    serialize_hypergraph,
)
from .constructions import (
    fano,
    compose,
    iterated_fano,
    complete_subsets,
    ramsey_clique_hypergraph,
    random_uniform,
)
from .coloring import (
    ColorResult,
    ColorStatus,
    Module,
    ModuleCertificate,
    monochromatic_edge,
    find_2_coloring,
    decide_2_coloring,
    random_refute,
    three_coloring_intersecting,
    cover_number,
    certificate_mono_edge,
    compositional_mono_edge,
)
from .lemmas import (
    InequalityReport,
    check_pair_inequality,
    check_average_lambda,
    greedy_increase,
    is_lambda_small,
    validate_lambda_pair,
)
from .extraction import (
    SimpleGraph,
    ExtractionParams,
    LambdaPair,
    TripleFamily,
    IncrementTrace,
    threshold_graph,
    dependent_random_choice,
    find_lambda_pair_ramsey,
    find_lambda_pair_drc,
    build_triple_family,
    density_increment_run,
)
from .search import SearchReport, min_spectrum_search, canonical_form, are_isomorphic
from .rng import DEFAULT_SEED

__version__ = "0.1.0"
