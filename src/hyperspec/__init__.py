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

Importing the package loads none of these. Each name in ``__all__``, and
each submodule (``hyperspec.core``, ``hyperspec.cli``, ...), is imported on
first attribute access (PEP 562), so a caller pays only for the layers it uses.
"""

import importlib.util

# numpy loads on the first kernel call, but a missing numpy fails the import.
if importlib.util.find_spec("numpy") is None:
    raise ModuleNotFoundError("No module named 'numpy'", name="numpy")

__version__ = "0.1.0"

# The names the package re-exports, by the submodule that defines them.
_EXPORTS = {
    "core": (
        "Budget", "Hypergraph", "Spectrum", "is_uniform", "is_intersecting",
        "intersection_spectrum", "lambda_within", "lambda_across", "edges_containing",
        "parse_hypergraph", "serialize_hypergraph",
    ),
    "constructions": (
        "fano", "compose", "iterated_fano", "complete_subsets", "ramsey_clique_hypergraph",
        "random_uniform",
    ),
    "coloring": (
        "ColorResult", "ColorStatus", "Module", "ModuleCertificate", "monochromatic_edge",
        "find_2_coloring", "decide_2_coloring", "random_refute", "three_coloring_intersecting",
        "cover_number", "certificate_mono_edge", "compositional_mono_edge",
    ),
    "lemmas": (
        "InequalityReport", "check_pair_inequality", "check_average_lambda", "greedy_increase",
        "is_lambda_small", "validate_lambda_pair",
    ),
    "extraction": (
        "ExtractionParams", "LambdaPair", "TripleFamily", "IncrementTrace",
        "threshold_graph", "dependent_random_choice", "find_lambda_pair_ramsey",
        "find_lambda_pair_drc", "build_triple_family", "density_increment_run",
    ),
    "search": ("SearchReport", "min_spectrum_search", "canonical_form", "are_isomorphic"),
    "rng": ("DEFAULT_SEED",),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
        globals()[name] = value
        return value
    # Any other name loads the submodule of that name, if there is one.
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _ORIGIN.keys())
