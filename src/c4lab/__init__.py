"""Induced C4-free subgraph extraction laboratory.

A certificate-producing pipeline for pulling induced C4-free subgraphs of
large average degree out of biclique-free graphs, together with the
exhaustive oracles that keep every randomized step honest: a partite-kernel
engine for uniform hypergraphs, an exact search for the pair-forcing
threshold F(l,k), a random-graph lower-bound laboratory, and induced
clique-subdivision finders.
"""

from .errors import (
    C4LabError,
    DomainError,
    ExtractionFailure,
    GenerationFailure,
    InvariantError,
    KernelFailure,
    OracleLimitError,
    StaleCertificateError,
)
from .graphs import (
    BipartiteGraph,
    Graph,
    degeneracy,
    gen_gnp,
    gen_lopsided,
    greedy_coloring,
    induced,
    min_degree_core,
    mix_seed,
    projective_plane_incidence,
)
from .graphio import (
    apply_sidecar,
    bipartite_sidecar,
    read_edgelist,
    read_graph6,
    read_hypergraph,
    read_sparse6,
    write_edgelist,
    write_graph6,
    write_hypergraph,
    write_sparse6,
)
from .hypergraphs import (
    FSearchResult,
    Hypergraph,
    InducedPair,
    PartiteKernel,
    alpha_exact,
    f_search,
    find_induced_pair,
    furedi_kernel,
    kernel_can_trace,
    verify_induced_pair,
    verify_kernel,
)
from .lowerbounds import (
    ConditionReport,
    ExperimentReport,
    check_lb_conditions,
    exact_expected_bicliques,
    lb_experiment,
    reiman_max_edges,
)
from .oracles import (
    best_c4free_induced,
    contains_biclique,
    find_c3,
    find_c4,
    graph_c4_free,
    is_c4_free,
    max_independent_set,
)
from .pipeline import (
    ExtractionCertificate,
    PipelineParams,
    extract_induced_c4free,
    graph_digest,
    model_lopsided,
    verify_certificate,
)
from .reductions import (
    almost_biregular_reduce,
    biregularity_factor,
    bipartite_regularize,
    extreme_split,
    sparsify_short_cycles,
)
from .subdivisions import (
    SubdivisionWitness,
    find_subdivision,
    induced_subdivision,
    verify_subdivision,
)

__all__ = [name for name in dir() if not name.startswith("_")]
