"""Reconfiguration graphs of graph colourings: recognizers for the relevant
graph classes, an exhaustive explorer, a certificate-driven recolouring
algorithm with a quadratic length guarantee, and generators for the
counterexample family."""

__version__ = "0.1.0"

from .explorer import (
    CapacityError,
    Colouring,
    ExplorationSummary,
    ReconfigGraph,
    build_reconfiguration_graph,
    enumerate_colourings,
    is_frozen,
    is_proper,
    summarize,
)
from .generators import (
    GkBundle,
    SearchReport,
    generate_gk,
    generate_named,
    random_cochordal,
    random_graph,
    search_h,
)
from .graph import (
    Graph,
    complement,
    induced_subgraph,
    is_anticonnected,
    is_clique,
    is_complete,
)
from .recognition import (
    AnticonnectedProbe,
    CompactnessVerdict,
    HoleWitness,
    TwoPair,
    chromatic_number,
    contains_induced,
    find_antihole,
    find_hole,
    find_k_colouring,
    find_two_pairs,
    is_co_chordal,
    is_compact_bruteforce,
    is_weakly_chordal,
    qualifying_pair_in,
    qualifying_two_pair,
    two_pair_via_anticonnected_set,
)
from .recolour import (
    CertificateError,
    CliqueComponentRemoval,
    CompleteBase,
    EliminationCertificate,
    PairRemoval,
    PaletteError,
    RecolourSequence,
    RecolourStep,
    TriangleRemoval,
    bfs_distance,
    certified_chromatic_number,
    find_elimination_certificate,
    recolour_compact,
    recolour_complete,
    validate_sequence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
