"""lodprobe: streaming RDF dataset quality assessment.

Computes four Linked Data quality metrics (dereferenceability, links to
external data providers, extensional conciseness, and the clustering
coefficient of the resource network), each both exactly and through a
probabilistic approximation (reservoir sampling, a stable Bloom filter,
or random-walk estimation), and reports estimate-vs-exact deviation and
runtime.
"""

__version__ = "0.1.0"

from .deref import (
    CachedResolver,
    LiveResolver,
    MockResolver,
    Resolution,
    Verdict,
    VerdictKind,
    classify,
)
from .extsort import SortSummary, sort_by_subject, verify_subject_contiguous
from .graph import (
    ResourceGraph,
    WalkAccumulators,
    estimate_cc,
    exact_global_cc,
    mixing_time,
    random_walk,
)
from .metrics import MetricResult, SortOrderViolation
from .ntriples import (
    DatasetReadError,
    NTriplesParseError,
    NTriplesReader,
    ParseFailure,
    StreamSummary,
    parse_line,
    serialize_term,
    serialize_triple,
)
from .pld import registrable_domain, try_pld
from .rng import SeededRng, derive_seed
from .sketches import ReservoirSampler, StableBloomFilter, derive_num_filters
from .terms import Term, TermKind, Triple, blank, iri, literal

__all__ = [
    "CachedResolver",
    "DatasetReadError",
    "LiveResolver",
    "MetricResult",
    "MockResolver",
    "NTriplesParseError",
    "NTriplesReader",
    "ParseFailure",
    "Resolution",
    "ResourceGraph",
    "ReservoirSampler",
    "SeededRng",
    "SortOrderViolation",
    "SortSummary",
    "StableBloomFilter",
    "StreamSummary",
    "Term",
    "TermKind",
    "Triple",
    "Verdict",
    "VerdictKind",
    "WalkAccumulators",
    "blank",
    "classify",
    "derive_num_filters",
    "derive_seed",
    "estimate_cc",
    "exact_global_cc",
    "iri",
    "literal",
    "mixing_time",
    "parse_line",
    "random_walk",
    "registrable_domain",
    "serialize_term",
    "serialize_triple",
    "sort_by_subject",
    "try_pld",
    "verify_subject_contiguous",
]
