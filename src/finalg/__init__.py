"""Graded isomorphism testing for finitely presented algebras over GF(p).

The public surface mirrors the pipeline: parse a presentation, build the
truncated multiplication engine, compute Hilbert series data, and decide
graded isomorphism of pairs or whole corpora.
"""

from .classify import CorpusReport, classify_corpus
from .errors import (BoundExceededError, FinalgError, MismatchError,
                     ParseError, ResourceLimitError)
from .groebner import (GroebnerBasis, annihilator, buchberger, eliminate,
                       groebner_basis, normal_form, series_of_quotient,
                       standard_monomials)
from .hilbert import (RationalSeries, count_nonzero_vectors, dims_from_series,
                      parse_int_poly, parse_series)
from .isotest import (Fingerprint, IsoVerdict, candidate_space_size,
                      fingerprint, graded_isomorphism, pair_bound,
                      prune_ladder, verify_certificate)
from .present import (ASSOCIATIVE, COMMUTATIVE, GeneratorSet, Presentation,
                      parse, parse_file, serialize)
from .truncated import (TruncatedAlgebra, default_bound, truncation_bound)

__version__ = "0.1.0"

__all__ = [
    "ASSOCIATIVE", "BoundExceededError", "COMMUTATIVE", "CorpusReport",
    "Fingerprint", "FinalgError", "GeneratorSet", "GroebnerBasis",
    "IsoVerdict", "MismatchError", "ParseError", "Presentation",
    "RationalSeries", "ResourceLimitError", "TruncatedAlgebra", "annihilator",
    "buchberger", "candidate_space_size", "classify_corpus",
    "count_nonzero_vectors", "default_bound", "dims_from_series", "eliminate",
    "fingerprint", "graded_isomorphism", "groebner_basis", "normal_form",
    "pair_bound", "parse", "parse_file", "parse_int_poly", "parse_series",
    "prune_ladder", "serialize", "series_of_quotient", "standard_monomials",
    "truncation_bound", "verify_certificate", "__version__",
]
