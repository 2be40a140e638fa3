"""privcache: an exact laboratory for demand-private coded caching with
multiple demands per user.

Layers, bottom to top: exact rational/combinatorial primitives (:mod:`exact`),
prime-field linear algebra (:mod:`gf`), the restricted-demand single-request
caching engine (:mod:`ucc`), the private multi-demand scheme built on top of
it (:mod:`scheme`), enumeration-based privacy audits (:mod:`audit`), exact
memory-rate tradeoff and optimality-gap certificates (:mod:`tradeoff`), and a
CLI tying them together (:mod:`cli`).
"""

from .exact import Envelope, lower_convex_envelope
from .gf import PrimeField
from .scheme import (
    FULL,
    NO_RELABEL,
    PLAIN_BASELINE,
    SchemeParams,
    SeedStreams,
    Variant,
    run_simulation,
)
from .tradeoff import (
    GapCertificate,
    achievable_envelope,
    achievable_points,
    converse_corner_envelope,
    gap_certificate,
    verify_envelope_dominance,
)
from .ucc import Library, RestrictedDemand, UccParams

__version__ = "0.1.0"

__all__ = [
    "Envelope",
    "FULL",
    "GapCertificate",
    "Library",
    "NO_RELABEL",
    "PLAIN_BASELINE",
    "PrimeField",
    "RestrictedDemand",
    "SchemeParams",
    "SeedStreams",
    "UccParams",
    "Variant",
    "achievable_envelope",
    "achievable_points",
    "converse_corner_envelope",
    "gap_certificate",
    "lower_convex_envelope",
    "run_simulation",
    "verify_envelope_dominance",
]
