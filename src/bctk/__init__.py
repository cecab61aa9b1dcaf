"""bctk: exact process-theoretic semantics for bilocal classical theory,
its classical (ontological) model, and the latent-classical falsifier."""

from .systems import PureLabel, SystemShape, TRIVIAL, bct_dim
from .classical import ClassicalMap
from .bct import AtomicTerm, Effect, Instrument, ReversibleSpec, State, Transformation
from .lct import CandidateModel, LctInstance, ViolationCertificate

__version__ = "0.1.0"

__all__ = [
    "AtomicTerm",
    "CandidateModel",
    "ClassicalMap",
    "Effect",
    "Instrument",
    "LctInstance",
    "PureLabel",
    "Report",
    "ReversibleSpec",
    "State",
    "SystemShape",
    "Transformation",
    "TRIVIAL",
    "ViolationCertificate",
    "bct_dim",
    "__version__",
]


def __getattr__(name):
    # ``Report`` lives with the suites; importing them on first use keeps
    # ``import bctk`` free of ``verify`` and ``dsl``.
    if name == "Report":
        from .verify import Report

        return Report
    raise AttributeError(f"module 'bctk' has no attribute {name!r}")
