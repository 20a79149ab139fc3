"""Combinatorial multivector fields: Conley indices, invariant-set tracking,
and zigzag persistence barcodes on finite simplicial complexes."""

from .complexes import Complex, Simplex, SimplexSet, simplex
from .algebra import BettiVector, relative_homology
from .fields import (AtomicRearrangement, CheckReport, MultivectorField, NotAtomicError,
                     classify_rearrangement, refinement_path, rearrangement_path,
                     validate_field)
from .dynamics import (IndexPair, PreconditionError, canonical_index_pair, conley_index,
                       invariant_part, is_isolated_invariant_set, isolates, push_forward,
                       validate_index_pair_in_n)
from .tracking import (TrackingStep, TrackingTrace, ZigzagAssemblyError, hull, run_protocol,
                       track_step)
from .zigzag import BACKWARD, FORWARD, Bar, Barcode, PairTag, PairZigzag, pair_zigzag_barcode
from .io import Scene, SchemaError, load_scene, load_zigzag, save_scene

__all__ = [
    "AtomicRearrangement", "BACKWARD", "Bar", "Barcode", "BettiVector",
    "CheckReport", "Complex", "FORWARD", "IndexPair", "MultivectorField",
    "NotAtomicError", "PairTag", "PairZigzag",
    "PreconditionError", "Simplex", "SimplexSet", "TrackingStep", "TrackingTrace",
    "ZigzagAssemblyError", "canonical_index_pair",
    "classify_rearrangement", "conley_index",
    "hull", "invariant_part", "is_isolated_invariant_set", "isolates",
    "pair_zigzag_barcode", "push_forward",
    "rearrangement_path", "refinement_path", "relative_homology",
    "run_protocol", "simplex", "track_step", "validate_field",
    "validate_index_pair_in_n",
    "Scene", "SchemaError", "load_scene", "load_zigzag", "save_scene",
]
