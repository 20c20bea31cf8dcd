"""FMSA core: the paper's contribution.

Public API:

* :func:`merge_functions` — merge one pair of functions (pure, no module
  mutation); :func:`merge_cost` — the same decisions, costed without
  building the merged body.
* :class:`FunctionMergingPass` — the full ranked exploration framework.
* :class:`ReferenceMergingPass` — the same exploration as the paper's plain
  loop: the engine's test oracle and the paper-figure driver.
* :func:`align`, :func:`needleman_wunsch`, :func:`hirschberg` — sequence
  alignment.
* :func:`linearize` — CFG linearization.
* :class:`Fingerprint`, :func:`similarity`, :class:`CandidateRanker` — the
  ranking infrastructure.
* :func:`estimate_profit`, :func:`evaluate_merge` — the profitability cost
  model, for a built or a costed candidate.
* :func:`apply_merge` — commit a merge into a module (thunks / call updates).
"""

from .align_np import (needleman_wunsch_numpy, needleman_wunsch_numpy_keyed,
                       numpy_available)
from .alignment import (AlignedEntry, AlignmentResult, ScoringScheme, align,
                        hirschberg, needleman_wunsch, needleman_wunsch_keyed,
                        ops_string)
from .codegen import (CodegenError, MergeCodeGenerator, MergeOptions,
                      MergeResult, merge_cost, merge_functions,
                      merge_parameter_lists, merge_return_types)
from .engine import (AlignmentCache, IndexedCandidateSearcher, MergeEngine,
                     MergeSession, ModuleEdit, SessionUpdateReport, Stage,
                     StageStats, apply_edit)
from .equivalence import (EquivalenceKeyInterner, encode_equivalence_key,
                          entries_equivalent, entry_equivalence_key,
                          instructions_equivalent, labels_equivalent,
                          type_equivalence_key, types_equivalent)
from .fingerprint import (Fingerprint, FingerprintDelta, fingerprint_module,
                          similarity)
from .linearizer import (LinearEntry, LinearizedFunction, linearize,
                         linearize_with_keys, sequence_signature)
from .native import (native_available, needleman_wunsch_native,
                     needleman_wunsch_native_keyed)
from .pass_ import (FunctionMergingPass, MergeRecord, MergeReport, STAGES,
                    make_hotness_filter)
from .profitability import MergeEvaluation, estimate_profit, evaluate_merge
from .reference import ReferenceMergingPass
from .ranking import CandidateRanker, RankedCandidate
from .thunks import AppliedMerge, apply_merge, build_thunk

__all__ = [
    "AlignedEntry", "AlignmentResult", "ScoringScheme", "align", "hirschberg",
    "needleman_wunsch", "needleman_wunsch_keyed",
    "needleman_wunsch_numpy", "needleman_wunsch_numpy_keyed",
    "numpy_available",
    "native_available", "needleman_wunsch_native",
    "needleman_wunsch_native_keyed",
    "AlignmentCache",
    "ops_string",
    "CodegenError", "MergeCodeGenerator", "MergeOptions", "MergeResult",
    "merge_cost", "merge_functions", "merge_parameter_lists",
    "merge_return_types",
    "IndexedCandidateSearcher", "MergeEngine", "MergeSession", "ModuleEdit",
    "SessionUpdateReport", "Stage", "StageStats", "apply_edit",
    "EquivalenceKeyInterner", "encode_equivalence_key", "entries_equivalent",
    "entry_equivalence_key",
    "instructions_equivalent", "labels_equivalent", "type_equivalence_key",
    "types_equivalent",
    "Fingerprint", "FingerprintDelta", "fingerprint_module", "similarity",
    "LinearEntry", "LinearizedFunction", "linearize", "linearize_with_keys",
    "sequence_signature",
    "FunctionMergingPass", "MergeRecord", "MergeReport", "STAGES",
    "make_hotness_filter", "ReferenceMergingPass",
    "MergeEvaluation", "estimate_profit", "evaluate_merge",
    "CandidateRanker", "RankedCandidate",
    "AppliedMerge", "apply_merge", "build_thunk",
]
