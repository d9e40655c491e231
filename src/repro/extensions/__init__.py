"""Extensions beyond the paper's core results.

Two directions the paper sketches in Section 8: the changing sensitivity
of a graph that grows (:func:`sensitivity_drift`) and partially-sensitive
edge sets (:class:`SensitivityPolicy`). Appendix A's multiple
recommendations and their sequential-composition budget are served by
:meth:`repro.serving.RecommendationService.recommend` (``k=``) and
:class:`repro.serving.BudgetManager`; serving while the graph mutates is
:class:`repro.streaming.StreamingService`.
"""

from .dynamic import sensitivity_drift
from .sensitive_edges import SensitivityPolicy, restricted_sensitivity

__all__ = [
    "SensitivityPolicy",
    "restricted_sensitivity",
    "sensitivity_drift",
]
