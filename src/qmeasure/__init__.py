"""Quantum measure theory on finite history spaces.

Histories, events, and decoherence functionals; causal orders and the
causality checks they support (persistence of zero, lack of novelty,
event-operator commutation); classical and quantum patching; circuit
models in double-path-sum form.
"""

__version__ = "0.1.0"

from ._linalg import CheckViolation, Tolerance
from .causal_order import (
    CausalOrder,
    Region,
    are_spacelike,
    down_sets,
    future_domain,
    future_set,
    is_past_set,
    shadow,
    validate_scenario_geometry,
)
from .causality import (
    EventOperator,
    check_lon,
    check_poz,
    check_quantum_factorizability,
    check_spacelike_commutation,
    event_operator,
)
from .decoherence import AxiomReport, DecoherenceFunctional, check_agreement
from .histories import Event, HistorySpace, RegionAlgebra, region_algebra
from .patching import (
    CorrelationTable,
    JointDcf,
    JointMeasure,
    SettingScenario,
    SettingTheory,
    chsh_value,
    classical_factorizability_residual,
    classical_patch,
    converse_model,
    joint_feasibility,
    no_signalling_residual,
    patch_marginal_residual,
    quantum_patch,
)
from .scenarios import EprbConfig, gen_double_slit, gen_eprb, gen_ghz, gen_pr_box
from .sk_model import (
    SkCircuitConfig,
    SkCircuitModel,
    SkGate,
    check_truncation_independence,
    decoupled_demo_config,
    gen_sk_circuit,
)
