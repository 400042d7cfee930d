"""Well-founded semantics for disjunctive logic programs, computed by three
independent routes (argumentation, strong residual programs, unfounded sets)
that provably coincide, plus oracles and a fuzzing harness that keep the
implementations honest."""

from .core import (
    CapacityError,
    Hypothesis,
    ModelState,
    Program,
    RouteError,
    Rule,
    Truth,
    body_status,
    canonicalize,
    satisfies_negative,
    satisfies_positive,
    state_consistent,
    subsumes,
)
from .parser import (
    ParseError,
    SourceSpan,
    parse_program,
    render_program,
    render_state,
    state_json,
)
from .fixpoint import least_model_state, tps_lfp, tps_step
from .argumentation import (
    AdmissibilityError,
    AttackWitness,
    Engine,
    admissible,
    attacks,
    cons,
    derives,
    reduct,
    self_consistent,
    wfdh,
    wfds,
)
from .transforms import (
    TransformKind,
    TransformStep,
    applicable,
    apply,
    bd_semantics_axioms,
    is_s_implication,
)
from .residual import (
    classic_reduction,
    classic_residual,
    dwfs_classic,
    dwfs_star,
    lft,
    saturation,
    strong_reduction,
    strong_residual,
)
from .unfounded import (
    NO_GREATEST,
    NoGreatest,
    NoGreatestUnfoundedSetError,
    greatest_unfounded,
    is_unfounded,
    t_operator,
    uwfs,
    w_operator,
)
from .harness import (
    EquivalenceReport,
    GeneratorConfig,
    check_equivalence,
    entails_classical,
    gcwa_negatives,
    minimal_models,
    normal_wfs,
    random_program,
    tpg_step,
)

__version__ = "0.1.0"
