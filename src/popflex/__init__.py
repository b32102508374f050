"""Plan post-processing: deordering, block substitution, reduction, and a
MaxSAT reordering encoder for grounded finite-domain planning tasks."""

from .bdpo import (BdpoPlan, Block, FlexScore, Reason, block_deorder,
                   candidate_producers)
from .fibs import (AcceptanceCriteria, FibsConfig, PhaseReport, Run,
                   backward_justify, build_subtask, reduce_plan, resolve,
                   substitution_deorder)
from .maxsat import (Wcnf, VarCatalog, brute_force_mr, decode_model,
                     encode_mr, optimal_model)
from .subplanner import Subtask, solve_subtask
from .substitution import (CandidateBlock, SubstitutionOutcome,
                           candidate_block, remove_blocks, substitute)
from .task import (Fact, OperatorDef, PlanningTask, SequentialPlan,
                   ValidationReport, apply_op, cons_prod_del, emit_plan,
                   emit_sas, parse_plan, parse_sas, validate_sequential)

__version__ = "0.1.0"
