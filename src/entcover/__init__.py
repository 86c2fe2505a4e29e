"""Minimum-entropy covers of polymatroids: greedy solver with full
trace, exact desk-scale optima, flow-based covering coefficients, and a
constructive spanning-tree certificate.
"""

from .core import (LOG2E, Cover, GroundSet, PolymatroidOracle,
                   check_polymatroid, entropy, entropy_from_weight,
                   validate_cover, weight_product)
from .exact import GUARD_MSG, GuardError, Optimum, exact_assignment_mesc, \
    exact_cover, exact_mest, exact_mest_entropy, exact_orientation
from .flow import (BoundReport, FlowNetwork, FlowResult, approximation_bound,
                   build_alpha_network, max_flow, min_alpha)
from .greedy import CoefficientTable, GreedyTrace, coefficients, run_greedy
from .instances import (GadgetRoles, GraphInstance, SetCoverInstance,
                        TreeCoverSolution, complete_mest_solution, generate_random,
                        hardness_gadget, mesc_oracle, meo_oracle, mest_oracle,
                        parse_instance, realise_cover,
                        reduction_entropy_relation, serialize_instance)
from .certify import (MultiLevelFlow, TreeMove, apply_move,
                      flow_respects_capacities, is_spanning_tree,
                      transform_tree, verify_beta_one)

__version__ = "0.1.0"

__all__ = [
    "LOG2E", "GroundSet", "PolymatroidOracle", "Cover", "entropy",
    "entropy_from_weight", "weight_product", "validate_cover",
    "check_polymatroid",
    "SetCoverInstance", "GraphInstance", "TreeCoverSolution", "GadgetRoles",
    "mesc_oracle", "meo_oracle", "mest_oracle", "complete_mest_solution",
    "realise_cover", "hardness_gadget",
    "reduction_entropy_relation", "serialize_instance", "parse_instance",
    "generate_random",
    "GreedyTrace", "CoefficientTable", "run_greedy", "coefficients",
    "GUARD_MSG", "GuardError", "Optimum", "exact_cover",
    "exact_assignment_mesc", "exact_orientation", "exact_mest",
    "exact_mest_entropy",
    "FlowNetwork", "FlowResult", "max_flow", "build_alpha_network",
    "min_alpha", "BoundReport",
    "approximation_bound",
    "TreeMove", "MultiLevelFlow", "apply_move", "is_spanning_tree",
    "transform_tree", "flow_respects_capacities", "verify_beta_one",
    "__version__",
]
