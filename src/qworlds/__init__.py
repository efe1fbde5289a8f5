"""Desk-scale operator lab for information-transfer constraints.

Dense complex operators, states on finite block algebras, CP maps and
measurements, bipartite steering and teleportation, two-party bit-commitment
protocols, and classical/quantum/dephased physics backends with a
three-constraint scenario battery.
"""

__version__ = "0.1.0"

from . import algebra, channels, cli, entangle, protocols, qmat, worlds  # noqa: F401
from .algebra import (  # noqa: F401
    BlockAlgebra,
    BroadcastCheck,
    CloneRefusal,
    broadcast_check,
    classical_broadcaster,
    clone_orthogonal_pair,
    is_commutative,
)
from .channels import (  # noqa: F401
    DephasingChannel,
    GeneralizedMeasurement,
    KrausChannel,
    ProjectiveMeasurement,
    apply_nonselective,
    dephase,
)
from .entangle import (  # noqa: F401
    BipartiteState,
    Ensemble,
    SchmidtDecomposition,
    SteeringExampleConfig,
    chsh_score,
    epr_singlet,
    hjw_steering_measurement,
    negativity,
    purify,
    schmidt,
    steer,
    teleport,
)
from .protocols import (  # noqa: F401
    CommitmentScheme,
    EprAttack,
    Honest,
    ProtocolTranscript,
    classical_unique_decomposition,
    concealment_check,
    no_signaling_trial,
    run_commitment,
)
from .worlds import ConstraintReport, World, evaluate_constraints  # noqa: F401
