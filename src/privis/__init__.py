"""Content-aware secure volumetric transport.

A desk-scale pipeline for streaming 3D point-cloud frames under
saliency-conditioned protection: spatial cube partitioning, joint
perceptual-privacy scoring, per-cube AEAD with adaptive key rotation,
selective traffic shaping with a mutual-information leakage bound, and a
verifying client with hold-over rendering admission.

The names below are the ones the demos use; everything else is imported
from its submodule.
"""

from .errors import BudgetExceededWarning
from .frame_io import SceneSpec, generate_frame, generate_scene, load_frame, write_frame
from .partition import (
    CubeId,
    PartitionConfig,
    membership_change_fraction,
    partition_frame,
    reuse_or_repartition,
)
from .saliency import SaliencyConfig, score_cubes
from .policy import (
    CostModel,
    PolicyBudget,
    PolicyConfig,
    ProtectionLevel,
    ProtectionPolicy,
    Scope,
    assign_policy,
    enforce_budget,
)
from .keyring import KeyRing, RootKey
from .seal import CubePlaintext, SealedCube, seal_cube
from .netw import NetConfig, packetize
from .leakage import LeakageConfig, estimate_mi
from .client import Client, frame_compose
from .bench import RunConfig, compare_modes, default_scene, leakage_scene, run_session

__version__ = "0.1.0"
