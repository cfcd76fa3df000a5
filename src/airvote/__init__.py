"""Sign-vote federated learning over a non-coherent OFDM uplink.

Devices report only gradient signs, encoded as energy on paired
subcarriers; the server tallies votes by comparing accumulated bin
energies, without channel state information.  The package pairs the
simulator with closed-form performance bounds and the Monte Carlo
machinery that checks them.
"""

from .analysis import (
    BoundParams,
    comm_cost,
    convergence_bound,
    convergence_tau,
    error_prob_bound,
    error_prob_intermediate_bound,
    exact_error_prob,
    failure_prob_bound,
    mc_error_prob,
    mc_flip_prob,
    mc_mean_energy,
    mean_energy,
)
from .channel import ChannelConfig, sample_channel, superpose
from .detector import DetectionResult, detect, ideal_majority_vote
from .experiment import (
    DatasetSpec,
    ExperimentConfig,
    RoundMetrics,
    RunState,
    load_config,
    prepare_run,
    run_experiment,
    run_round,
    run_rounds,
)
from .learner import (
    Dataset,
    IdxFormatError,
    ModelState,
    SoftmaxRegression,
    TanhMlp,
    TrainingConfig,
    apply_global_update,
    compute_local_gradient,
    evaluate,
    full_gradient,
    load_idx_dataset,
    make_synthetic_dataset,
    partition,
    sign_quantize,
)
from .phy import (
    SYMBOL_ENERGY,
    PhyConfig,
    encode_signs,
    lit_subcarriers,
    mean_power,
    signed_agreement,
    update_power,
)

__version__ = "0.1.0"
