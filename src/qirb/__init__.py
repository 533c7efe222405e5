"""Randomized benchmarking of mid-circuit measurements.

The pipeline: sample layer-distributed core circuits with MCMs, dress them
into self-verifying Pauli-tracked benchmark circuits, simulate them under
stochastic noise with a Pauli-frame simulator, fit the depth decay of the
success statistic, extract per-operation error rates, and compare against
the analytic predictions of the theory oracle.
"""

from .analysis import (
    DecayDataset,
    DepthStats,
    DepumpFit,
    ErmDatum,
    ErmParams,
    FitDegenerateError,
    FitResult,
    bootstrap_decay,
    bootstrap_erm,
    compute_f,
    erm_predict,
    fit_decay,
    fit_depumping,
    fit_erm,
)
from .builder import (
    DressedLayer,
    OutcomeString,
    QirbCircuit,
    build_qirb_circuit,
    classify_outcome,
    resolve_reset_free,
)
from .pauli import (
    CircuitLayer,
    CliffordGate,
    SignedPauli,
    commutes,
    conjugate,
    is_z_type,
    random_pauli,
)
from .pipeline import (
    DEFAULT_DEPTHS,
    ExperimentDesign,
    build_design_circuits,
    simulate_design,
)
from .sampler import SamplingConfig, sample_core_circuit, sample_core_layer
from .simulator import (
    InstrumentErrorSpec,
    NoiseModel,
    OneQubitPauliChannel,
    ShotRecord,
    SimResult,
    TwoQubitDepolarizing,
    simulate_result,
    simulate_shots,
)
from .tableau import StabilizerTableau, TableauError
from .theory import (
    InstrumentError,
    LayerCounts,
    TheoryPrediction,
    bound_terms_extrema,
    exact_success_expectation,
    lambda_contribution,
    p_anti,
    predict_fbar_curve,
    predict_r_omega,
)

__version__ = "0.1.0"
