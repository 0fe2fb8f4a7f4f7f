"""Compile grayscale images into shallow quantum state-preparation circuits.

Pipeline: amplitude-encode an image on a 2-leg-ladder qubit ordering,
compress the state to a matrix product state by sequential SVD, convert
to layered staircase circuits of two-qubit gates (iterative disentangling
plus environment-tensor sweep optimization), and verify on an exact
statevector simulator.
"""

__version__ = "0.1.0"

from .errors import InputFormatError, NumericError, ValidationError
from .image_codec import (
    ORDERINGS,
    ImageGrid,
    check_ordering,
    decode_probabilities,
    downscale,
    encode_amplitudes,
    load_image,
    pixel_to_basis_index,
)
from .mps import (
    MPS,
    apply_two_qubit_gate,
    from_dense,
    inner,
    left_canonicalize,
    to_dense,
    truncate,
)
from .circuit import (
    LayeredCircuit,
    cnot_count,
    embed_isometry,
    layer_from_chi2_mps,
)
from .compiler import (
    OptimizerTrace,
    environment_tensor,
    grow_and_optimize,
    iterative_construct,
    sweep_optimize,
    update_gate,
)
from .simulator import histogram_to_probs, run, sample
from .analysis import (
    ScalingRecord,
    chi_scaling_sweep,
    depth_scaling_sweep,
    fit_power_law,
    infidelity,
    tv_distance,
)
