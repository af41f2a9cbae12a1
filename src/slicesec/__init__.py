"""Secrecy analysis of CV-QKD slicing: channel simulation, quantization,
information estimation, and sweep tooling."""

from .channel import (
    ChannelParams,
    ChannelRealization,
    InfiniteInformationError,
    Stream,
    analytic_gaussian_mi,
    gaussian_source,
    transmit,
)
from .infotheory import (
    AlphabetCapacityError,
    MIEstimate,
    binary_entropy,
    bit_error_rate,
    conditional_mi,
    mutual_information_bitwise,
    mutual_information_symbols,
    plugin_bias,
)
from .secrecy import (
    SecrecyReport,
    SweepTable,
    default_schemes,
    default_t_grid,
    evaluate_scheme,
    evaluate_schemes,
    secrecy_deltas,
    sweep,
)
from .slicing import (
    BinEdges,
    BitMatrix,
    LabelTable,
    Numbering,
    Positioning,
    SlicingScheme,
    assign_bins,
    bin_indices,
    build_labels,
    compute_edges,
    slice_samples,
)

__version__ = "0.1.0"
