"""Simulation and numerical verification of multiplicative cascades,
fractal percolation, and the dimensions of their images, sums, convolutions
and projections."""

from .cascade import (
    CylinderMeasure,
    KeyedRng,
    WeightLaw,
    cascade_mass_trace,
    cascade_measure,
    percolation_codes,
)
from .dimension import (
    ScalingFit,
    box_count,
    box_dimension,
    default_scales,
    entropy_dimension,
    fit_loglog,
)
from .euclid import (
    AtomicMeasure,
    IntervalSet,
    bernoulli_convolution,
    convolve,
    marginal,
    product,
    project,
    pushforward,
    set_image,
    sumset,
)
from .experiments import run_experiment
from .ifs import AffineIfs, OverlapProfile, gamma_estimate, overlap_count
from .symbolic import DEFAULT_WORD_CAP, Subshift, SymbolicMeasure
from . import errors

__version__ = "0.1.0"
