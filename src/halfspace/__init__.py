"""Tukey depth, robust location estimation under corruption, and a
reproducible experiment harness."""

from .corruption import (AttackSpec, Mixture, adaptive_corrupt_samples, additive_corrupt,
                         apex_move, attack_pointmass_1d, attack_tetrahedron,
                         constant_cluster, mixture_corrupt, oblivious_pipeline,
                         sample_population, shift_cluster, square_distribution, tv_corrupt)
from .depth import (DepthResult, compute_depth, depth_1d, depth_2d_sweep, depth_2d_sweep_many,
                    depth_oracle, depth_sampled, direction_battery, resolve_engine)
from .harness import (ConfigError, ExperimentConfig, ExperimentReport, ReportRow,
                      median_errors_by_n, run_bias_sweep, run_breakdown_sweep, run_scaling)
from .median import (MedianResult, coordinatewise_median, median_1d, median_candidates,
                     median_refine)
from .metrics import (BoundReport, DecayProfile, bias_bound_additive, bias_bound_projection,
                      bias_bound_tv, decay_for, epsilon_tilde, halfspace_metric, normal_cdf,
                      normal_quantile, tv_distance)
from .model import (NamedDistribution, WeightedPointSet, as_direction, as_point,
                    halfspace_mass, project_points, sample, symmetry_check)
from .projection import (ProjectionResult, TemplateFamily, certify_projection_bound,
                         family_distance, project_estimate, square_decay_profile,
                         square_template_family)
from .rng import make_rng, spawn_seeds

__version__ = "0.1.0"
