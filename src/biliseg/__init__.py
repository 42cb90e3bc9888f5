"""Segmentation and evaluation toolkit for bright tubular structures in 3D volumes."""

__version__ = "0.1.0"

from .core import (BBox, Connectivity, Mask, Spacing, Volume, bbox_of, connected_components,
                   embed_mask)
from .errors import (BilisegError, BoundsError, ConfigError, DegenerateInputError,
                     FormatError, GeometryError)
from .mesh import extract_surface_mesh, write_stl
from .metrics import (MetricsReport, dice, distance_transform, evaluate, hausdorff, rvd,
                      topology_report)
from .nifti import read_nifti, write_nifti
from .phantom import (PhantomParams, TubeSegment, generate_tree, rasterize_tree,
                      render_intensities)
from .preprocess import PreprocessParams, dynamic_crop, percentile_stretch, stretch_and_crop
from .report import metrics_to_dict, write_report
from .segmentation import (FloodFillConfig, KeepLargest, KeepSeeded, MinSize,
                           RegionGrowConfig, ThresholdConfig, dual_threshold, flood_fill,
                           postprocess, region_grow, sauvola_threshold_field)
from .stats import AnovaResult, mean_std, one_way_anova
