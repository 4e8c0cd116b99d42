"""Lowest-order edge-element Maxwell systems on Kuhn-triangulated boxes,
blockwise low-rank compression of their dense inverses, and the local
harmonic-analysis experiments that explain why the compression works.
"""

__version__ = "0.1.0"

from .cluster import (BlockPartition, Cluster, ClusterTree, box_distance,
                      build_block_partition, build_cluster_tree, is_admissible,
                      sparsity_constant, tiling_defect)
from .fem import (DofMap, DualBasis, GalerkinSystem, NodalSpace,
                  assemble_system, build_dof_map, build_nodal_space,
                  discrete_gradient, dual_basis, dual_norms,
                  pi_nabla_project, region_nodal_space, solve_system)
from .harmonic import (BoxRegion, CaccioppoliResult, ConcentricPair,
                       HarmonicSpace, Region, caccioppoli_ratio,
                       constraint_residual, default_pairs,
                       exact_sequence_recover, gradient_part_harmonic_check,
                       harmonic_space, helmholtz_report, tets_inside_box,
                       tets_intersecting_box)
from .hmatrix import (DenseBlock, HMatrix, LowRankBlock, compress_dense,
                      matvec, rmatvec, spectral_error, spectral_norm, to_dense,
                      truncated_svd)
from .inverse_lab import (DecayFit, SweepRow, dense_inverse, fit_decay,
                          rank_sweep, theorem_transfer_check)
from .mesh import (Mesh, build_box_mesh, conformity_report,
                   shape_regularity_constant)
from .whitney import LOCAL_EDGES, ElementTensors, TetElement, element_tensors
