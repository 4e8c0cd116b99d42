#!/usr/bin/env python3
# Dual edge functionals: biorthogonality, the h^{-1/2} norm scaling, and the
# coefficient-transfer identity that links inverse-matrix blocks to the
# continuous solution operator.

import numpy as np

from hmaxwell import assemble_system, build_block_partition, build_box_mesh, build_cluster_tree
from hmaxwell.fem import (apply_dual_functionals, dual_basis, dual_norms,
                          riesz_rhs, solve_system, sparse_operator)
from hmaxwell.inverse_lab import (TRANSFER_RHS, dense_inverse,
                                  theorem_transfer_check)

# BIORTHOGONALITY
# <lambda_i, psi_j> = delta_ij across all interior edges
system = assemble_system(build_box_mesh(3), kappa=1.0)
dual = dual_basis(system)
idx = np.arange(system.n_dofs)
worst = 0.0
for j in range(system.n_dofs):
    e = np.zeros(system.n_dofs)
    e[j] = 1.0
    row = apply_dual_functionals(system, dual, idx, e)
    row[j] -= 1.0
    worst = max(worst, float(np.abs(row).max()))
print(f"n=3: max |<lambda_i, psi_j> - delta_ij| = {worst:.3e}")

# NORM SCALING
# ||lambda_i|| grows like h^{-1/2}; the scaled max is n-independent
print(f"\n{'n':>3} {'h':>10} {'max norm':>12} {'max norm * h^1/2':>18}")
for n in (2, 3, 4, 6):
    sysn = assemble_system(build_box_mesh(n), kappa=1.0)
    norms = dual_norms(sysn, dual_basis(sysn))
    print(f"{n:>3} {sysn.h:>10.5f} {norms.max():>12.5f} "
          f"{norms.max() * sysn.h ** 0.5:>18.5f}")

# TRANSFER IDENTITY
# For b supported on a cluster sigma, the dual functionals of the discrete
# solution on a far cluster tau reproduce the inverse block applied to b.
system = assemble_system(build_box_mesh(4), kappa=1.0)
tree = build_cluster_tree(system.mesh, system.dofmap, n_leaf=32)
partition = build_block_partition(tree, eta=2.0)
binv = dense_inverse(sparse_operator(system), tree.perm)  # in leaf order
dual = dual_basis(system)

tau, sigma = max(partition.far, key=lambda p: p[0].size * p[1].size)
print(f"\nn=4: largest admissible pair is {tau.size} x {sigma.size} "
      f"of {len(partition.far)} pairs")
(worst,) = theorem_transfer_check(system, dual, [tau], sigma, binv, seed=0)
print(f"max mismatch over {TRANSFER_RHS} random rhs: {worst:.3e} "
      f"-> {'ok' if worst <= 1e-8 else 'BROKEN'}")

# the identity is what makes blockwise compression of A^-1 meaningful:
# a low-rank approximant of the block is a low-rank approximant of the
# solution operator restricted to the far pair; in leaf order the block is
# a slice, whose rows and columns are tau's and sigma's DOFs in order
b = np.zeros(system.n_dofs)
b[sigma.indices] = np.random.default_rng(1).standard_normal(sigma.size)
u = solve_system(system, riesz_rhs(system, dual, sigma.indices,
                                   b[sigma.indices]))
lhs = apply_dual_functionals(system, dual, tau.indices, u)
rhs = binv[tau.span, sigma.span] @ b[sigma.indices]
print(f"spelled out on one rhs: {float(np.abs(lhs - rhs).max()):.3e}")
