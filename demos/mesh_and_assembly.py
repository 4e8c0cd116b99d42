#!/usr/bin/env python3
# Build structured box meshes, look at entity counts and shape regularity,
# assemble the edge-element system and poke at its structure.

import numpy as np

from hmaxwell import assemble_system, build_box_mesh
from hmaxwell.fem import build_nodal_space, discrete_gradient
from hmaxwell.mesh import conformity_report, shape_regularity_constant

print("mesh family on the unit cube")
print(f"{'n':>3} {'vertices':>9} {'tets':>7} {'edges':>8} {'dofs':>7} "
      f"{'h':>10} {'gamma':>8}")
for n in (1, 2, 3, 4, 5, 8):
    mesh = build_box_mesh(n)
    system = assemble_system(mesh, kappa=1.0)
    gamma = shape_regularity_constant(mesh)
    print(f"{n:>3} {mesh.n_vertices:>9} {mesh.n_tets:>7} {mesh.n_edges:>8} "
          f"{system.n_dofs:>7} {mesh.h:>10.6f} {gamma:>8.5f}")

# every cube splits into 6 tets around its body diagonal; the constant
# gamma = diam(T)/rho(T) is the same for all of them at every n
mesh = build_box_mesh(3)
conf = conformity_report(mesh)
print("\nconformity at n=3:", conf)

# SYSTEM STRUCTURE
system = assemble_system(mesh, kappa=1.0)
A, K, M = system.A, system.K, system.M  # A dense; K and M sparse CSR
print("\nA = K - kappa*M with kappa = 1")
print("bitwise symmetric:", np.array_equal(A, A.T))
print(f"K and M: {K.nnz} stored entries of {K.shape[0] ** 2}")
print("K psd check, min eigenvalue:", float(np.linalg.eigvalsh(K.toarray()).min()))
print("M pd check,  min eigenvalue:", float(np.linalg.eigvalsh(M.toarray()).min()))

# discrete gradients span the kernel of the curl-curl part
nodal = build_nodal_space(system)
G = discrete_gradient(nodal)
rng = np.random.default_rng(0)
p = rng.standard_normal(G.shape[1])
print("||K (G p)||_inf for a random nodal p:",
      float(np.abs(K @ (G @ p)).max()))

cond = np.linalg.cond(A)
print(f"cond_2(A) at n=3: {cond:.3e}")
