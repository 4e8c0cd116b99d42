#!/usr/bin/env python3
"""Interior estimates for discretely harmonic fields.

Two experiments on concentric box pairs:
  1. Caccioppoli ratios: the curl (resp. gradient) energy of a discretely
     harmonic field on the inner box, against its h-weighted L2 mass on the
     enlargement. The normalized ratio stays bounded as the mesh refines.
  2. Local discrete Helmholtz split u = z + grad p on a region, checking
     orthogonality and the Pythagoras identity, plus recovery of the nodal
     potential from a curl-free field.
"""

import numpy as np

from hmaxwell import assemble_system, build_box_mesh
from hmaxwell.harmonic import (Region, caccioppoli_ratio, default_pairs,
                               exact_sequence_recover, harmonic_space,
                               helmholtz_report)

pair = default_pairs(1.0)["interior"]
print(f"concentric pair at {list(pair.center)}: inner side {pair.r}, "
      f"outer side {pair.r * (1 + pair.eps):.2f}")

print(f"\n{'n':>3} {'variant':>8} {'dim':>6} {'ratio':>12} "
      f"{'normalized':>12} {'inner tets':>11}")
for n in (4, 6, 8):
    system = assemble_system(build_box_mesh(n), kappa=1.0)
    region = Region(system, pair.outer)
    for variant in ("curl", "grad"):
        space = harmonic_space(region, variant)
        res = caccioppoli_ratio(space, pair)
        print(f"{n:>3} {variant:>8} {res.dim:>6} {res.ratio:>12.5e} "
              f"{res.normalized:>12.5e} {res.n_inner_tets:>11}")
# n=4 shows zero: the inner box [0.3,0.7]^3 contains no complete tet on
# that mesh, so the inner energy vanishes by the conforming-region rule

# HELMHOLTZ SPLIT
system = assemble_system(build_box_mesh(4), kappa=1.0)
region = Region(system, default_pairs(system.mesh.length)["interior"].outer)
rng = np.random.default_rng(0)
u = rng.standard_normal(system.n_dofs)

rep = helmholtz_report(region, u)
print(f"\nlocal split on the outer box, n=4:")
print(f"  orthogonality residual: {rep['orthogonality_residual']:.3e}")
print(f"  Pythagoras defect:      {rep['pythagoras_defect']:.3e}")
print(f"  ||u||, ||z||, ||grad p|| on region: "
      f"{rep['norm_e2'] ** 0.5:.5f}, {rep['norm_z2'] ** 0.5:.5f}, "
      f"{rep['norm_grad2'] ** 0.5:.5f}")

# the rotational part z of the split carries no gradient component:
# splitting it again returns a vanishing potential
p2 = helmholtz_report(region, rep["z"])["p"]
print(f"  potential of the z part: {float(np.abs(p2).max()):.3e}")

# EXACT SEQUENCE
# a pure discrete gradient is curl-free on the region and its nodal
# potential is recoverable from the edge increments alone
from hmaxwell.fem import build_nodal_space, discrete_gradient

nodal = build_nodal_space(system)
G = discrete_gradient(nodal)
q = rng.standard_normal(G.shape[1])
phi, _ = exact_sequence_recover(region.nodal, G @ q)

rows = np.unique(system.dofmap.tet_dofs[region.tets])
rows = rows[rows >= 0]
dev = float(np.abs((G @ q - G @ phi[~system.mesh.boundary_vertex])[rows]).max())
print(f"\npotential recovery from a curl-free field: "
      f"max dev {dev:.3e} on {rows.size} region edges")
