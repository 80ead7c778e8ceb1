"""Broadcasting entanglement with local copiers, the three-party protocol,
and clone-then-delete pipelines."""

import math

import numpy as np

from qclone import MachineSpec, DeleterSpec
from qclone import broadcast as bc
from qclone.concat import PipelineSpec, pipeline_averages, run_pipeline
from qclone.measures import concurrence_2q, ppt_verdict

print("=== copying entanglement with two local copiers ===")
lam = 1 / 6  # the universal copier
outs = bc.broadcast_outputs((math.sqrt(0.5), math.sqrt(0.5)), lam)
nonlocal_verdict = ppt_verdict(outs["AB'"]).verdict
local_verdict = ppt_verdict(outs["AA'"]).verdict
print(f"  nonlocal pair: {nonlocal_verdict}")
print(f"  local pair:    {local_verdict} (clone pairs always are)")
iv = bc.insep_interval(lam)
sv = bc.sep_interval(lam)
print(f"  nonlocal pairs inseparable for alpha^2 in ({iv.lo:.5f}, {iv.hi:.5f})")
print(f"  local pairs separable for alpha^2 in ({sv.lo:.5f}, {sv.hi:.5f})")
print(f"  average broadcast fidelity: {bc.avg_broadcast_fidelity(lam):.6f} = 67/108")

print("\n=== tuning the copier to the input narrows the damage ===")
for alpha in (0.1, 0.5, 0.7):
    lam_star = bc.sd_cloner_lambda_star(alpha * alpha)
    f = bc.broadcast_fidelity(alpha * alpha, lam_star)
    print(f"  alpha = {alpha}: lambda* = {lam_star:.3f}, broadcast fidelity = {f:.3f}")

print("\n=== two rounds of cloning make three-qubit entanglement ===")
out = bc.three_qubit_protocol(math.sqrt(0.8), "Q0Q0")
print(f"  branch probability: {out.probability:.4f}")
print(f"  C(1,6) = {concurrence_2q(out.rho_16):.4f}, C(4,6) = {concurrence_2q(out.rho_46):.4f}")
x0 = bc.PROTOCOL_BOUNDARIES["Q0Q0", "rho_46"].alpha2
print(f"  the three-qubit state is closed-entangled for alpha^2 > x0 = (3 + 2 sqrt 3) / (7 + 2 sqrt 3) = {x0:.8f}")
certified = bc.certify_boundary("Q0Q0", "rho_46")
print(f"  the simulated rho_46 changes its PPT sign between x0 -/+ {bc.CERTIFY_OFFSET:.0e}: {certified}")

print("\n=== swapping extends the state to a third party ===")
target = bc.relabel_325_to_357(out.rho_325)
p, rho = bc.swap_extend(out.rho_325, "B1+")
dev = np.max(np.abs(rho.mat - target.mat))
print(f"  outcome probability {p:.2f}; corrected state matches to {dev:.1e}")

print("\n=== clone, use, then delete ===")
for name, cloner in (("basis copier", MachineSpec("wz")), ("universal copier", MachineSpec("bh", (1 / 6,)))):
    spec = PipelineSpec(cloner, DeleterSpec("pb"))
    d, f = run_pipeline(spec, 0.5)
    ad, af = pipeline_averages(spec)
    print(f"  {name}: deletion fidelity {f:.4f}, average retained distortion {ad:.4f}")
