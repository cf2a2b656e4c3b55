"""
The matching step in isolation: restrict a bimodal moment state to its
macro moments, push those forward, and rebuild the full state by
constrained weighted-L2 projection. The error against the exact target
shrinks as more variables are kept.
"""
import numpy as np

from mmbgk.basis import hme_state_to_expansion, weighted_l2_distance
from mmbgk.coupling import transform_state_slots
from mmbgk.experiments import BIMODAL_STATE, matching_study

w = np.asarray(BIMODAL_STATE)
prior = hme_state_to_expansion(w)
print(f"prior moments: rho={prior.coeffs[0]:.3f} "
      f"u={prior.params.u:.3f} theta={prior.params.theta:.3f}")

# one matching step by hand on a batch of one cell: the restriction is the
# leading (rho, u, theta) slots, which take the new macro state, while the
# free slots carry the prior re-expanded around it
target = np.array([[1.2, 1.2, 1.2]])
matched_w = transform_state_slots(w[None, :], target)[0]
matched = hme_state_to_expansion(matched_w)
print("macro after matching:", matched_w[:3])
print("carried free coefficients:", np.round(matched.coeffs[3:], 6))
d = weighted_l2_distance(matched, prior, matched.params)
print(f"weighted L2 gap to the prior: {d:.3e}")

# the canned study sweeps the number of matched variables L
print("\nL  error")
for l, err in matching_study():
    print(f"{l}  {err:.6e}")
