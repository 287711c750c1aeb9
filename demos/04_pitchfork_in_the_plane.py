"""
A planar pitchfork: tipping without collision or blow-up
========================================================

The ``moving-pitchfork`` model is a planar system driven by the polynomial
ramp lambda(rt) = (1 + rt)^p - 1.  In the co-moving frame it reduces to
the autonomous pair dz/dt = -z + r, dy/dt = -y(z - mu + y^2), whose
equilibria sit at z = r, y in {0, +/-sqrt(mu - r)}.  At r* = mu the two
symmetric attractors merge with the saddle in a pitchfork: past it, a
single symmetric attractor remains.  Nothing collides with a repeller and
nothing escapes -- yet the attractor count drops, for every ramp degree p.
"""
import numpy as np

import tiplab as tl

mu = 1.0
model = tl.make_model("moving-pitchfork", mu=mu, r=0.5, p=1)

# The correspondence with the co-moving frame is exact, not asymptotic:
# algebraic identity, matched trajectories, and lifted equilibria.
for p in (1, 2, 3):
    rep = tl.comoving_consistency_check(model.with_rate(0.5) if p == 1
                                        else tl.make_model("moving-pitchfork",
                                                           mu=mu, r=0.5, p=p))
    print(f"p = {p}: co-moving consistency passed = {rep['passed']} "
          f"(algebraic residual {rep['algebraic']['max_residual']:.1e})")

# Below r* the two anchored estimates converge to a symmetric pair of
# curves with y = +/- sqrt(mu - r).
up = tl.estimate_pullback(model, anchor=[1.0, 1.0])
dn = tl.estimate_pullback(model, anchor=[1.0, -1.0])
print("y components:", up.states[0, 1], dn.states[0, 1],
      "expected +/-", np.sqrt(mu - 0.5))
print("antisymmetry mismatch:",
      float(np.max(np.abs(up.states[:, 1] + dn.states[:, 1]))))

# Above r* both estimates land on the same y = 0 curve.
diag = tl.rate_diagnostics(model, r=1.5, include_forward=False)
print(f"r = 1.5: distinct attractors = {diag.n_attractors}, "
      f"tipped = {diag.tipped}, escapes = {len(diag.escaped)}")

# The attractor-count predicate brackets r* = mu.  The bifurcation is named
# from the closed-form co-moving equilibria on either side: below r* the
# pair (r, +/-sqrt(mu - r)) mirrors in y about the saddle (r, 0), so the
# bracket is a pitchfork, not a saddle-node.
for p in (1, 2):
    m = tl.make_model("moving-pitchfork", mu=mu, p=p)
    report = tl.find_critical_rate(m, r_range=(0.3, 3.0), resolution=1e-2)
    b = report.brackets[0]
    print(f"p = {p}: bracket [{b.lower:.4f}, {b.upper:.4f}] {b.classification}")
