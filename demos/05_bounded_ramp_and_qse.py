"""
A bounded ramp: tipping with an asymptotically constant parameter
=================================================================

The ``bounded-ramp-sn`` model drives the saddle-node normal form with
lambda(rt) = lambda_max (tanh(rt) + 1)/2, a shift of bounded total size.
Slow ramps let the state track the stable quasi-static equilibrium (QSE)
branch across the whole transition; fast ramps leave it stranded below
the unstable branch, and it blows up.  The critical rate has no closed
form here -- it is found purely numerically.
"""
import numpy as np

import tiplab as tl

mu = 0.5
model = tl.make_model("bounded-ramp-sn", mu=mu)  # lambda_max defaults to 3 mu

# Continue the frozen-system equilibria over the transition window: one
# stable and one unstable branch, a bounded distance mu apart.
branches = tl.qse_continuation(model.with_rate(0.2),
                               s_grid=np.linspace(-20.0, 20.0, 81))
for br in branches:
    x0, x1 = br.states[0, 0], br.states[-1, 0]
    print(f"QSE branch ({br.stability}): x = {x0:.4f} -> {x1:.4f}")

# Slow ramp: the pullback attractor exists and, once the ramp has leveled
# off, it tracks the stable QSE branch to within any tolerance.
slow = tl.estimate_pullback(model, r=0.05, window=(0.0, 45.0))
tracking = tl.endpoint_tracking_test(
    model, r=0.05, curve=slow,
    branch=lambda t: tl.oracle_curve(model.with_rate(0.05), "qse_stable+", t),
    horizon=45.0, eps=0.01,
)
print(f"r = 0.05: pullback {slow.status}, QSE tracking {tracking.verdict}")

# Fast ramp: the same construction escapes in finite time.
fast = tl.estimate_pullback(model, r=1.0, window=(-5.0, 5.0))
print(f"r = 1.00: pullback {fast.status}")

# Bracket the critical rate.  There is no closed form to compare against;
# the value near 0.1727 (mu = 0.5, lambda_max = 1.5) is a regression
# anchor measured by this very routine.
report = tl.find_critical_rate(model, r_range=(0.05, 5.0), resolution=1e-3,
                               window=(-5.0, 5.0))
b = report.brackets[0]
print(f"critical rate in [{b.lower:.5f}, {b.upper:.5f}] "
      f"(classification: {b.classification})")

# A rate sweep summarizes the transition.  All its rates run as one batch;
# the threads argument changes no output bit.
rows = tl.sweep(model, np.linspace(0.05, 0.4, 8), threads=4,
                window=(-5.0, 5.0))
for row in rows:
    print(f"  r = {row['rate']:.3f}  tipped = {row['tipped']}")
