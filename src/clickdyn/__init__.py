"""Static and dynamic analysis of a bistable click-mechanism oscillator.

Submodules:

* :mod:`clickdyn.model` — dimensionless fields (potential, moment,
  stiffness, damping factor) and right-hand sides;
* :mod:`clickdyn.equilibria` — equilibria, stability, bifurcation sets;
* :mod:`clickdyn.integrate` — adaptive integration, events, Poincare
  sections, Lyapunov estimates;
* :mod:`clickdyn.freevib` — exact free-vibration periods and
  amplitude-frequency branches;
* :mod:`clickdyn.hbm` — harmonic balance of the cubic approximation,
  frequency response, folds, sweeps;
* :mod:`clickdyn.melnikov` — chaos thresholds by the Melnikov method;
* :mod:`clickdyn.dataset` — CSV datasets and the JSON manifest;
* :mod:`clickdyn.cli` — command-line front end.
"""

from .model import InputError, Params, PhysicalParams, nondimensionalize

__all__ = ["InputError", "Params", "PhysicalParams", "nondimensionalize"]
__version__ = "0.1.0"
