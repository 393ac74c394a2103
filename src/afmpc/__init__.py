"""Classical and adaptive fuzzy model predictive control of a rotational
inverted pendulum, with an in-package dense SQP solver and a scenario
harness. The package re-exports nothing: each public name is imported from
its module, as in ``from afmpc.harness import load_config``."""

from . import plant, dense_linalg, fuzzy, nlp_optimizer, mpc, harness

__version__ = "0.1.0"
