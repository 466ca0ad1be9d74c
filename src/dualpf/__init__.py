"""Dual particle-filter estimation of states and time-varying parameters.

Two concurrent sequential-Monte-Carlo filters — a regularized bootstrap
filter for the state and a prediction-error-driven filter for the
parameters — plus baseline estimators, a gas-turbine case study, fault
diagnosis utilities and an equivalent-flop complexity accountant.  Each
name is imported from the module that defines it.
"""

__version__ = "0.1.0"
