"""Human-aware robot trajectory optimization with predicted-motion costs.

A stochastic prediction of human arm motion feeds five weighted costs
(distance, visibility, legibility, nominal deviation, smoothness) that
are minimized over joint-space waypoints with both endpoints fixed.
Baseline planners, evaluation metrics, and a scenario benchmark are
included; see the ``comoto`` CLI.
"""

__version__ = "0.1.0"
