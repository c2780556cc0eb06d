"""Categorical macroeconometric toolkit for a bimonetary economy.

Subpackages by concern:

- ``panel``: the date-indexed data panel and its transforms
- ``category``: objects, morphisms, diagrams, functors, commutativity checks
- ``structural``: the model equations' one table, calibration, simulation
- ``econometrics``: stationarity/cointegration/causality tests, VAR, IRF, FEVD
- ``scenarios``: shocks and the sensitivity refits
- ``equilibrium``: penalty-minimizing equilibrium exchange rate
- ``colimit``: the aggregate devaluation-expectation index
- ``cli``: the ``bimonetary`` command
"""

__version__ = "0.1.0"
