"""repro — reproduction of "Rethinking AIG Resynthesis in Parallel" (DAC 2023).

The package provides:

* :mod:`repro.aig` — the And-Inverter Graph substrate (construction,
  structural hashing, traversal, MFFCs, cuts, AIGER I/O, validation);
* :mod:`repro.logic` — truth tables, irredundant SOPs, algebraic
  factoring and NPN canonicalization;
* :mod:`repro.parallel` — the simulated parallel machine (kernel
  tracing + calibrated GPU cost model), the batched linear-probing hash
  table and frontier primitives;
* :mod:`repro.algorithms` — sequential (ABC-style) and parallel (the
  paper's) balancing, refactoring and rewriting, the dedup/dangling
  cleanup pass and the sequence runner (``resyn2``, ``rf_resyn``, ...);
* :mod:`repro.cec` — simulation- and SAT-based combinational
  equivalence checking, plus a small ROBDD package the tests use as
  an independent oracle for its verdicts;
* :mod:`repro.benchgen` — parametric benchmark circuit generators and
  the named evaluation suite;
* :mod:`repro.experiments` — drivers regenerating every table and
  figure of the paper's evaluation section, plus the cost-model
  calibration procedure.
"""

__version__ = "0.1.0"

from repro.aig import Aig

__all__ = ["Aig", "__version__"]
