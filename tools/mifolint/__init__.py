"""mifolint — custom AST lint rules for the MIFO reproduction.

Rules the generic linters can't express (see :mod:`tools.mifolint.core`):

* ``MF001`` — no unseeded ``random`` / ``numpy.random`` in library code;
* ``MF002`` — no iteration over unordered sets in routing hot paths;
* ``MF003`` — no mutation of a frozen ``ASGraph`` or of the CSR arrays
  every array-backend view shares;
* ``MF004`` — no direct ``time.time()`` / ``perf_counter()`` clock reads
  in library code outside ``repro.telemetry`` (use spans or ``Stopwatch``).

Run as ``python -m tools.mifolint src tests`` (exit code 1 on findings).
"""

from .core import RULES, Violation, lint_file, lint_paths, lint_source

__all__ = ["RULES", "Violation", "lint_file", "lint_paths", "lint_source"]
