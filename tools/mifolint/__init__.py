"""mifolint — custom AST lint rules for the MIFO reproduction.

Rules the generic linters can't express (see :mod:`tools.mifolint.core`):

* ``MF001`` — no unseeded ``random`` / ``numpy.random`` in library code;
* ``MF002`` — no iteration over unordered sets in routing hot paths;
* ``MF003`` — no mutation of a frozen ``ASGraph``, and no store into
  another object's private attribute;
* ``MF004`` — no direct ``time.time()`` / ``perf_counter()`` clock reads
  in library code outside ``repro.telemetry`` (use spans or ``Stopwatch``);
* ``MF005`` — every public class and function in library code carries a
  docstring.

Run as ``python -m tools.mifolint src tests tools benchmarks`` (exit code
1 on findings).
"""

from .core import RULES, Violation, lint_file, lint_paths, lint_source

__all__ = ["RULES", "Violation", "lint_file", "lint_paths", "lint_source"]
