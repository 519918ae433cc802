"""In-memory span tracer that wraps amnmodes' public functions from outside.

A traced function is replaced in every amnmodes module that binds it
(`recurrence.coefficient_polynomials` and `roots.coefficient_polynomials`
are one function bound twice), so calls are seen wherever they are made.
Each call records a span (id, name, start, end, parent id, self time);
self time is the duration minus the time of the traced calls inside it.
Spans stay in memory until `write`.

`ZeroModeField.evaluate` runs about 16 times per grid point, so it is
aggregated instead: calls and total time, with its time still taken out
of the enclosing span's self time.  The hot helpers `poly_eval` and the
`RatPoly` operators are not wrapped.
"""

from __future__ import annotations

import importlib
import json
import time

MODULES = ("amnmodes", "amnmodes.cli", "amnmodes.roots", "amnmodes.recurrence",
           "amnmodes.fields", "amnmodes.polynomials")

SPANNED = (
    "cli.main",
    "roots.verification_report",
    "roots.rational_root_oracle",
    "roots.verify_factorization",
    "roots.check_root_solutions",
    "recurrence.polynomial_report",
    "recurrence.build_amn_polynomial",
    "recurrence.coefficient_polynomials",
    "recurrence.instantiate_solution",
    "recurrence.verify_system",
    "polynomials.primitive_integer_form",
    "fields.sample_grid",
    "fields.weyl_dirac_residual",
    "fields.l2_norm_squared",
)
AGGREGATED = ("fields.ZeroModeField.evaluate",)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.aggregates = {name: [0, 0.0] for name in AGGREGATED}
        self.max_coeff_bits = 0
        self._stack: list[list] = []  # open spans: [id, time of traced children]
        self._next_id = 0
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, observe=None):
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans.append((sid, name, start, end, parent, end - start - frame[1]))
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_bits(self, amn) -> None:
        bits = max(abs(c).bit_length() for c in amn.integer.coeffs)
        self.max_coeff_bits = max(self.max_coeff_bits, bits)

    def _aggregate(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        totals = self.aggregates[name]

        def counted(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                totals[0] += 1
                totals[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return counted

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in MODULES]
        for name in SPANNED:
            module, attr = name.split(".")
            original = getattr(importlib.import_module(f"amnmodes.{module}"), attr)
            observe = self._observe_bits if name == "recurrence.build_amn_polynomial" else None
            wrapper = self.wrap(name, original, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name in AGGREGATED:
            module, cls_name, attr = name.split(".")
            cls = getattr(importlib.import_module(f"amnmodes.{module}"), cls_name)
            original = vars(cls)[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._aggregate(name, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Spans as JSON lines, then one line of aggregates and counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"aggregates": self.aggregates,
                                 "max_coeff_bits": self.max_coeff_bits}) + "\n")
