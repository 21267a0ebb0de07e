"""Certify the full table: fewer than 2^n caps suffice for 5 <= n <= 15.

For each dimension the built-in configuration is expanded, its covering
radius computed through the symmetry-reduced polar polytope, the
threshold arccos(sqrt((n-1)/(2n))) checked, and the attaining vertex
confirmed as a deepest hole.  Dimensions 5..10 carry exact
certificates (rational or quadratic); 11..15 run in floating point with an
explicit margin.

The same table is available from the command line:

    sphcover verify --all --format text --timing
"""

import time

from sphcover import reports_to_text, verify_bounds

start = time.perf_counter()
reports = verify_bounds()
elapsed = time.perf_counter() - start

print(reports_to_text(reports, include_timing=True))
print(f"all {len(reports)} dimensions certified in {elapsed:.1f}s")

# Exact cos^2 values for the symbolically certified dimensions.
print("\nexact certificates:")
for rep in reports:
    if rep.backend.is_exact:
        print(f"  n={rep.dimension}: cos^2 r = {rep.cos2_radius}")

# n = 5 is the boundary case: the radius equals the threshold exactly.
rep5 = reports[0]
print("n=5 margin is exactly zero:", rep5.margin_cos2 == 0.0)
