"""Brute-force oracles versus the fast engine.

Runs the exhaustive sweeps: the engine closes every configuration of a
tiny box in one batch and each minimal cover it certifies is checked
against the least-fixed-point oracle, walk- and path-reachability are
compared site for site, and the path-counting bounds are verified bucket
by bucket.
"""

import json

from lipsurf.harness import oracle_suite

suite = oracle_suite(p=0.99)
for check in suite["checks"]:
    name = check.pop("name")
    passed = check.pop("passed")
    status = "PASS" if passed else "FAIL"
    print(f"{status}  {name}")
    for key, val in check.items():
        if key == "pairs":
            for row in val:
                print(f"        (h={row['h']}, r={row['r']}): "
                      f"partial {row['partial']:.6f} <= bound {row['bound']:.6f}")
        else:
            print(f"        {key}: {json.dumps(val)}")
print()
print("all passed" if suite["all_passed"] else "FAILURES PRESENT")
