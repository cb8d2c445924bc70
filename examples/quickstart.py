#!/usr/bin/env python3
"""Quickstart: the paper's running example, end to end.

Walks through Fig. 1 and Examples 1-13 of *Towards Certain Fixes with
Editing Rules and Master Data* (Fan et al.): an input tuple with errors, the
editing rules that fix it, why naive constraint-based repair cannot, and how
a certain region guarantees the fix.

Run:  python examples/quickstart.py
"""

from repro import chase, is_certain_region
from repro.constraints.cfd import CFD
from repro.core.patterns import PatternTuple
from repro.datasets import make_running_example


def show(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main():
    ex = make_running_example()
    t1 = ex.inputs["t1"]

    show("The input tuple t1 (Fig. 1a) — a UK supplier with errors")
    for attr, value in t1.to_dict().items():
        print(f"  {attr:>5} = {value!r}")
    print("\nErrors: AC should be 131 (not 020), str should be '51 Elm Row',")
    print("and 'Bob' is a non-standard form of 'Robert'.")

    show("Example 1: a CFD detects the inconsistency but cannot locate it")
    cfd = CFD("AC", "city", PatternTuple({"AC": "020", "city": "Ldn"}))
    print(f"CFD: AC = 020 -> city = Ldn")
    print(f"t1 violates it: {cfd.single_tuple_violation(t1)}")
    print("But which of t1[AC] / t1[city] is wrong? The CFD cannot say —")
    print("a repair heuristic may 'fix' city to Ldn, breaking a correct value.")

    show("Editing rules (Example 3) fix errors instead of just finding them")
    for rule in ex.rules[:4]:
        print(f"  {rule!r}")
    print("  ... 9 rules in total (Example 11)")

    show("The fix chase from the validated region Z = (zip, phn, type)")
    out = chase(t1, ("zip", "phn", "type"), ex.rules, ex.master)
    print(f"unique fix: {out.unique}")
    print("rule applications (one witness master tuple per distinct value):")
    for rule, tm, batch in out.fired:
        print(f"  batch {batch}: {rule.name} sets "
              f"{rule.rhs} := {tm[rule.rhs_m]!r}")
    print("\nFixed values:")
    for attr in ("FN", "AC", "str", "city"):
        print(f"  {attr:>5} = {out.assignment[attr]!r}")
    print(f"\ncovered attributes: {sorted(out.covered)}")
    print(f"certain fix (covers all of R)? {out.is_certain(ex.schema)}")
    print("-> 'item' is not covered: no rule can fix it (Example 8),")
    print("   so the user must vouch for it.")

    show("Example 9: adding item to Z yields a certain region")
    region = ex.regions["Zzmi"]
    print(f"Region Z = {list(region.attrs)} with {len(region.tableau)} "
          f"master-derived patterns:")
    for pattern in region.tableau:
        print(f"  {pattern!r}")
    certain = is_certain_region(ex.rules, ex.master, region, ex.schema)
    print(f"\nIs it a certain region? {certain}")
    print("Every tuple marked by it is guaranteed a unique, complete fix.")

    show("Example 5: why validation matters — conflicting evidence on t3")
    t3 = ex.inputs["t3"]
    out3 = chase(t3, ex.regions["ZAHZ"].attrs, ex.rules, ex.master)
    print(f"t3 asserts both its zip (matching {ex.masters['s1']['FN']}'s "
          f"record) and its phone (matching {ex.masters['s2']['FN']}'s):")
    print(f"unique fix: {out3.unique}")
    print(f"conflict: {out3.conflict.describe()}")
    print("-> the framework would ask the user to assert only ONE of them.")


if __name__ == "__main__":
    main()
