"""From repair logistics to availability, step by step.

A field-replaceable unit's mean down time is more than the hands-on
repair: the crew has to notice and reach it, admin has to release it,
and if no spare is on the shelf the turnaround time of the repair loop
is added too, weighted by how often the shelf is empty.
"""

from availkit import Component, nines, unavailability

pipeline = dict(
    mttres_h=2.0,   # hands-on repair once the spare is in hand
    mldt_h=4.0,     # logistics: travel, diagnosis, fetching the unit
    madt_h=1.0,     # administrative delay
    pnrs=0.99,      # probability the spare is on the shelf
    tat_h=168.0,    # repair-loop turnaround when it is not
)
unit = Component("fru", dict(mtbf_h=100000.0, **pipeline))

print(f"mean down time          {unit.mdt_h} h")
print(f"  of which turnaround   {unavailability(pipeline['pnrs']) * pipeline['tat_h']} h")

a = unit.availability
print(f"\nMTBF {unit.fields['mtbf_h']:.0f} h -> availability {a}")
print(f"that is {nines(a)} nines, {unavailability(a) * 525600:.1f} min of downtime a year")

# The shelf probability is the whole game at this MTBF: sweep it.
print("\npnrs    MDT (h)   downtime (min/yr)")
for pnrs in (0.80, 0.90, 0.95, 0.99, 0.999, 1.0):
    c = unit.replace(fields={**unit.fields, "pnrs": pnrs})
    print(f"{pnrs:<7} {c.mdt_h:<9.3f} {unavailability(c.availability) * 525600:8.2f}")
