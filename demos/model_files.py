"""The model file format: declare components, wire them up, report.

A file holds component declarations plus exactly one system — either a
block expression or a two-terminal network. The parser places every
diagnostic at a line and column, and the formatter emits a canonical
form that parses back to the identical model.
"""

from availkit import (
    build_report,
    derive_environment,
    eval_block,
    format_model,
    parse_model,
    render_text,
    validate,
)

TEXT = """\
# A web tier behind a load balancer, with a database that has a
# measured repair pipeline.
component lb  { availability = 0.9995 }
component web { mtbf_h = 5000, mdt_h = 2 }
component db  { mtbf_h = 20000, mttres_h = 3, mldt_h = 2, madt_h = 1,
                pnrs = 0.95, tat_h = 72 }

system = series(lb, parallel(web, web, web), db)
"""

model, diagnostics = parse_model(TEXT)
assert model is not None, diagnostics
for d in validate(model):
    print(f"{d.severity}: {d.message} (at {d.path})")

env = derive_environment(model.components)
report = build_report(model, env, eval_block(model.system, env))
print(render_text(report))

# The canonical form normalises whitespace and number spelling; feeding
# it back through the parser reproduces the same model.
canonical = format_model(model)
print("canonical form:")
print(canonical)
again, _ = parse_model(canonical)
print(f"round-trips exactly: {again == model}")

# Diagnostics point into the source by line and column.
bad = "component c1 { availability = 1.2 }\nsystem = c1\n"
_, diags = parse_model(bad)
for d in diags:
    print(f"\nline {d.span.line}, col {d.span.column}: {d.severity}: {d.message}")
