"""Figure-11 style micro-study: cost of inspecting more columns.

One selection over the taxi data while the number of inspected sensitive
columns grows; prints the runtime per engine/mode.  In the paper the
PostgreSQL CTE mode grows linearly (each inspection re-runs the chain);
here all inspections are one statement, so a column only adds arms.

Run:  python examples/taxi_column_scaling.py  [n_rows]
"""

import sys
import tempfile
import time

from repro.core.connectors import PostgresqlConnector, UmbraConnector
from repro.datasets import generate_taxi
from repro.inspection import NoBiasIntroducedFor, PipelineInspector
from repro.pipelines import taxi_source

COLUMNS = [
    "passenger_count",
    "trip_distance",
    "PULocationID",
    "DOLocationID",
    "payment_type",
]

n_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000
directory = tempfile.mkdtemp()
generate_taxi(directory, n_rows=n_rows, seed=0)
source = taxi_source(directory)

configs = [
    ("python", {}),
    ("pg CTE", dict(dbms_connector=PostgresqlConnector(), mode="CTE")),
    ("pg VIEW", dict(dbms_connector=PostgresqlConnector(), mode="VIEW")),
    ("umbra CTE", dict(dbms_connector=UmbraConnector(), mode="CTE")),
    ("umbra VIEW", dict(dbms_connector=UmbraConnector(), mode="VIEW")),
]

print(f"taxi selection over {n_rows} tuples; seconds per configuration\n")
print("#cols  " + "".join(f"{label:>12}" for label, _ in configs))
for k in range(1, len(COLUMNS) + 1):
    check = NoBiasIntroducedFor(COLUMNS[:k], threshold=0.25)
    cells = []
    for label, kwargs in configs:
        inspector = PipelineInspector.on_pipeline_from_string(
            source, "<taxi>"
        ).add_check(check)
        started = time.perf_counter()
        if kwargs:
            inspector.execute_in_sql(**kwargs)
        else:
            inspector.execute()
        cells.append(time.perf_counter() - started)
    print(f"{k:>5}  " + "".join(f"{c:>12.3f}" for c in cells))
