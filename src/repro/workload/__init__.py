"""Workload generation and the Caliper-style declarative benchmark runner."""

from .clients import ClientStrategy, ClosedLoopClient, OpenLoopClient, RoundContext
from .generator import (
    PlannedTx,
    expected_conflicting,
    generate_plan,
    keys_to_populate,
    plan_times,
)
from .rate import FixedRate, LinearRamp, MaxRate, PoissonArrival, RateController
from .reporter import (
    ConsoleReporter,
    JsonReporter,
    Reporter,
    deterministic_fingerprint,
    format_figure,
    format_result_details,
    golden_drift,
)
from .runner import (
    Benchmark,
    BenchmarkReport,
    Round,
    build_network,
    populate_ledger,
    run_round,
)
from .iot import (
    IOT_CHAINCODE_NAME,
    IoTChaincode,
    encode_call,
    initial_device_state,
    nested_payload,
    reading_payload,
)
from .metrics import BenchmarkResult, MetricsCollector, Trim
from .smallbank import SmallBankChaincode, total_money
from .trace import (
    export_csv,
    latency_percentiles,
    queue_depth_estimate,
    summarize_run,
    throughput_timeline,
    trace_rows,
)
from .spec import (
    WorkloadSpec,
    table1_spec,
    table2_spec,
    table3_spec,
    table4_spec,
    table5_spec,
)

__all__ = [
    "Benchmark",
    "BenchmarkReport",
    "Round",
    "run_round",
    "RateController",
    "FixedRate",
    "PoissonArrival",
    "LinearRamp",
    "MaxRate",
    "ClientStrategy",
    "OpenLoopClient",
    "ClosedLoopClient",
    "RoundContext",
    "Reporter",
    "JsonReporter",
    "ConsoleReporter",
    "deterministic_fingerprint",
    "golden_drift",
    "plan_times",
    "WorkloadSpec",
    "table1_spec",
    "table2_spec",
    "table3_spec",
    "table4_spec",
    "table5_spec",
    "PlannedTx",
    "generate_plan",
    "keys_to_populate",
    "expected_conflicting",
    "IoTChaincode",
    "IOT_CHAINCODE_NAME",
    "encode_call",
    "reading_payload",
    "nested_payload",
    "initial_device_state",
    "BenchmarkResult",
    "MetricsCollector",
    "Trim",
    "build_network",
    "populate_ledger",
    "format_figure",
    "format_result_details",
    "SmallBankChaincode",
    "total_money",
    "trace_rows",
    "latency_percentiles",
    "throughput_timeline",
    "queue_depth_estimate",
    "export_csv",
    "summarize_run",
]
