//! An OpenWhisk-model FaaS platform.
//!
//! §5.1 describes the deployment this crate models: a distributed
//! OpenWhisk where the *invoker* hosts function containers (one core
//! each) and Groundhog interposes on the actionloop proxy's stdin/stdout
//! between the platform and the function process. The pieces:
//!
//! - [`container::Container`]: one function container driven through
//!   Fig. 1's life cycle — environment instantiation, runtime
//!   initialization, data initialization (the dummy warm-up request of
//!   §4.1), strategy preparation (GH snapshot), then the serve/restore
//!   loop. Requests are buffered until the manager reports the process
//!   clean (§4.5).
//! - [`proxy`]: the interposition costs of the actionloop design — the
//!   manager's extra pipe hop, per-KiB payload copying, and the
//!   refactored Node.js wrapper penalty (§5.3.1).
//! - [`platform::Platform`]: a facade wiring controller-side delays
//!   (E2E − invoker, calibrated per benchmark from the paper's BASE
//!   columns) around containers.
//! - [`client`]: the two workloads of §5.2/§5.3 — a closed-loop low-load
//!   client (latency; restores complete between requests) and a
//!   saturating client (throughput; restores eat into capacity) — plus
//!   the multi-core scaling harness of §5.3.4.
//! - [`fleet`]: the event-driven fleet scheduler — N containers per
//!   function on interleaved virtual timelines behind a router with
//!   pluggable policies (round-robin, least-loaded, restore-aware),
//!   admission queues with depth percentiles, and an autoscaler. A
//!   fleet of one round-robin slot is §4's open-loop single-container
//!   limit harness.
//! - [`trace`]: the trace-driven workload generator — thousands of
//!   functions with Zipfian popularity, diurnal load envelopes and
//!   bursty principals, all on seeded [`gh_sim::DetRng`] streams.
//! - [`cluster`]: N simulated worker nodes, each an independent fleet
//!   on its own event queue, behind a deterministic placement
//!   front-end; nodes run host-parallel with results bit-identical to
//!   the serial reference.
//! - [`gateway`]: the [`gh_gateway`] policies (result cache, admission
//!   control, predictive pre-warming) wired in front of a fleet as an
//!   event-driven front-end; a disabled gateway is byte-identical to
//!   the ungated fleet (the differential oracle), and the cluster gets
//!   the same policies as a pure per-node fold ([`cluster::GatewayFront`]).
//! - [`fault`]: seeded deterministic fault injection — container death
//!   mid-request, restore failure, node loss — as pure hash draws, so
//!   fault-free runs stay byte-identical and node-parallel runs stay
//!   deterministic; bounded-attempt exponential-backoff retries.
//! - [`workflow`]: workflow composition over the platform — dynamic
//!   DAGs (fan-out / fan-in / conditional edges; a static chain is the
//!   degenerate DAG) run hop by hop by one runner, with idempotent
//!   commits keyed by `(workflow, hop path)`, an AFT-style read-atomic
//!   KV shim, Groundhog's taint tracking extended across hops,
//!   crash-exact recovery under fault injection, and cross-node
//!   migration of in-flight hops behind a failure-aware autoscaler
//!   ([`cluster::scale`]).

pub mod client;
pub mod cluster;
pub mod container;
pub mod fault;
pub mod fleet;
pub mod gateway;
pub mod platform;
pub mod proxy;
pub mod request;
pub mod trace;
pub mod workflow;

pub use cluster::scale::{NodeScaleConfig, NodeScaler, ScaleStats};
pub use cluster::{
    run_cluster, run_cluster_gateway, ClusterConfig, ClusterGatewayResult, ClusterResult,
    PlacePolicy,
};
pub use container::{Container, InvokeOutcome};
pub use fault::{FaultConfig, FaultPlan, FaultStats, RetryPolicy};
pub use fleet::{Fleet, FleetConfig, FleetResult, Pool, RoutePolicy};
pub use gateway::{run_gateway_fleet, GatewayFleet, GatewayFleetConfig, GatewayResult};
pub use platform::{Platform, PlatformConfig};
pub use request::{Request, Response};
pub use trace::{synthetic_catalog, TraceConfig, TraceEvent, TraceGen};
pub use workflow::dag::{random_dag_spec, run_dag_workflows, DagNode, DagOp, DagResult, DagSpec};
pub use workflow::migrate::{run_migrating_dags, MigrateConfig, MigrateResult};
pub use workflow::WorkflowConfig;
