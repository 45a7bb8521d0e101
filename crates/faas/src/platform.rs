//! The platform facade: controller + invoker wiring around containers.
//!
//! End-to-end latency = controller/load-balancer path + invoker-side
//! container time. The controller path is calibrated per benchmark from
//! the paper's BASE columns (E2E − invoker) and is identical across
//! configurations (§5.3.1: "these significant platform overheads are the
//! same in the baseline and Groundhog"). FAASM runs its own platform
//! (§5.3.3), so its controller path is calibrated from the FAASM columns.

use gh_functions::FunctionSpec;
use gh_isolation::{StrategyError, StrategyKind};
use gh_sim::{DetRng, Nanos};
use groundhog_core::GroundhogConfig;

use crate::container::Container;
use crate::fleet::{Fleet, FleetConfig, FleetResult, Pool, RoutePolicy};
use crate::request::{Request, Response};

/// Platform configuration.
#[derive(Clone, Debug)]
pub struct PlatformConfig {
    /// Groundhog configuration used by GH/GHNOP containers.
    pub gh: GroundhogConfig,
    /// Root seed for all deterministic noise.
    pub seed: u64,
    /// Coefficient of variation of the controller-path delay (the paper's
    /// E2E measurements are heavy-tailed; Table 1 shows ±σ of the same
    /// order as the mean for short functions).
    pub platform_cov: f64,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            gh: GroundhogConfig::gh(),
            seed: 0xF00D,
            platform_cov: 0.8,
        }
    }
}

/// Identifier of a deployed container.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ContainerId(pub usize);

/// Identifier of a deployed container pool.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PoolId(pub usize);

/// A completed end-to-end invocation.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The response.
    pub response: Response,
    /// Invoker-measured latency.
    pub invoker: Nanos,
    /// End-to-end latency (client-observed).
    pub e2e: Nanos,
    /// Off-critical-path cleanup after the response.
    pub off_path: Nanos,
}

/// The FaaS platform: containers plus controller-side behaviour.
pub struct Platform {
    cfg: PlatformConfig,
    containers: Vec<Container>,
    pools: Vec<Pool>,
    rng: DetRng,
    next_request: u64,
}

impl Platform {
    /// Creates an empty platform.
    pub fn new(cfg: PlatformConfig) -> Platform {
        let rng = DetRng::new(cfg.seed);
        Platform {
            cfg,
            containers: Vec::new(),
            pools: Vec::new(),
            rng,
            next_request: 1,
        }
    }

    /// Deploys a function in a new warm container under `kind`.
    pub fn deploy(
        &mut self,
        spec: &FunctionSpec,
        kind: StrategyKind,
    ) -> Result<ContainerId, StrategyError> {
        let seed = self.rng.next_u64();
        let c = Container::cold_start(spec, kind, self.cfg.gh.clone(), seed)?;
        self.containers.push(c);
        Ok(ContainerId(self.containers.len() - 1))
    }

    /// Access a deployed container.
    pub fn container(&self, id: ContainerId) -> &Container {
        &self.containers[id.0]
    }

    /// Mutable access to a deployed container.
    pub fn container_mut(&mut self, id: ContainerId) -> &mut Container {
        &mut self.containers[id.0]
    }

    /// Deploys a function as a pool of `size` warm containers under
    /// `kind`, ready to absorb open-loop traffic through the fleet
    /// scheduler.
    pub fn deploy_pool(
        &mut self,
        spec: &FunctionSpec,
        kind: StrategyKind,
        size: usize,
    ) -> Result<PoolId, StrategyError> {
        let seed = self.rng.next_u64();
        let pool = Pool::build(spec, kind, self.cfg.gh.clone(), size, seed)?;
        self.pools.push(pool);
        Ok(PoolId(self.pools.len() - 1))
    }

    /// Access a deployed pool.
    pub fn pool(&self, id: PoolId) -> &Pool {
        &self.pools[id.0]
    }

    /// Snapshot-memory accounting of a deployed pool: dedup ratio of the
    /// shared store and resident bytes per container.
    pub fn pool_memory(&self, id: PoolId) -> crate::fleet::PoolMemory {
        self.pools[id.0].memory()
    }

    /// Drives `requests` open-loop Poisson arrivals at `offered_rps`
    /// through a deployed pool under `policy`, returning fleet-level
    /// stats (per-container utilization, queue-depth percentiles,
    /// restore-overlap ratio). The pool's state evolves across calls —
    /// containers stay warm.
    pub fn run_fleet(
        &mut self,
        id: PoolId,
        policy: RoutePolicy,
        offered_rps: f64,
        requests: usize,
    ) -> Result<FleetResult, StrategyError> {
        let seed = self.rng.next_u64();
        let cfg = FleetConfig::fixed(policy, offered_rps, seed);
        Fleet::new(cfg).run(&mut self.pools[id.0], requests)
    }

    /// [`Platform::run_fleet`] with fault injection armed: container
    /// deaths, restore failures and retries per `faults`. The fault
    /// plan reuses the fleet run's own seed, so the same platform state
    /// yields the same fault schedule. An inert config degenerates to
    /// exactly [`Platform::run_fleet`].
    pub fn run_fleet_faulty(
        &mut self,
        id: PoolId,
        policy: RoutePolicy,
        offered_rps: f64,
        requests: usize,
        faults: crate::fault::FaultConfig,
    ) -> Result<FleetResult, StrategyError> {
        let seed = self.rng.next_u64();
        let cfg = FleetConfig::fixed(policy, offered_rps, seed);
        let faults = crate::fault::FaultConfig { seed, ..faults };
        Fleet::new(cfg)
            .with_faults(faults)
            .run(&mut self.pools[id.0], requests)
    }

    /// Fresh unique request id.
    pub fn fresh_request_id(&mut self) -> u64 {
        let id = self.next_request;
        self.next_request += 1;
        id
    }

    /// The controller-path delay for one request of `spec` under `kind`.
    fn controller_delay(&mut self, spec: &FunctionSpec, kind: StrategyKind) -> Nanos {
        let base_ms = match (kind, spec.faasm) {
            (StrategyKind::Faasm, Some(f)) => (f.e2e_ms - f.invoker_ms).max(0.0),
            _ => spec.platform_delay_ms(),
        };
        let noise = self.rng.lognormal_factor(self.cfg.platform_cov);
        Nanos::from_millis_f64(base_ms).scale(noise)
    }

    /// Invokes a deployed function end-to-end.
    pub fn invoke(
        &mut self,
        id: ContainerId,
        principal: &str,
        input_kb: u64,
    ) -> Result<Outcome, StrategyError> {
        let rid = self.fresh_request_id();
        let spec = self.containers[id.0].spec.clone();
        let kind = self.containers[id.0].kind();
        let controller = self.controller_delay(&spec, kind);
        let req = Request::new(rid, principal, input_kb);
        let out = self.containers[id.0].invoke(&req)?;
        Ok(Outcome {
            response: out.response,
            invoker: out.invoker_latency,
            e2e: out.invoker_latency + controller,
            off_path: out.off_path,
        })
    }

    /// Convenience: invoke with the function's catalog input size.
    pub fn invoke_simple(
        &mut self,
        id: ContainerId,
        principal: &str,
    ) -> Result<Outcome, StrategyError> {
        let input = self.containers[id.0].spec.input_kb;
        self.invoke(id, principal, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_functions::catalog::by_name;

    #[test]
    fn deploy_and_invoke_roundtrip() {
        let mut p = Platform::new(PlatformConfig::default());
        let spec = by_name("md2html (p)").unwrap();
        let id = p.deploy(&spec, StrategyKind::Gh).unwrap();
        let out = p.invoke_simple(id, "alice").unwrap();
        assert!(out.response.ok);
        assert!(out.e2e > out.invoker, "controller path adds delay");
    }

    #[test]
    fn e2e_tracks_paper_baseline() {
        // Deterministic for the assertion.
        let cfg = PlatformConfig {
            platform_cov: 0.0,
            ..PlatformConfig::default()
        };
        let mut p = Platform::new(cfg);
        let spec = by_name("md2html (p)").unwrap();
        let id = p.deploy(&spec, StrategyKind::Base).unwrap();
        let mut sum = 0.0;
        let n = 20;
        for _ in 0..n {
            sum += p.invoke_simple(id, "a").unwrap().e2e.as_millis_f64();
        }
        let mean = sum / n as f64;
        // Paper: md2html base E2E ≈ 69.4ms.
        assert!((55.0..90.0).contains(&mean), "mean E2E {mean:.1}ms");
    }

    #[test]
    fn request_ids_are_unique() {
        let mut p = Platform::new(PlatformConfig::default());
        let a = p.fresh_request_id();
        let b = p.fresh_request_id();
        assert_ne!(a, b);
    }

    #[test]
    fn pool_deploys_and_serves_fleet_traffic() {
        let mut p = Platform::new(PlatformConfig::default());
        let spec = by_name("fannkuch (p)").unwrap();
        let id = p.deploy_pool(&spec, StrategyKind::Gh, 3).unwrap();
        assert_eq!(p.pool(id).slots.len(), 3);
        let r = p
            .run_fleet(id, RoutePolicy::RestoreAware, 60.0, 90)
            .unwrap();
        assert_eq!(r.completed, 90);
        assert_eq!(r.stats.pool_size, 3);
        // The pool stays warm: a second run reuses the same containers.
        let r2 = p
            .run_fleet(id, RoutePolicy::RestoreAware, 60.0, 30)
            .unwrap();
        assert_eq!(r2.completed, 30);
        // The pool's snapshots dedup in the shared store.
        let mem = p.pool_memory(id);
        assert!(mem.dedup_ratio > 2.5, "got {:.2}", mem.dedup_ratio);
        // Per-run stats are deltas: run 2 reports only its own 30
        // requests (slot counters stay cumulative underneath).
        assert_eq!(
            r2.stats.per_container.iter().map(|c| c.served).sum::<u64>(),
            30
        );
        assert!(
            (r.utilization - r2.utilization).abs() < 0.2,
            "same load, same per-run utilization: {:.2} vs {:.2}",
            r.utilization,
            r2.utilization
        );
        assert_eq!(
            p.pool(id).slots.iter().map(|s| s.served).sum::<u64>(),
            120,
            "both runs served by the same pool"
        );
    }

    #[test]
    fn faulty_fleet_run_injects_and_accounts() {
        let mut p = Platform::new(PlatformConfig::default());
        let spec = by_name("fannkuch (p)").unwrap();
        let id = p.deploy_pool(&spec, StrategyKind::Gh, 2).unwrap();
        let faults = crate::fault::FaultConfig::deaths(0, 0.1);
        let r = p
            .run_fleet_faulty(id, RoutePolicy::RoundRobin, 60.0, 200, faults)
            .unwrap();
        assert!(r.stats.faults.deaths > 0, "10% deaths over 200 requests");
        assert_eq!(
            r.completed as u64 + r.stats.faults.abandoned,
            200,
            "every request completes or is abandoned"
        );
    }

    #[test]
    fn faasm_uses_its_own_platform_delay() {
        let cfg = PlatformConfig {
            platform_cov: 0.0,
            ..PlatformConfig::default()
        };
        let mut p = Platform::new(cfg);
        let spec = by_name("atax (c)").unwrap();
        let base = p.deploy(&spec, StrategyKind::Base).unwrap();
        let faasm = p.deploy(&spec, StrategyKind::Faasm).unwrap();
        let be = p.invoke_simple(base, "a").unwrap();
        let fe = p.invoke_simple(faasm, "a").unwrap();
        // Faasm's platform is lighter (Table 1: atax E2E 30.3 vs 68.7).
        assert!(fe.e2e < be.e2e);
    }
}
