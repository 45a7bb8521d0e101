//! Quickstart: deploy a function under Groundhog and invoke it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use groundhog::faas::fleet::RoutePolicy;
use groundhog::faas::platform::{Platform, PlatformConfig};
use groundhog::functions::catalog;
use groundhog::isolation::StrategyKind;
use groundhog::mem::RequestId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A platform with default (paper-calibrated) configuration.
    let mut platform = Platform::new(PlatformConfig::default());

    // Pick a benchmark function from the paper's catalog and deploy it
    // in a Groundhog-isolated container. Cold start runs Fig. 1's phases:
    // environment instantiation → runtime init → dummy warm-up → snapshot.
    let spec = catalog::by_name("md2html (p)").ok_or("not in catalog")?;
    let container = platform.deploy(&spec, StrategyKind::Gh)?;
    println!("deployed {} under GH", spec.name);
    {
        let c = platform.container(container);
        let prep = c.stats.prepare.as_ref().ok_or("prepared at cold start")?;
        println!(
            "cold start: {} (snapshot captured {} pages)",
            c.stats.init_time,
            prep.snapshot_pages.unwrap_or(0),
        );
    }

    // Serve requests from differently privileged callers. Groundhog
    // restores the process between requests, off the critical path.
    for (i, principal) in ["alice", "bob", "alice", "carol"].iter().enumerate() {
        let out = platform.invoke_simple(container, principal)?;
        println!(
            "request {} from {:7}: e2e {:>9}, invoker {:>9}, restore (off-path) {:>9}",
            i + 1,
            principal,
            out.e2e,
            out.invoker,
            out.off_path,
        );
    }

    // The security property, checked directly: no page of the process
    // carries any request's data after the restore.
    let c = platform.container(container);
    let proc = c.kernel.process(c.fproc.pid)?;
    for req in 1..=4 {
        assert!(
            proc.mem
                .tainted_pages(RequestId(req), c.kernel.frames())
                .is_empty(),
            "request {req} data must not survive"
        );
    }
    println!("post-restore scan: no request data survives in the function process ✓");

    // Scale out: the same function as a pool of 4 behind the fleet
    // scheduler, absorbing open-loop traffic.
    let pool = platform.deploy_pool(&spec, StrategyKind::Gh, 4)?;
    let fleet = platform.run_fleet(pool, RoutePolicy::RestoreAware, 40.0, 120)?;
    println!(
        "fleet of 4: {} requests at {:.0} r/s — mean {:.1}ms, p99 {:.1}ms, \
         {:.0}% of restore time hidden in idle gaps",
        fleet.completed,
        fleet.offered_rps,
        fleet.mean_ms,
        fleet.p99_ms,
        fleet.stats.restore_overlap_ratio * 100.0,
    );
    Ok(())
}
