//! Network serving end to end: put a socket in front of the multi-tenant
//! engine and talk to it like a deployed client fleet would.
//!
//! 1. Train the canonical synthetic fleet model and start a `smore_serve`
//!    server on a loopback port — in this process, but the bytes cross a
//!    real TCP socket.
//! 2. A steady tenant predicts synchronously and gets the same answer the
//!    shared base snapshot gives in-process.
//! 3. A second client pipelines a burst of predicts across many tenants;
//!    each worker serves its share one request at a time from the shared
//!    base (check the served counter afterwards).
//! 4. A drifting tenant streams held-out-domain windows as labelled
//!    ingests until online enrolment fires — personalization over the
//!    wire — then keeps serving through its personal snapshot.
//!
//! ```text
//! cargo run --release --example network_serving
//! ```

use std::net::TcpListener;
use std::sync::Arc;

use smore_serve::{serve, synthetic, ServeClient, ServeConfig};

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    // --- 1. Train and serve ----------------------------------------------
    println!("training the synthetic fleet model...");
    let (dataset, engine) = synthetic::engine(7, 1024)?;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let server = serve(Arc::new(engine), listener, ServeConfig::default())?;
    println!("serving on {}", server.local_addr());

    // --- 2. A steady tenant predicts over the wire -----------------------
    let mut client = ServeClient::connect(server.local_addr())?;
    client.ping()?;
    let p = client.predict(1, dataset.window(0))?;
    println!(
        "tenant 1, window 0 -> class {} (true {}), δ_max {:.3}, OOD: {}",
        p.label,
        dataset.label(0),
        p.delta_max,
        p.is_ood
    );

    // --- 3. A pipelined burst across tenants --------------------------------
    let mut burst = ServeClient::connect(server.local_addr())?;
    let n = 48;
    for i in 0..n {
        burst.send_predict(100 + i as u64, dataset.window(i % dataset.len()))?;
    }
    burst.flush()?;
    for _ in 0..n {
        burst.recv()?;
    }
    let stats = burst.stats()?;
    println!(
        "burst of {n} across {n} tenants: the server has served {} requests",
        stats.counter("requests_served").unwrap_or(0)
    );

    // --- 4. A drifting tenant personalizes through ingests ----------------
    let drift = synthetic::drift_stream(&dataset, 160, 42)?;
    let tenant = 7u64;
    let mut adapted_after = None;
    for (sent, (window, label)) in drift.iter().enumerate() {
        let p = client.ingest(tenant, window, Some(*label as u32))?;
        if p.adapted {
            adapted_after = Some(sent + 1);
            break;
        }
    }
    match adapted_after {
        Some(n) => println!("tenant {tenant} enrolled its drifted domain after {n} ingests"),
        None => println!("tenant {tenant} never enrolled — unexpected for held-out-domain drift"),
    }
    let p = client.predict(tenant, &drift[0].0)?;
    println!(
        "tenant {tenant} now serves through its personal snapshot: class {}, δ_max {:.3}",
        p.label, p.delta_max
    );

    server.shutdown();
    println!("server drained and stopped");
    Ok(())
}
