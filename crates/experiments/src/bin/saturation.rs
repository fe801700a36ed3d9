//! Runs the saturation lab: offered vs delivered load for DB, AB and QAB
//! on the 8×8×8 mesh under the §3.3 mixed workload (90/10 unicast/broadcast,
//! L=32 flits, Ts=1.5 µs), with an offered-load axis running past AB's knee.
//!
//! Usage: `saturation [--quick] [--out DIR] [--seed N] [--ts US]
//! [--length F] [--jobs N] [--loads CSV] [--telemetry DIR] [--events PATH]`
//!
//! `--loads` takes a comma-separated, strictly increasing list of offered
//! loads in messages/ms per node. `--out DIR` writes `DIR/saturation.json`.

use wormcast_experiments::cli::usage_error;
use wormcast_experiments::{saturation, telemetry, CommonOpts, Experiment, ProfileSession};

fn main() {
    let opts = CommonOpts::parse();
    let mut prof = ProfileSession::begin(&opts, "saturation");
    let mut params = if opts.run.quick {
        saturation::SaturationParams::quick()
    } else {
        saturation::SaturationParams::default()
    };
    if let Some(s) = opts.run.seed {
        params.seed = s;
    }
    if let Some(ts) = opts.run.startup_us {
        params.startup_us = ts;
    }
    if let Some(l) = opts.run.length {
        params.length = l;
    }
    apply_rest(&mut params, &opts.rest);
    opts.enforce_shards(params.shape[2], "the saturation mesh");
    let spec = opts.telemetry_spec();
    let t0 = std::time::Instant::now();
    let runner = opts.runner();
    prof.phase("run");
    let (cells, frames) = params.run((&runner, spec.as_ref())).into_parts();
    let wall = t0.elapsed();
    prof.phase("merge");
    println!("{}", saturation::table(&cells, &params).render());
    match saturation::ab_knee(&cells, &params) {
        Some(knee) => println!("AB's knee: offered load {knee} msg/ms/node"),
        None => println!("AB's knee: not reached on this axis"),
    }
    let bad = saturation::check_claims(&cells, &params);
    if bad.is_empty() {
        println!("claims: QAB's delivered load weakly dominates AB's beyond the knee");
    } else {
        println!("claims VIOLATED:");
        for b in &bad {
            println!("  - {b}");
        }
    }
    prof.phase("emit");
    if let Some(dir) = &opts.output.out_dir {
        let path = dir.join("saturation.json");
        wormcast_experiments::write_json(&path, &cells).expect("write results");
        println!("wrote {}", path.display());
    }
    if spec.is_some() {
        let mut m = telemetry::manifest(
            "saturation",
            &opts,
            params.seed,
            params.length,
            params.startup_us,
            params.batches,
            wall,
        );
        m.algorithms = cells.iter().map(|c| c.algorithm.clone()).collect();
        m.algorithms.sort();
        m.algorithms.dedup();
        m.topologies = vec![format!(
            "{}x{}x{}",
            params.shape[0], params.shape[1], params.shape[2]
        )];
        telemetry::write_outputs(&opts, "saturation", m, &frames);
    }
    prof.finish(&opts, &frames);
}

/// Parse the binary-specific flag (`--loads CSV`) out of the leftover
/// arguments. An unknown argument and a load list that is empty, not
/// strictly increasing or holds an entry that is not a positive finite
/// number are usage errors (exit 2).
fn apply_rest(params: &mut saturation::SaturationParams, rest: &[String]) {
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--loads" => {
                let Some(v) = it.next() else {
                    usage_error("`--loads` needs a comma-separated list")
                };
                params.loads = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| match s.parse::<f64>() {
                        Ok(l) if l.is_finite() && l > 0.0 => l,
                        _ => usage_error(format!(
                            "`--loads` entry must be a positive finite number, got {s:?}"
                        )),
                    })
                    .collect();
                if params.loads.is_empty() {
                    usage_error("`--loads` must list at least one load");
                }
                if let Some(w) = params.loads.windows(2).find(|w| w[0] >= w[1]) {
                    usage_error(format!(
                        "`--loads` must be strictly increasing, got {} then {}",
                        w[0], w[1]
                    ));
                }
            }
            other => usage_error(format!(
                "unknown argument '{other}'; usage: saturation [--quick] [--out DIR] \
                 [--seed N] [--ts US] [--length F] [--jobs N] [--loads CSV] \
                 [--telemetry DIR] [--events PATH]"
            )),
        }
    }
}
