//! Host-clock benchmark of the Concord stack: four closed-loop workloads
//! over the public APIs of `concord-serve`, `concord-runtime`,
//! `concord-workloads`, `concord-frontend`, `concord-compiler`,
//! `concord-analyze` and `concord-native`.
//!
//! ```text
//! concord-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod harness;
mod native_suite;
mod serve_launch;
mod serve_session;
mod sim_figures;
mod stats;
mod trace;

use concord_serve::json::Json;
use harness::{Cfg, Run};

/// One workload: how it is pinned and measured.
struct Workload {
    name: &'static str,
    /// `CONCORD_HOST_THREADS` for the run.
    host_threads: usize,
    /// The fixed tail percentile `tail_ms` reports.
    tail_q: f64,
    run: fn(&Cfg) -> Run,
}

const WORKLOADS: [Workload; 4] = [
    Workload { name: "serve_launch", host_threads: 1, tail_q: 0.90, run: serve_launch::run },
    Workload { name: "serve_session", host_threads: 1, tail_q: 0.75, run: serve_session::run },
    Workload { name: "native_suite", host_threads: 1, tail_q: 0.90, run: native_suite::run },
    Workload { name: "sim_figures", host_threads: 1, tail_q: 0.75, run: sim_figures::run },
];

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. A workload that does
/// not exercise a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 39] = [
    ("serve.ping_ms", "ms"),
    ("serve.launch_overhead_ms", "ms"),
    ("native.served_exec_ms", "ms"),
    ("serve.open_ms", "ms"),
    ("serve.upload_ms", "ms"),
    ("serve.drain_ms", "ms"),
    ("serve.batch_ms", "ms"),
    ("serve.read_ms", "ms"),
    ("serve.close_ms", "ms"),
    ("serve.cache_misses", "count"),
    ("runtime.batch_overlapped", "count"),
    ("runtime.batch_fences_elided", "count"),
    ("runtime.new_ms", "ms"),
    ("runtime.drop_ms", "ms"),
    ("runtime.worklist_rounds", "count"),
    ("svm.build_ms", "ms"),
    ("frontend.compile_ms", "ms"),
    ("frontend.ir_insts", "count"),
    ("compiler.cpu_pipeline_ms", "ms"),
    ("compiler.gpu_pipeline_ms", "ms"),
    ("compiler.cpu_ir_insts", "count"),
    ("compiler.gpu_ir_insts", "count"),
    ("analyze.kernel_ms", "ms"),
    ("native.codegen_ms", "ms"),
    ("native.code_bytes", "bytes"),
    ("native.run_ms", "ms"),
    ("native.hazard_serialized", "count"),
    ("gpusim.host_ns_per_inst", "ns"),
    ("cpusim.host_ns_per_inst", "ns"),
    ("gpusim.insts", "count"),
    ("gpusim.translations", "count"),
    ("gpusim.contended", "count"),
    ("cpusim.insts", "count"),
    ("sim_gpu_ms", "sim-ms"),
    ("sim_cpu_ms", "sim-ms"),
    ("sim_gpu_mj", "sim-mJ"),
    ("sim_cpu_mj", "sim-mJ"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

const USAGE: &str = "usage: concord-perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     (NAME: serve_launch, serve_session, native_suite or sim_figures)";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn arg<T: std::str::FromStr>(args: &[String], flag: &str) -> T {
    let v = args
        .iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .unwrap_or_else(|| fail(&format!("missing {flag}")));
    v.parse().unwrap_or_else(|_| fail(&format!("bad value `{v}` for {flag}")))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name: String = arg(&args, "--workload");
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| fail(&format!("unknown workload `{name}`")));
    let seconds: f64 = arg(&args, "--seconds");
    if !(seconds > 0.0 && seconds <= 600.0) {
        fail("--seconds must be in (0, 600]");
    }
    let traced = match arg::<u8>(&args, "--trace") {
        0 => false,
        1 => true,
        _ => fail("--trace must be 0 or 1"),
    };
    let cfg = Cfg {
        seed: arg(&args, "--seed"),
        seconds,
        traced,
        min_ops: stats::min_ops_for_tail(w.tail_q),
    };
    // Set before any thread exists; every Concord context and server in
    // the run reads it.
    std::env::set_var("CONCORD_HOST_THREADS", w.host_threads.to_string());

    let run = (w.run)(&cfg);
    let metrics = if traced { layer_metrics(w, &run) } else { end_to_end(w, &run) };
    if let Some(t) = &run.trace {
        write_spans(w.name, t);
    }
    let result = Json::obj(vec![
        ("correct", (run.tally.wrong == 0).into()),
        ("attempted", run.tally.attempted.into()),
        ("failed", run.tally.failed.into()),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        let m =
                            Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]);
                        (name.to_string(), m)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
}

fn end_to_end(w: &Workload, run: &Run) -> Vec<(&'static str, f64, &'static str)> {
    let lat = &run.tally.lat.plain;
    let completed = run.tally.attempted - run.tally.failed;
    let values = [
        stats::median(&run.setup_s).unwrap_or(0.0),
        completed as f64 / run.wall_s,
        lat.percentile(0.5).unwrap_or(0.0),
        lat.tail(w.tail_q).unwrap_or_else(|| {
            eprintln!("{}: {} operations give no p{} tail", w.name, lat.len(), w.tail_q * 100.0);
            0.0
        }),
        harness::peak_rss_mb(),
    ];
    eprintln!(
        "{}: {} operations in {:.2} s, tail_ms is p{}",
        w.name,
        run.tally.attempted,
        run.wall_s,
        w.tail_q * 100.0
    );
    END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect()
}

fn layer_metrics(w: &Workload, run: &Run) -> Vec<(&'static str, f64, &'static str)> {
    let mut fixed = vec![("trace.overhead_pct", run.trace_overhead_pct())];
    fixed.extend(run.layer.iter().copied());
    eprintln!(
        "{}: traced run, {} untraced and {} traced operations",
        w.name,
        run.tally.lat.plain.len(),
        run.tally.lat.traced.len()
    );
    PER_LAYER
        .iter()
        .map(|&(n, u)| (n, fixed.iter().find(|(k, _)| *k == n).map_or(0.0, |(_, v)| *v), u))
        .collect()
}

/// Spans go to `<cargo target dir>/perfbench-spans/<workload>.json`.
fn write_spans(workload: &str, t: &trace::Trace) {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = std::path::Path::new(&target).join("perfbench-spans");
    let path = dir.join(format!("{workload}.json"));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, format!("{}\n", t.to_json())))
    {
        Ok(()) => eprintln!("{workload}: spans written to {}", path.display()),
        Err(e) => eprintln!("{workload}: cannot write spans to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect("string field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn benchmark_json() -> Json {
        concord_serve::json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn emitted_metrics_are_the_declared_ones() {
        let doc = benchmark_json();
        let declared = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names(&doc, "end_to_end"), declared(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), declared(&PER_LAYER));
        for (n, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(n), "metric name `{n}`");
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name.to_string()));
    }

    #[test]
    fn every_emitted_name_is_declared() {
        let run = Run { wall_s: 1.0, ..Run::default() };
        let doc = benchmark_json();
        let e2e = names(&doc, "end_to_end");
        let layer = names(&doc, "per_layer");
        for w in &WORKLOADS {
            for (n, _, u) in end_to_end(w, &run) {
                assert!(e2e.contains(&(n.to_string(), u.to_string())), "{n}");
            }
            for (n, _, u) in layer_metrics(w, &run) {
                assert!(layer.contains(&(n.to_string(), u.to_string())), "{n}");
            }
        }
    }

    /// Every workload, untraced and traced, for a fraction of a second
    /// with every output check on.
    #[test]
    fn smoke_every_workload() {
        for w in &WORKLOADS {
            for traced in [false, true] {
                let cfg = Cfg { seed: 7, seconds: 0.2, traced, min_ops: 1 };
                let run = (w.run)(&cfg);
                assert!(run.tally.attempted >= 1, "{}", w.name);
                assert_eq!(
                    (run.tally.failed, run.tally.wrong),
                    (0, 0),
                    "{} traced={traced}",
                    w.name
                );
                assert!(
                    run.setup_s.len() == harness::SETUPS && run.setup_s.iter().all(|&s| s > 0.0)
                );
                if traced {
                    let metrics = layer_metrics(w, &run);
                    assert!(metrics.iter().any(|&(_, v, _)| v > 0.0), "{}", w.name);
                } else {
                    let metrics = end_to_end(w, &run);
                    assert!(
                        metrics.iter().all(|&(n, v, _)| n == "tail_ms" || v > 0.0),
                        "{}",
                        w.name
                    );
                }
            }
        }
    }

    #[test]
    fn host_threads_stay_within_two_cpus() {
        for w in &WORKLOADS {
            assert!((1..=2).contains(&w.host_threads), "{}", w.name);
            assert!(stats::min_ops_for_tail(w.tail_q) >= stats::MIN_TAIL_OPS);
        }
    }
}
