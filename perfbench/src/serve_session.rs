//! `serve_session`: two connections repeat one fixed cycle — open a
//! session on the FrontierBFS source (an artifact-cache hit after the
//! set-up), upload a seeded CSR road network, drain `parallel_worklist`,
//! send one `parallel_batch` of disjoint cpu+gpu halves, read the
//! results back, close. The serve layer works through large data-plane
//! frames, the session lifecycle, the worklist driver and the launch
//! graph rather than through hot small frames.

use crate::harness::{run_callers, timed, Cfg, Clock, Failure, Phase, Run, Tally, SETUPS};
use crate::serve_launch::{AFFINE, CONNECTIONS, REGION_BYTES};
use crate::trace::{Recorder, Trace};
use concord_serve::json::Json;
use concord_serve::{BatchEntry, Client, ClientError, ServeConfig, Server, SessionOptions};
use concord_workloads::graph;
use concord_workloads::worklist::FrontierBfs;
use concord_workloads::Workload;
use std::time::Instant;

/// Road-network grid side.
const SIDE: usize = 48;

/// Elements in each half of the batch.
const HALF: u32 = 256;

/// Kernel constants of the two batch halves.
const K_CPU: i32 = 7;
const K_GPU: i32 = 11;

/// The session source: the FrontierBFS workload plus the element-wise
/// kernel the batch launches.
fn source() -> String {
    format!("{}\n{AFFINE}", FrontierBfs.spec().source)
}

/// The uploaded data in two allocations: `inputs` holds
/// `row_off | cols | bfs body | cpu body | gpu body` and `state` holds
/// `level | out (2 * HALF)`. The batch halves write disjoint ranges of
/// `state` and read their bodies from `inputs`, so the launch graph can
/// prove them independent; `state` comes back in one read.
struct Image {
    inputs: Vec<u8>,
    state: Vec<u8>,
    cols: u64,
    bfs_body: u64,
    cpu_body: u64,
    gpu_body: u64,
    /// Offset of `out` in `state`.
    out: u64,
    /// Expected `state` after a cycle, from the host reference BFS and
    /// the kernel's closed form.
    expected: Vec<u8>,
    /// Nodes the reference BFS reaches: each enters exactly one frontier.
    reachable: u64,
}

fn push_i32(bytes: &mut Vec<u8>, v: i32) {
    bytes.extend_from_slice(&v.to_le_bytes());
}

impl Image {
    fn new(seed: u64) -> Image {
        let graph = graph::road_network(SIDE, SIDE, seed);
        let mut inputs = Vec::new();
        for v in graph.row_offsets() {
            push_i32(&mut inputs, v as i32);
        }
        let cols = inputs.len() as u64;
        for &(v, _) in graph.adj.iter().flatten() {
            push_i32(&mut inputs, v as i32);
        }
        inputs.resize(inputs.len().next_multiple_of(8), 0);
        let bfs_body = inputs.len() as u64;
        let cpu_body = bfs_body + 24;
        let gpu_body = cpu_body + 16;
        inputs.resize(gpu_body as usize + 16, 0);
        inputs[cpu_body as usize + 8..][..4].copy_from_slice(&K_CPU.to_le_bytes());
        inputs[gpu_body as usize + 8..][..4].copy_from_slice(&K_GPU.to_le_bytes());

        let mut state = Vec::new();
        for i in 0..graph.n {
            push_i32(&mut state, if i == 0 { 0 } else { -1 });
        }
        let out = state.len() as u64;
        state.resize(state.len() + 2 * HALF as usize * 4, 0);

        let levels = graph::reference_bfs(&graph, 0);
        let reachable = levels.iter().filter(|&&l| l >= 0).count() as u64;
        let mut expected = Vec::new();
        for l in levels {
            push_i32(&mut expected, l);
        }
        for k in [K_CPU, K_GPU] {
            for i in 0..HALF as i32 {
                push_i32(&mut expected, 3 * i + k);
            }
        }
        Image { inputs, state, cols, bfs_body, cpu_body, gpu_body, out, expected, reachable }
    }
}

/// What one cycle returned, checked after its timed window.
struct Cycle {
    frontier: Vec<u32>,
    batch_ok: bool,
    overlapped: u64,
    fences_elided: u64,
    readback: Vec<u8>,
}

fn cycle(
    client: &mut Client,
    src: &str,
    img: &Image,
    rec: &mut Recorder,
) -> Result<Cycle, ClientError> {
    rec.begin("cycle");
    let c = calls(client, src, img, rec);
    rec.end();
    c
}

/// Allocate and fill both blocks of session `s`; returns their addresses.
fn upload(client: &mut Client, s: u64, img: &Image) -> Result<(u64, u64), ClientError> {
    let inputs = client.malloc(s, img.inputs.len() as u64)?;
    let state = client.malloc(s, img.state.len() as u64)?;
    client.write(s, inputs, &img.inputs)?;
    client.write(s, state, &img.state)?;
    let out = state + img.out;
    for (at, to) in [
        (inputs + img.bfs_body, inputs),
        (inputs + img.bfs_body + 8, inputs + img.cols),
        (inputs + img.bfs_body + 16, state),
        (inputs + img.cpu_body, out),
        (inputs + img.gpu_body, out + u64::from(HALF) * 4),
    ] {
        client.write_ptr(s, at, to)?;
    }
    Ok((inputs, state))
}

/// The cycle's calls, each in a span named after its serve-layer step.
fn calls(
    client: &mut Client,
    src: &str,
    img: &Image,
    rec: &mut Recorder,
) -> Result<Cycle, ClientError> {
    let opts = SessionOptions {
        target: Some("native".into()),
        region_bytes: Some(REGION_BYTES),
        ..SessionOptions::default()
    };
    let s = rec.time("serve.open", || client.open_session(src, &opts))?.session;
    rec.begin("serve.upload");
    let uploaded = upload(client, s, img);
    rec.end();
    let (inputs, state) = uploaded?;
    let drained = rec.time("serve.drain", || {
        client.parallel_worklist(s, "FrontierBFS", inputs + img.bfs_body, &[0], None)
    })?;
    let entries = [
        BatchEntry::new("Affine", inputs + img.cpu_body, HALF).target("cpu"),
        BatchEntry::new("Affine", inputs + img.gpu_body, HALF).target("gpu"),
    ];
    let batch = rec.time("serve.batch", || client.parallel_batch(s, &entries, None))?;
    let len = img.expected.len() as u64;
    let readback = rec.time("serve.read", || client.read(s, state, len))?;
    rec.time("serve.close", || client.close_session(s))?;
    Ok(Cycle {
        frontier: drained.frontier_sizes,
        batch_ok: batch.reports.iter().all(|r| r.as_ref().is_ok_and(|r| !r.fell_back)),
        overlapped: batch.overlapped,
        fences_elided: batch.fences_elided,
        readback,
    })
}

/// Checks a cycle's outputs against the reference BFS and the closed
/// form, and its frontier schedule against `schedule` (the set-up
/// cycle's) when given.
fn check(c: &Cycle, img: &Image, schedule: Option<&[u32]>) -> Result<(), String> {
    if c.readback != img.expected {
        return Err("levels or batch output differ from the reference".into());
    }
    if !c.batch_ok {
        return Err("a batch half failed".into());
    }
    let drained: u64 = c.frontier.iter().map(|&n| u64::from(n)).sum();
    if drained != img.reachable {
        return Err(format!("drained {drained} items, {} reachable", img.reachable));
    }
    if schedule.is_some_and(|s| s != c.frontier) {
        return Err("frontier schedule differs from the set-up cycle's".into());
    }
    Ok(())
}

#[derive(Default)]
struct Caller {
    tally: Tally,
    overlapped: Vec<f64>,
    fences_elided: Vec<f64>,
}

fn drive(
    client: &mut Client,
    src: &str,
    img: &Image,
    schedule: &[u32],
    clock: &Clock,
    rec: &mut Recorder,
) -> Caller {
    let mut me = Caller::default();
    let mut op = 0;
    while let Some(phase) = clock.next(op) {
        rec.set_on(phase == Phase::Traced);
        rec.set_op(op);
        op += 1;
        let start = Instant::now();
        let reply = cycle(client, src, img, rec);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        clock.complete();
        let outcome = match reply {
            Ok(c) => check(&c, img, Some(schedule)).map(|()| c).map_err(Failure::Wrong),
            Err(e) => Err(Failure::Error(e.to_string())),
        };
        if let (Ok(c), Phase::Traced) = (&outcome, phase) {
            me.overlapped.push(c.overlapped as f64);
            me.fences_elided.push(c.fences_elided as f64);
        }
        me.tally.count(phase, "cycle", ms, outcome.map(|_| ()));
    }
    me
}

/// A started server with its connected callers and the frontier
/// schedule of the set-up cycles.
struct Setup {
    server: Server,
    clients: Vec<Client>,
    schedule: Vec<u32>,
}

/// Start a server, connect every caller and run one checked, untimed
/// cycle on each (the first compiles the source and fills the artifact
/// cache).
fn setup(src: &str, img: &Image) -> Result<Setup, String> {
    let config = ServeConfig { workers: CONNECTIONS, ..ServeConfig::default() };
    let server = Server::bind(&config).map_err(|e| format!("bind: {e}"))?;
    let mut clients = Vec::new();
    let mut schedule: Option<Vec<u32>> = None;
    let mut off = Recorder::new(Instant::now());
    for _ in 0..CONNECTIONS {
        let mut c = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let warm = cycle(&mut c, src, img, &mut off).map_err(|e| format!("warm-up cycle: {e}"))?;
        check(&warm, img, schedule.as_deref()).map_err(|e| format!("warm-up cycle: {e}"))?;
        schedule = Some(warm.frontier);
        clients.push(c);
    }
    let schedule = schedule.expect("at least one connection");
    Ok(Setup { server, clients, schedule })
}

fn teardown(server: Server, clients: Vec<Client>) {
    drop(clients);
    server.request_shutdown();
    server.join();
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Run {
    let src = source();
    let img = Image::new(cfg.seed);
    let mut out = Run::default();
    let mut kept = None;
    for i in 0..SETUPS {
        let (state, secs) = timed(|| setup(&src, &img));
        let state = state.unwrap_or_else(|e| panic!("serve_session set-up failed: {e}"));
        out.setup_s.push(secs);
        if i + 1 < SETUPS {
            teardown(state.server, state.clients);
        } else {
            kept = Some(state);
        }
    }
    let Setup { server, mut clients, schedule } = kept.expect("at least one set-up");
    let epoch = Instant::now();
    let clock = Clock::start(*cfg);
    let callers = run_callers(clients.iter_mut(), epoch, |client, rec| {
        drive(client, &src, &img, &schedule, &clock, rec)
    });
    out.wall_s = clock.elapsed();
    let misses = cfg
        .traced
        .then(|| clients[0].stats().ok()?.get("cache_misses").and_then(Json::as_u64))
        .flatten();
    let (mut overlapped, mut fences, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    for (me, s) in callers {
        out.tally.merge(me.tally);
        overlapped.extend(me.overlapped);
        fences.extend(me.fences_elided);
        spans.push(s);
    }
    teardown(server, clients);
    if cfg.traced {
        let mean =
            |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
        let trace = Trace::new(spans);
        out.layer = vec![
            ("serve.cache_misses", misses.unwrap_or(0) as f64),
            ("runtime.batch_overlapped", mean(&overlapped)),
            ("runtime.batch_fences_elided", mean(&fences)),
            ("trace.coverage_pct", trace.min_child_coverage_pct("cycle")),
        ];
        out.trace = Some(trace);
        out.add_span_metrics(&[
            ("serve.open", "serve.open_ms"),
            ("serve.upload", "serve.upload_ms"),
            ("serve.drain", "serve.drain_ms"),
            ("serve.batch", "serve.batch_ms"),
            ("serve.read", "serve.read_ms"),
            ("serve.close", "serve.close_ms"),
        ]);
    }
    out
}
