//! `serve_launch`: two connections, each with one open native-target
//! session, send back-to-back `parallel_for` launches of one small
//! element-wise kernel at one size. The kernel's work is tiny, so the
//! request path (framing, poller, admission queue, analysis-gate memo,
//! response encoding) dominates.

use crate::harness::{run_callers, timed, Cfg, Clock, Failure, Phase, Run, SeedRng, Tally, SETUPS};
use crate::trace::{Recorder, Trace};
use concord_serve::{Client, ClientError, Launch, ServeConfig, Server, SessionOptions};
use std::time::Instant;

/// Closed-loop connections (no more than the machine's 2 CPUs).
pub const CONNECTIONS: usize = 2;

/// Shared-region bytes of every served session (the uploaded data of
/// either served workload is under 64 KiB).
pub const REGION_BYTES: u64 = 1 << 20;

/// Element-wise kernel. It accumulates, so after `m` launches
/// `out[i] == m * (3i + k)`: one read at the end checks every launch.
pub const AFFINE: &str = "class Affine { public: int* out; int k;
    void operator()(int i) { out[i] = out[i] + 3 * i + k; } };";

/// Untimed launches per connection in each set-up (first codegen,
/// first-touch faults).
const WARMUP: u64 = 3;

/// Pings per connection at the end of a traced run.
const PINGS: usize = 20;

/// The seeded launch: size and kernel constant.
#[derive(Debug, Clone, Copy)]
struct Input {
    n: u32,
    k: i32,
}

impl Input {
    fn from_seed(seed: u64) -> Input {
        let mut rng = SeedRng::new(seed);
        Input { n: 2048 + 256 * rng.range(0, 8) as u32, k: rng.range(1, 1000) as i32 }
    }
}

/// One connection with its open session and launch bookkeeping.
struct Conn {
    client: Client,
    session: u64,
    out: u64,
    body: u64,
    /// Launches that returned a report (each added `3i + k` once).
    launched: u64,
}

fn open(addr: std::net::SocketAddr, input: Input) -> Result<Conn, ClientError> {
    let mut client = Client::connect(addr)?;
    let opts = SessionOptions {
        target: Some("native".into()),
        region_bytes: Some(REGION_BYTES),
        ..SessionOptions::default()
    };
    let session = client.open_session(AFFINE, &opts)?.session;
    let out = client.malloc(session, u64::from(input.n) * 4)?;
    let body = client.malloc(session, 16)?;
    client.write(session, out, &vec![0u8; input.n as usize * 4])?;
    client.write_ptr(session, body, out)?;
    client.write(session, body + 8, &input.k.to_le_bytes())?;
    let mut conn = Conn { client, session, out, body, launched: 0 };
    for _ in 0..WARMUP {
        conn.client.parallel_for(session, &Launch::new("Affine", body, input.n))?;
        conn.launched += 1;
    }
    Ok(conn)
}

/// Start a server and open every connection's session.
fn setup(input: Input) -> Result<(Server, Vec<Conn>), String> {
    let config = ServeConfig { workers: CONNECTIONS, ..ServeConfig::default() };
    let server = Server::bind(&config).map_err(|e| format!("bind: {e}"))?;
    let conns = (0..CONNECTIONS)
        .map(|_| open(server.addr(), input))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("open: {e}"))?;
    Ok((server, conns))
}

fn teardown(server: Server, conns: Vec<Conn>) {
    for mut c in conns {
        let _ = c.client.close_session(c.session);
    }
    server.request_shutdown();
    server.join();
}

/// What one connection's caller thread measured.
#[derive(Default)]
struct Caller {
    tally: Tally,
    /// Traced launches: client latency minus reported native time, ms.
    overhead_ms: Vec<f64>,
    /// Traced launches: reported native `exec_seconds`, ms.
    exec_ms: Vec<f64>,
}

fn drive(conn: &mut Conn, input: Input, clock: &Clock, traced: bool, rec: &mut Recorder) -> Caller {
    let mut me = Caller::default();
    let launch = Launch::new("Affine", conn.body, input.n);
    let mut op = 0;
    while let Some(phase) = clock.next(op) {
        rec.set_on(phase == Phase::Traced);
        rec.set_op(op);
        op += 1;
        let start = Instant::now();
        let reply = rec.time("serve.launch", || conn.client.parallel_for(conn.session, &launch));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        clock.complete();
        let outcome = match reply {
            // A native launch runs on the host CPU and reports host
            // wall-clock seconds.
            Ok(r) if r.on_gpu || r.fell_back || r.exec_seconds <= 0.0 => {
                conn.launched += 1;
                Err(Failure::Wrong(format!("report of a native launch: {r:?}")))
            }
            Ok(r) => {
                conn.launched += 1;
                if phase == Phase::Traced {
                    me.exec_ms.push(r.exec_seconds * 1e3);
                    me.overhead_ms.push(ms - r.exec_seconds * 1e3);
                }
                Ok(())
            }
            Err(e) => Err(Failure::Error(e.to_string())),
        };
        me.tally.count(phase, "launch", ms, outcome);
    }
    if traced {
        rec.set_on(true);
        for i in 0..PINGS as u64 {
            rec.set_op(op + i);
            if let Err(e) = rec.time("serve.ping", || conn.client.ping()) {
                eprintln!("serve_launch: ping failed: {e}");
            }
        }
    }
    // Every launch added `3i + k` to `out[i]` exactly once; a mismatch
    // leaves no launch of this connection verified.
    let ok = conn.client.read(conn.session, conn.out, u64::from(input.n) * 4).is_ok_and(|bytes| {
        bytes.chunks_exact(4).enumerate().all(|(i, b)| {
            let term = (3 * i as i32).wrapping_add(input.k);
            i32::from_le_bytes(b.try_into().expect("4 bytes"))
                == term.wrapping_mul(conn.launched as i32)
        })
    });
    if !ok {
        eprintln!("serve_launch: output differs from {} launches of 3i+{}", conn.launched, input.k);
        let attempted = me.tally.attempted;
        me.tally = Tally { attempted, failed: attempted, wrong: 1, ..Tally::default() };
    }
    me
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Run {
    let input = Input::from_seed(cfg.seed);
    let mut out = Run::default();
    let mut kept = None;
    for i in 0..SETUPS {
        let (state, secs) = timed(|| setup(input));
        let state = state.unwrap_or_else(|e| panic!("serve_launch set-up failed: {e}"));
        out.setup_s.push(secs);
        if i + 1 < SETUPS {
            teardown(state.0, state.1);
        } else {
            kept = Some(state);
        }
    }
    let (server, mut conns) = kept.expect("at least one set-up");
    let epoch = Instant::now();
    let clock = Clock::start(*cfg);
    let callers = run_callers(conns.iter_mut(), epoch, |conn, rec| {
        drive(conn, input, &clock, cfg.traced, rec)
    });
    out.wall_s = clock.elapsed();
    let mut overhead = Vec::new();
    let mut exec = Vec::new();
    let mut spans = Vec::new();
    for (me, s) in callers {
        out.tally.merge(me.tally);
        overhead.extend(me.overhead_ms);
        exec.extend(me.exec_ms);
        spans.push(s);
    }
    teardown(server, conns);
    if cfg.traced {
        let med = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
        out.layer = vec![
            ("serve.launch_overhead_ms", med(&overhead)),
            ("native.served_exec_ms", med(&exec)),
        ];
        out.trace = Some(Trace::new(spans));
        out.add_span_metrics(&[("serve.ping", "serve.ping_ms")]);
        // A launch operation is its one span.
        out.layer.push(("trace.coverage_pct", 100.0));
    }
    out
}
