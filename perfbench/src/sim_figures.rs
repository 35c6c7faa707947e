//! `sim_figures`: in process, one round regenerates Figs. 7–10 over
//! `figure_workloads()` on the Ultrabook: the multicore-CPU baseline and
//! GPU, GPU+PTROPT, GPU+L3OPT and GPU+ALL, each through
//! `concord_workloads::measure`. Host time goes to the `cpusim` and
//! `gpusim` interpreters; the simulated results are the paper's and
//! repeat bit for bit, round after round.

use crate::harness::{run_callers, timed, Cfg, Clock, Failure, Phase, Run, Tally, SETUPS};
use crate::stats::geomean;
use crate::trace::{Recorder, Trace};
use concord_compiler::GpuConfig;
use concord_energy::SystemConfig;
use concord_runtime::Target;
use concord_workloads::{figure_workloads, measure, Measurement, Scale, Workload};
use std::time::Instant;

/// Closed-loop callers, each running whole rounds (one per CPU; with
/// `CONCORD_HOST_THREADS=1` each round stays on its caller's thread).
const CALLERS: usize = 2;

/// Input scale (inputs are fixed by the `concord-workloads` generators).
const SCALE: Scale = Scale::Tiny;

/// The five measurements of one figure row: the CPU baseline first, then
/// the four GPU configurations in paper order (GPU+ALL last).
fn configs(eus: u32) -> [(GpuConfig, Target); 5] {
    [
        (GpuConfig::all(eus), Target::Cpu),
        (GpuConfig::baseline(eus), Target::Gpu),
        (GpuConfig::ptropt(eus), Target::Gpu),
        (GpuConfig::l3opt(eus), Target::Gpu),
        (GpuConfig::all(eus), Target::Gpu),
    ]
}

/// Simulated results of one measurement, compared bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sim {
    seconds: u64,
    jit_seconds: u64,
    joules: u64,
    insts: u64,
    translations: u64,
    transactions: u64,
    contended: u64,
    offloads: u32,
}

impl Sim {
    fn of(m: &Measurement) -> Sim {
        let t = &m.totals;
        Sim {
            seconds: t.seconds.to_bits(),
            jit_seconds: t.jit_seconds.to_bits(),
            joules: t.joules.to_bits(),
            insts: t.insts,
            translations: t.translations,
            transactions: t.transactions,
            contended: t.contended,
            offloads: t.offloads,
        }
    }
}

/// One round: every workload × five measurements, in a `round` span with
/// one `cpusim.measure` or `gpusim.measure` span per measurement.
fn round(workloads: &[Box<dyn Workload>], rec: &mut Recorder) -> Result<Vec<Sim>, Failure> {
    let system = SystemConfig::ultrabook();
    let mut sims = Vec::new();
    rec.begin("round");
    let r = workloads.iter().try_for_each(|w| {
        for (cfg, target) in configs(system.gpu.eus) {
            let span = if target == Target::Cpu { "cpusim.measure" } else { "gpusim.measure" };
            let m = rec
                .time(span, || measure(w.as_ref(), system, cfg, SCALE, target))
                .map_err(|e| Failure::Error(format!("{} on {target}: {e}", w.spec().name)))?;
            if !m.verified {
                return Err(Failure::Wrong(format!("{} on {target}: verification", w.spec().name)));
            }
            sims.push(Sim::of(&m));
        }
        Ok(())
    });
    rec.end();
    r.map(|()| sims)
}

/// One closed-loop caller: rounds until the clock stops, each checked
/// against the set-up round.
fn drive(reference: &[Sim], clock: &Clock, rec: &mut Recorder) -> Tally {
    let workloads = figure_workloads();
    let mut tally = Tally::default();
    let mut op = 0;
    while let Some(phase) = clock.next(op) {
        rec.set_on(phase == Phase::Traced);
        rec.set_op(op);
        op += 1;
        let start = Instant::now();
        let r = round(&workloads, rec);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        clock.complete();
        let outcome = match r {
            Ok(sims) if sims == reference => Ok(()),
            Ok(_) => Err(Failure::Wrong("simulated results changed between rounds".into())),
            Err(e) => Err(e),
        };
        tally.count(phase, "round", ms, outcome);
    }
    tally
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Run {
    let workloads = figure_workloads();
    let mut out = Run::default();
    let mut reference = None;
    for _ in 0..SETUPS {
        let mut off = Recorder::new(Instant::now());
        let (sims, secs) = timed(|| round(&workloads, &mut off));
        let sims = sims.unwrap_or_else(|e| panic!("sim_figures set-up round failed, {e}"));
        assert!(reference.get_or_insert_with(|| sims.clone()) == &sims, "set-up rounds disagree");
        out.setup_s.push(secs);
    }
    let reference = reference.expect("at least one set-up");

    let epoch = Instant::now();
    let clock = Clock::start(*cfg);
    let callers = run_callers(0..CALLERS, epoch, |_, rec| drive(&reference, &clock, rec));
    out.wall_s = clock.elapsed();
    let mut spans = Vec::new();
    for (tally, s) in callers {
        out.tally.merge(tally);
        spans.push(s);
    }
    if cfg.traced {
        let trace = Trace::new(spans);
        let rows: Vec<&[Sim]> = reference.chunks(5).collect();
        let gpu_all: Vec<&Sim> = rows.iter().map(|r| &r[4]).collect();
        let cpu: Vec<&Sim> = rows.iter().map(|r| &r[0]).collect();
        let gpu_insts: u64 = rows.iter().flat_map(|r| &r[1..]).map(|s| s.insts).sum();
        let cpu_insts: u64 = cpu.iter().map(|s| s.insts).sum();
        let milli = |v: &[&Sim], f: fn(&Sim) -> u64| {
            geomean(&v.iter().map(|s| f64::from_bits(f(s)) * 1e3).collect::<Vec<_>>())
        };
        let ns_per = |span: &str, insts: u64| {
            crate::stats::median(&trace.per_op_self_ms(span)).unwrap_or(0.0) * 1e6
                / insts.max(1) as f64
        };
        out.layer = vec![
            ("gpusim.host_ns_per_inst", ns_per("gpusim.measure", gpu_insts)),
            ("cpusim.host_ns_per_inst", ns_per("cpusim.measure", cpu_insts)),
            ("gpusim.insts", gpu_all.iter().map(|s| s.insts).sum::<u64>() as f64),
            ("gpusim.translations", gpu_all.iter().map(|s| s.translations).sum::<u64>() as f64),
            ("gpusim.contended", gpu_all.iter().map(|s| s.contended).sum::<u64>() as f64),
            ("cpusim.insts", cpu_insts as f64),
            ("sim_gpu_ms", milli(&gpu_all, |s| s.seconds)),
            ("sim_cpu_ms", milli(&cpu, |s| s.seconds)),
            ("sim_gpu_mj", milli(&gpu_all, |s| s.joules)),
            ("sim_cpu_mj", milli(&cpu, |s| s.joules)),
            ("trace.coverage_pct", trace.min_child_coverage_pct("round")),
        ];
        out.trace = Some(trace);
    }
    out
}
