//! `native_suite`: in process, one round runs each of the 13 workloads
//! (`all_workloads()` plus `worklist_workloads()`) through
//! `Concord::new`, `Workload::build`, `Instance::run(Target::Native)` and
//! `Instance::verify`. The frontend, both compiler pipelines, native
//! codegen, SVM upload and native execution do the work; the serve layer
//! does none.

use crate::harness::{run_callers, timed, Cfg, Clock, Failure, Phase, Run, Tally, SETUPS};
use crate::trace::{Recorder, Trace};
use concord_analyze::Mode;
use concord_compiler::GpuConfig;
use concord_energy::SystemConfig;
use concord_ir::Module;
use concord_runtime::{Concord, Options, Target};
use concord_workloads::worklist::WorklistWorkload;
use concord_workloads::{all_workloads, worklist_workloads, Scale, Spec, Workload};
use std::time::Instant;

/// Closed-loop callers, each running whole rounds on its own thread
/// with `CONCORD_HOST_THREADS=1`. One caller: with two, the median round
/// spread about twice as widely from run to run, and one caller at host
/// threads 2 spread wider still (see README.md).
const CALLERS: usize = 1;

/// Input scale of every workload (inputs are fixed by the
/// `concord-workloads` generators).
const SCALE: Scale = Scale::Small;

enum Entry {
    Flat(Box<dyn Workload>),
    Frontier(Box<dyn WorklistWorkload>),
}

impl Entry {
    fn spec(&self) -> Spec {
        match self {
            Entry::Flat(w) => w.spec(),
            Entry::Frontier(w) => w.spec(),
        }
    }
}

fn entries() -> Vec<Entry> {
    let flat = all_workloads().into_iter().map(Entry::Flat);
    flat.chain(worklist_workloads().into_iter().map(Entry::Frontier)).collect()
}

/// What a round observed that must repeat exactly in every round.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Shape {
    /// Per-round frontier sizes of each worklist workload.
    frontiers: Vec<Vec<u32>>,
    /// Launches the native executor serialized for cross-item hazards.
    hazard_serialized: u64,
}

fn one(
    e: &Entry,
    system: SystemConfig,
    rec: &mut Recorder,
    shape: &mut Shape,
) -> Result<(), Failure> {
    let err = |stage: &str, x: &dyn std::fmt::Display| {
        Failure::Error(format!("{} {stage}: {x}", e.spec().name))
    };
    let mut cc = rec
        .time("runtime.new", || Concord::new(system, e.spec().source, Options::default()))
        .map_err(|x| err("new", &x))?;
    let verdict = match e {
        Entry::Flat(w) => {
            let mut inst =
                rec.time("svm.build", || w.build(&mut cc, SCALE)).map_err(|x| err("build", &x))?;
            rec.time("native.run", || inst.run(&mut cc, Target::Native))
                .map_err(|x| err("run", &x))?;
            rec.time("check", || inst.verify(&cc))
        }
        Entry::Frontier(w) => {
            let mut inst = rec
                .time("svm.build", || w.build_worklist(&mut cc, SCALE))
                .map_err(|x| err("build", &x))?;
            let report = rec
                .time("native.run", || inst.drain(&mut cc, Target::Native))
                .map_err(|x| err("run", &x))?;
            shape.frontiers.push(report.frontier_sizes);
            rec.time("check", || inst.verify(&cc))
        }
    };
    shape.hazard_serialized += cc.native_hazard_serialized();
    rec.time("runtime.drop", || drop(cc));
    verdict.map_err(|x| Failure::Wrong(format!("{}: {x}", e.spec().name)))
}

/// One round over every workload, inside a `round` span.
fn round(entries: &[Entry], system: SystemConfig, rec: &mut Recorder) -> Result<Shape, Failure> {
    let mut shape = Shape::default();
    rec.begin("round");
    let r = entries.iter().try_for_each(|e| one(e, system, rec, &mut shape));
    rec.end();
    r.map(|()| shape)
}

/// Deterministic sizes the compile-layer calls report, summed over the
/// sources.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Sizes {
    ir_insts: u64,
    cpu_ir_insts: u64,
    gpu_ir_insts: u64,
    code_bytes: u64,
}

fn live_insts(m: &Module) -> u64 {
    m.functions.iter().flat_map(|f| &f.blocks).map(|b| b.insts.len() as u64).sum()
}

/// The compile-layer calls, made directly on each workload's source in
/// the order `Concord::new` makes them, each in its own span.
fn compile_layers(
    entries: &[Entry],
    system: SystemConfig,
    rec: &mut Recorder,
) -> Result<Sizes, String> {
    let mut sizes = Sizes::default();
    for e in entries {
        let mut prog = rec
            .time("frontend.compile", || concord_frontend::compile(e.spec().source))
            .map_err(|x| format!("{}: {x}", e.spec().name))?;
        sizes.ir_insts += live_insts(&prog.module);
        let cfg = GpuConfig::all(system.gpu.eus);
        let gpu = rec
            .time("compiler.gpu_pipeline", || concord_compiler::lower_for_gpu(&prog.module, cfg));
        sizes.gpu_ir_insts += live_insts(&gpu.module);
        rec.time("compiler.cpu_pipeline", || concord_compiler::optimize_for_cpu(&mut prog.module));
        sizes.cpu_ir_insts += live_insts(&prog.module);
        rec.time("analyze.kernel", || {
            for k in &prog.kernels {
                let mode = if k.join_fn.is_some() { Mode::Reduce } else { Mode::For };
                std::hint::black_box(concord_analyze::analyze_kernel(
                    &prog.module,
                    k.operator_fn,
                    mode,
                ));
            }
        });
        let native = rec
            .time("native.codegen", || concord_native::compile(&prog.module))
            .map_err(|x| format!("{}: {x}", e.spec().name))?;
        sizes.code_bytes += native.code_len() as u64;
    }
    Ok(sizes)
}

/// One closed-loop caller: rounds until the clock stops, each checked
/// against the set-up round's shape; after each traced round, the
/// compile-layer calls.
fn drive(
    entries: &[Entry],
    system: SystemConfig,
    reference: &Shape,
    clock: &Clock,
    rec: &mut Recorder,
) -> (Tally, Option<Sizes>) {
    let mut tally = Tally::default();
    let mut sizes = None;
    let mut op = 0;
    while let Some(phase) = clock.next(op) {
        rec.set_on(phase == Phase::Traced);
        rec.set_op(op);
        op += 1;
        let start = Instant::now();
        let r = round(entries, system, rec);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        clock.complete();
        let outcome = match r {
            Ok(shape) if shape == *reference => Ok(()),
            Ok(_) => Err(Failure::Wrong("frontier schedule or hazard count changed".into())),
            Err(f) => Err(f),
        };
        tally.count(phase, "round", ms, outcome);
        if phase == Phase::Traced {
            match compile_layers(entries, system, rec) {
                Ok(s) => sizes = Some(s),
                Err(m) => eprintln!("native_suite: compile layers: {m}"),
            }
        }
    }
    (tally, sizes)
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Run {
    let system = SystemConfig::ultrabook();
    let mut out = Run::default();
    let mut reference = None;
    // Set-up: untimed, checked warm-up rounds (first codegen, first-touch
    // faults); the first fixes the shape every later round must repeat.
    let list = entries();
    for _ in 0..SETUPS {
        let mut off = Recorder::new(Instant::now());
        let (shape, secs) = timed(|| round(&list, system, &mut off));
        let shape = shape.unwrap_or_else(|f| panic!("native_suite set-up round failed, {f}"));
        assert!(reference.get_or_insert_with(|| shape.clone()) == &shape, "set-up rounds disagree");
        out.setup_s.push(secs);
    }
    let reference = reference.expect("at least one set-up");

    let epoch = Instant::now();
    let clock = Clock::start(*cfg);
    let callers =
        run_callers(0..CALLERS, epoch, |_, rec| drive(&entries(), system, &reference, &clock, rec));
    out.wall_s = clock.elapsed();
    let mut sizes = None;
    let mut spans = Vec::new();
    for ((tally, s), sp) in callers {
        out.tally.merge(tally);
        sizes = sizes.or(s);
        spans.push(sp);
    }
    if cfg.traced {
        let trace = Trace::new(spans);
        let sizes = sizes.unwrap_or_default();
        let rounds: usize = reference.frontiers.iter().map(Vec::len).sum();
        out.layer = vec![
            ("runtime.worklist_rounds", rounds as f64),
            ("native.hazard_serialized", reference.hazard_serialized as f64),
            ("frontend.ir_insts", sizes.ir_insts as f64),
            ("compiler.cpu_ir_insts", sizes.cpu_ir_insts as f64),
            ("compiler.gpu_ir_insts", sizes.gpu_ir_insts as f64),
            ("native.code_bytes", sizes.code_bytes as f64),
            ("trace.coverage_pct", trace.min_child_coverage_pct("round")),
        ];
        out.trace = Some(trace);
        out.add_span_metrics(&[
            ("runtime.new", "runtime.new_ms"),
            ("svm.build", "svm.build_ms"),
            ("native.run", "native.run_ms"),
            ("runtime.drop", "runtime.drop_ms"),
            ("frontend.compile", "frontend.compile_ms"),
            ("compiler.cpu_pipeline", "compiler.cpu_pipeline_ms"),
            ("compiler.gpu_pipeline", "compiler.gpu_pipeline_ms"),
            ("analyze.kernel", "analyze.kernel_ms"),
            ("native.codegen", "native.codegen_ms"),
        ]);
    }
    out
}
