//! One benchmark run: set-up, the timed phases, the recovery rounds, the
//! correctness gate, and the numbers that come out.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cluster_load::{ClusterLoad, Kind};
use crate::hot;
use crate::json;
use crate::layers;
use crate::load::{self, Phase, Verdict, SLICE};
use crate::procstat::{self, CpuTicks};
use crate::speed::Speedometer;
use crate::stats::{self, SliceSignal};
use crate::table_load::TableLoad;
use crate::trace::{self, Tracer};
use crate::workload::{warmup_ops, Counters, Restart, Workload};

/// What is frozen per workload. The open-loop rate is 30–40 % of the
/// quiet-box `closed_ops_s`, the limit 4× the quiet-box `open_p50_us`
/// rounded up to 1-2-5; the reference numbers are in the README.
pub struct Spec {
    pub name: &'static str,
    pub open_rate_per_s: f64,
    pub limit_us: u64,
    /// Ops per recovery round, before the kill.
    pub round_ops: u64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "order_local",
        open_rate_per_s: 1_200.0,
        limit_us: 1_000,
        round_ops: 600,
    },
    Spec {
        name: "booking_cross",
        open_rate_per_s: 380.0,
        limit_us: 5_000,
        round_ops: 200,
    },
    Spec {
        name: "pm_table",
        open_rate_per_s: 900.0,
        limit_us: 2_000,
        round_ops: 600,
    },
    Spec {
        name: "failover",
        open_rate_per_s: 1_200.0,
        limit_us: 1_000,
        round_ops: 600,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Client threads: one per core the run uses, and it uses one (see
/// [`crate::hot`]). A second client on the same core buys no throughput
/// (3 640 against 3 740 ops/s on `order_local`) and makes an op's latency
/// depend on whether the scheduler lets the two interleave: the spread of
/// `closed_p50_us` over ten alternating runs was 20 % with two clients
/// and 11 % with one, of `open_p50_us` 38 % and 19 %.
pub const CLIENTS: usize = 1;

/// How `--seconds` is spent. Slices are half a second; the recovery
/// rounds are counted in ops and take about a quarter of the time.
struct Plan {
    closed_slices: usize,
    traced_slices: usize,
    open_slices: usize,
    rounds: usize,
}

fn plan(seconds: u64, trace: bool) -> Plan {
    let per_second = (Duration::from_secs(1).as_nanos() / SLICE.as_nanos()) as u64;
    let slices = |eighths: u64| ((seconds * per_second * eighths / 8) as usize).max(4);
    let rounds = (seconds as usize).clamp(3, 15);
    if trace {
        // The same wall time, with the closed loop run twice: untraced
        // for the reference rate, traced for the spans.
        Plan {
            closed_slices: slices(2),
            traced_slices: slices(2),
            open_slices: slices(2),
            rounds,
        }
    } else {
        Plan {
            closed_slices: slices(3),
            traced_slices: 0,
            open_slices: slices(3),
            rounds,
        }
    }
}

/// Quiet-waiting before one phase may take this many windows.
const QUIET_WINDOWS: u32 = 7;
const QUIET_WINDOW: Duration = Duration::from_millis(300);

/// Waits for one window in which the rest of the machine was quiet, so a
/// phase does not start inside someone else's burst. Gives up after two
/// seconds (the run-time budget has no room for more): the slices carry
/// their own signal anyway. Adds what it waited to `spent`.
fn wait_quiet(spent: &mut Duration) {
    for _ in 0..QUIET_WINDOWS {
        let before = CpuTicks::read();
        std::thread::sleep(QUIET_WINDOW);
        *spent += QUIET_WINDOW;
        if procstat::foreign_share(before, CpuTicks::read()) <= stats::CLEAN_FOREIGN_SHARE {
            return;
        }
    }
}

/// The machine share this process could have had since `earlier`, for
/// stretches that are not sliced (set-up, a recovery round).
fn own_share_since(earlier: Option<CpuTicks>) -> f64 {
    SliceSignal {
        foreign_share: procstat::foreign_share(earlier, CpuTicks::read()),
        late: false,
    }
    .own_share()
}

fn build(name: &str, seed: u64, clients: usize) -> Box<dyn Workload> {
    match name {
        "order_local" => Box::new(ClusterLoad::build(Kind::OrderLocal, seed)),
        "booking_cross" => Box::new(ClusterLoad::build(Kind::BookingCross, seed)),
        "failover" => Box::new(ClusterLoad::build(Kind::Failover, seed)),
        "pm_table" => Box::new(TableLoad::build(seed, clients)),
        other => panic!("unknown workload {other}"),
    }
}

/// Ops attempted and failed so far.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn note(&mut self, verdict: Verdict) {
        self.attempted += 1;
        self.failed += u64::from(verdict == Verdict::Failed);
    }

    fn phase(&mut self, phase: &Phase) {
        self.attempted += phase.samples.len() as u64;
        self.failed += phase.count(Verdict::Failed);
    }
}

/// Builds the workload and runs the fixed warm-up: a closed loop of
/// `clients` clients, counted in ops.
fn set_up(name: &str, seed: u64, clients: usize, tally: &mut Tally) -> Box<dyn Workload> {
    let load = build(name, seed, clients);
    let target = warmup_ops(load.tick_ms());
    let verdicts: Vec<Verdict> = std::thread::scope(|scope| {
        let load = &*load;
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    while load.issued() < target {
                        mine.push(load.step(client));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("warm-up client"))
            .collect()
    });
    verdicts.into_iter().for_each(|v| tally.note(v));
    load
}

/// One named number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Everything a run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Run conditions that are not metrics: `disturbed`, `quiet_wait_s`,
    /// drifts, the journal lengths the restarts replayed. One JSON object.
    pub info: String,
}

/// Prints what a phase saw, slice by slice: the raw readings next to the
/// signals they were selected and scaled by.
fn describe(label: &str, phase: &Phase, speed: f64) {
    let clean = phase.signals.iter().filter(|s| s.clean()).count();
    println!(
        "{label}: {} ops in {} slices, {clean} clean{}, drift {:.3}, core at {speed:.3} of the reference speed",
        phase.samples.len(),
        phase.signals.len(),
        if phase.selection.disturbed { ", DISTURBED" } else { "" },
        phase.drift(),
    );
    let p50 = phase.slice_percentiles_us(0.5);
    for (k, signal) in phase.signals.iter().enumerate() {
        println!(
            "  slice {k:>2}: {:>8.0} ops/s  foreign share {:.3}{}  p50 {:>9.1} us scaled{}",
            phase.rates[k],
            signal.foreign_share,
            if signal.late { " late" } else { "" },
            p50[k],
            if phase.selection.indices.contains(&k) {
                "  *"
            } else {
                ""
            },
        );
    }
}

struct Recovery {
    restarts: Vec<Restart>,
    /// Per round, scaled by the round's machine share.
    restarts_ms: Vec<f64>,
    outages_ms: Vec<f64>,
    /// Counters over the op stretches of the rounds only (single client,
    /// so they repeat for a seed), and the ops those stretches ran.
    counted: Counters,
    ops: u64,
}

fn recover(
    load: &dyn Workload,
    spec: &Spec,
    rounds: usize,
    tally: &mut Tally,
    problems: &mut Vec<String>,
) -> Recovery {
    load.enter_recovery();
    let mut out = Recovery {
        restarts: Vec::new(),
        restarts_ms: Vec::new(),
        outages_ms: Vec::new(),
        counted: Counters::default(),
        ops: 0,
    };
    for round in 0..rounds {
        load.begin_round(round);
        let ticks = CpuTicks::read();
        let before = load.counters();
        for _ in 0..spec.round_ops {
            tally.note(load.step(0));
        }
        out.counted = out.counted.plus(&load.counters().since(&before));
        out.ops += spec.round_ops;
        let restart = load.kill_and_restart(round, problems);
        let first = Instant::now();
        tally.note(load.step(0));
        let first_ms = first.elapsed().as_secs_f64() * 1e3;
        // A restart is over in milliseconds, less than one CPU tick: the
        // machine share is read over the whole round it ended.
        let share = own_share_since(ticks);
        out.restarts_ms.push(restart.restart_ms * share);
        out.outages_ms.push((restart.down_ms + first_ms) * share);
        out.restarts.push(restart);
    }
    out
}

/// Runs workload `name` and reports. `trace` adds the traced closed
/// phase and the isolated replays, and fills `per_layer`.
pub fn run(name: &str, seed: u64, seconds: u64, trace: bool) -> Report {
    let spec = spec(name).expect("workload name was checked by the caller");
    let clients = CLIENTS;
    let plan = plan(seconds, trace);
    let mut tally = Tally::default();
    let mut problems: Vec<String> = Vec::new();
    let mut quiet_wait = Duration::ZERO;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Before any thread exists, so that all of them inherit the mask. The
    // spinner and the speed probe are held to the end of the run, because
    // set-up and the recovery rounds measure too.
    let pinned_to = hot::pin_to_one_core();
    if let Some(core) = pinned_to {
        procstat::watch_core(core);
    }
    let awake = hot::KeepAwake::start();
    let speed = Speedometer::start();

    let ticks = CpuTicks::read();
    let started = Instant::now();
    let load = set_up(name, seed, clients, &mut tally);
    let setup_wall_s = started.elapsed().as_secs_f64();
    let setup_speed = speed.since(started);
    let setup_s = setup_wall_s * own_share_since(ticks) * setup_speed;
    let load: &dyn Workload = &*load;
    println!(
        "set-up: {clients} clients, {} warm-up ops, {setup_wall_s:.3} s on the wall at {setup_speed:.3} of the reference speed, {setup_s:.3} s scaled",
        warmup_ops(load.tick_ms())
    );

    // Closed loop.
    wait_quiet(&mut quiet_wait);
    let mut lag_max = 0u64;
    let mut watch = || lag_max = lag_max.max(load.gauges().repl_lag);
    let began = Instant::now();
    let closed = load::run_closed(load, clients, plan.closed_slices, &mut watch);
    let closed_speed = speed.since(began);
    tally.phase(&closed);
    describe("closed", &closed, closed_speed);
    let closed_ops_s = stats::clean_median(&closed.slice_rates(), &closed.selection) / closed_speed;
    let closed_p50_us =
        stats::clean_median(&closed.slice_percentiles_us(0.5), &closed.selection) * closed_speed;
    let (closed_p99_us, closed_n) = closed.whole_percentile_us(0.99, |s| s.end - s.due);
    println!(
        "closed: p99 {closed_p99_us:.1} us over {closed_n} ops (whole phase, unscaled, diagnostic)"
    );

    // The same loop again with the span recorder on.
    let mut traced = None;
    if trace {
        wait_quiet(&mut quiet_wait);
        let tracer = Arc::new(Tracer::default());
        load.set_tracer(Some(Arc::clone(&tracer)));
        let before = load.counters();
        let began = Instant::now();
        let phase = load::run_closed(load, clients, plan.traced_slices, &mut watch);
        let traced_speed = speed.since(began);
        let counted = load.counters().since(&before);
        load.set_tracer(None);
        tally.phase(&phase);
        describe("closed, traced", &phase, traced_speed);
        traced = Some((phase, counted, tracer, traced_speed));
    }

    // Open loop at the frozen rate.
    wait_quiet(&mut quiet_wait);
    let open_ns = (SLICE * plan.open_slices as u32).as_nanos() as u64;
    let schedule = stats::poisson_schedule(seed, spec.open_rate_per_s, open_ns);
    // A leader dies every four seconds' worth of arrivals (failover only).
    load.set_chaos(Some((spec.open_rate_per_s * 4.0) as u64));
    let began = Instant::now();
    let open = load::run_open(load, clients, &schedule, plan.open_slices, &mut watch);
    let open_speed = speed.since(began);
    load.set_chaos(None);
    tally.phase(&open);
    describe("open", &open, open_speed);
    let open_p50_us =
        stats::clean_median(&open.slice_percentiles_us(0.5), &open.selection) * open_speed;
    let open_within_limit = open.within_limit(spec.limit_us, open_speed);
    let (open_p99_us, open_n) = open.whole_percentile_us(0.99, |s| s.end - s.due);
    let (late_p99_us, _) = open.whole_percentile_us(0.99, |s| s.start - s.due);
    println!(
        "open: {} ops/s offered, limit {} us, p99 {open_p99_us:.1} us and generator lateness p99 {late_p99_us:.1} us over {open_n} ops (whole phase, unscaled, diagnostic)",
        spec.open_rate_per_s, spec.limit_us
    );
    load.audit(&mut problems);

    // Recovery rounds.
    let began = Instant::now();
    let recovery = recover(load, spec, plan.rounds, &mut tally, &mut problems);
    let recovery_speed = speed.since(began);
    let journal_lens: Vec<usize> = recovery.restarts.iter().map(|r| r.journal_len).collect();
    let restart_ms = stats::median(&recovery.restarts_ms) * recovery_speed;
    let outage_ms = stats::median(&recovery.outages_ms) * recovery_speed;
    println!(
        "recovery: {} rounds of {} ops at {recovery_speed:.3} of the reference speed, journal lines replayed {:?}",
        plan.rounds, spec.round_ops, journal_lens
    );

    // The correctness gate.
    load.drain(&mut problems);
    load.audit(&mut problems);
    for p in &problems {
        println!("VIOLATION: {p}");
    }

    let (resident, resident_bytes) = load.resident();
    let end_to_end = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("closed_ops_s", closed_ops_s, "1/s"),
        Metric::new("closed_p50_us", closed_p50_us, "us"),
        Metric::new("open_p50_us", open_p50_us, "us"),
        Metric::new("open_within_limit", open_within_limit, "share"),
        Metric::new("outage_ms", outage_ms, "ms"),
        Metric::new("restart_ms", restart_ms, "ms"),
        Metric::new("peak_rss_mb", procstat::peak_rss_mb(), "MB"),
        Metric::new(
            "live_bytes_per_promise",
            resident_bytes as f64 / resident.max(1) as f64,
            "B",
        ),
    ];

    let mut per_layer = Vec::new();
    if let Some((phase, counted, tracer, traced_speed)) = traced {
        let traces = tracer.link();
        let summary = trace::summarise(&traces);
        let traced_ops_s =
            stats::clean_median(&phase.slice_rates(), &phase.selection) / traced_speed;
        println!(
            "trace: {} ops traced, {traced_ops_s:.0} ops/s traced against {closed_ops_s:.0} untraced",
            summary.ops
        );
        layers::write_trace(name, seed, &traces);
        let refused = closed.count(Verdict::Refused) + open.count(Verdict::Refused);
        per_layer = layers::per_layer(layers::Inputs {
            name,
            load,
            summary: &summary,
            traced_ops: phase.samples.len() as u64,
            traced: &counted,
            recovery_ops: recovery.ops,
            recovery: &recovery.counted,
            restarts: &recovery.restarts,
            closed_p50_us,
            client: [
                Metric::new("client.closed_p99_us", closed_p99_us, "us"),
                Metric::new("client.open_p99_us", open_p99_us, "us"),
                Metric::new("client.open_late_p99_us", late_p99_us, "us"),
                Metric::new(
                    "client.failed_share",
                    tally.failed as f64 / tally.attempted.max(1) as f64,
                    "share",
                ),
                Metric::new(
                    "client.refused_share",
                    refused as f64 / (closed.samples.len() + open.samples.len()).max(1) as f64,
                    "share",
                ),
            ],
            trace_overhead_share: 1.0 - traced_ops_s / closed_ops_s,
            lag_max,
        });
    }

    let info = format!(
        "{{\"workload\":\"{name}\",\"seed\":{seed},\"seconds\":{seconds},\"clients\":{clients},\"cores\":{cores},\"pinned_to_core\":{},\"kept_awake\":{},\"disturbed\":{},\"quiet_wait_s\":{},\"speed\":[{setup_speed},{closed_speed},{open_speed},{recovery_speed}],\"closed_drift\":{},\"open_drift\":{},\"closed_p99_us\":{},\"open_p99_us\":{},\"open_late_p99_us\":{},\"recovery_journal_lens\":{journal_lens:?}}}",
        pinned_to.map_or("null".to_owned(), |core| core.to_string()),
        awake.spinning,
        closed.selection.disturbed || open.selection.disturbed,
        quiet_wait.as_secs_f64(),
        json::number(closed.drift()),
        json::number(open.drift()),
        json::number(closed_p99_us),
        json::number(open_p99_us),
        json::number(late_p99_us),
    );

    Report {
        correct: problems.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        end_to_end,
        per_layer,
        info,
    }
}
