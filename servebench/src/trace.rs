//! The traced run: the workload's scripts replayed in one process
//! against the session type the server builds, behind timing wrappers
//! at each layer boundary, plus per-layer probes over the same inputs.
//!
//! Layers are timed from outside, through public functions and traits:
//! a [`TimingSession`] hands out pins whose estimator is a
//! [`TimingEstimator`] (the counting-container shape: wrap the
//! container, not every caller), and the replay thread times
//! `Request::parse`, `ServeCore::handle` and reply encoding around them.
//! Spans stay in thread-local memory until the replay ends.

use std::cell::RefCell;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use euler_browse::{
    BrowseSession, DynamicGeoBrowsingService, GeoBrowsingService, PinnedSession, Recorder,
};
use euler_core::{
    DeltaOp, EulerHistogram, Level2Estimator, LiveEulerHistogram, RelationCounts, SEulerApprox,
};
use euler_datagen::Dataset;
use euler_geom::Rect;
use euler_grid::{Grid, GridRect, SnappedRect, Snapper, Tiling};
use euler_serve::{Request, ServeConfig, ServeCore};
use euler_wal::{DurableConfig, DurableLive};

use crate::stats::{mean, median, quantile, Metric};
use crate::workload::{grid, Inputs, Op, Profile};

// ---------------------------------------------------------------- spans

/// One timed interval at a layer boundary. Per-tile estimator calls are
/// folded into one span per op (`count` calls, `dur` their summed time).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub dur: Duration,
    pub count: u64,
}

#[derive(Default)]
struct ThreadSpans {
    op: u64,
    on: bool,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

thread_local! {
    static SPANS: RefCell<ThreadSpans> = RefCell::new(ThreadSpans::default());
}

/// Starts recording spans under op `id` on this thread.
fn begin_op(id: u64) {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        s.op = id;
        s.on = true;
        s.stack.clear();
    });
}

fn end_op() {
    SPANS.with(|s| s.borrow_mut().on = false);
}

/// Runs `f` inside a span named `name`, nested under the innermost open
/// span of the current op.
fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = SPANS.with(|s| {
        let mut s = s.borrow_mut();
        if !s.on {
            return None;
        }
        let span = Span {
            op: s.op,
            name,
            parent: s.stack.last().copied(),
            dur: Duration::ZERO,
            count: 1,
        };
        s.spans.push(span);
        let i = s.spans.len() - 1;
        s.stack.push(i);
        Some(i)
    });
    let t0 = Instant::now();
    let out = f();
    let dur = t0.elapsed();
    if let Some(i) = idx {
        SPANS.with(|s| {
            let mut s = s.borrow_mut();
            s.spans[i].dur = dur;
            s.stack.pop();
        });
    }
    out
}

/// Adds `count` calls taking `dur` in total to the op's folded span
/// `name` under the innermost open span.
fn fold(name: &'static str, dur: Duration, count: u64) {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        if !s.on {
            return;
        }
        let (op, parent) = (s.op, s.stack.last().copied());
        let found = s
            .spans
            .iter()
            .rev()
            .take_while(|sp| sp.op == op)
            .position(|sp| sp.name == name && sp.parent == parent);
        match found {
            Some(back) => {
                let i = s.spans.len() - 1 - back;
                s.spans[i].dur += dur;
                s.spans[i].count += count;
            }
            None => s.spans.push(Span {
                op,
                name,
                parent,
                dur,
                count,
            }),
        }
    });
}

fn take_spans() -> Vec<Span> {
    SPANS.with(|s| std::mem::take(&mut s.borrow_mut().spans))
}

// ------------------------------------------------------------- wrappers

/// A [`Level2Estimator`] that times every call into the pinned
/// estimator.
struct TimingEstimator {
    inner: euler_engine::SharedEstimator,
}

impl Level2Estimator for TimingEstimator {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn estimate(&self, q: &GridRect) -> RelationCounts {
        let t0 = Instant::now();
        let out = self.inner.estimate(q);
        fold("core.estimate", t0.elapsed(), 1);
        out
    }

    fn object_count(&self) -> u64 {
        self.inner.object_count()
    }

    fn storage_cells(&self) -> u64 {
        self.inner.storage_cells()
    }

    fn estimate_tiling(&self, t: &Tiling) -> Vec<RelationCounts> {
        let t0 = Instant::now();
        let out = self.inner.estimate_tiling(t);
        fold("core.estimate", t0.elapsed(), t.len() as u64);
        out
    }

    fn estimate_tiling_total(&self, t: &Tiling) -> (Vec<RelationCounts>, RelationCounts) {
        let t0 = Instant::now();
        let out = self.inner.estimate_tiling_total(t);
        fold("core.estimate", t0.elapsed(), t.len() as u64);
        out
    }

    fn supports_sweep(&self) -> bool {
        self.inner.supports_sweep()
    }

    fn epoch(&self) -> Option<u64> {
        self.inner.epoch()
    }
}

/// Events the session wrapper observes at its boundary.
#[derive(Default)]
struct Observed {
    /// `LiveSnapshot::delta_len` of each pinned snapshot.
    delta_lens: Vec<usize>,
    /// Durations of session calls during which the epoch advanced (a
    /// refreeze ran inside them).
    refreezes: Vec<Duration>,
}

/// A [`BrowseSession`] that times pins and writes and hands out timing
/// estimators.
struct TimingSession {
    inner: Arc<dyn BrowseSession>,
    live: Arc<LiveEulerHistogram>,
    observed: Mutex<Observed>,
}

impl TimingSession {
    fn watch<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let e0 = self.live.epoch();
        let t0 = Instant::now();
        let out = span(name, f);
        let dur = t0.elapsed();
        if self.live.epoch() != e0 {
            self.observed
                .lock()
                .expect("observer lock")
                .refreezes
                .push(dur);
        }
        out
    }
}

impl BrowseSession for TimingSession {
    fn session_name(&self) -> &'static str {
        self.inner.session_name()
    }

    fn grid(&self) -> &Grid {
        self.inner.grid()
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn version(&self) -> u64 {
        self.inner.version()
    }

    fn pin_session(&self) -> PinnedSession {
        let pinned = self.watch("browse.pin", || self.inner.pin_session());
        let snap = self.live.pin();
        if snap.version() == pinned.version() {
            self.observed
                .lock()
                .expect("observer lock")
                .delta_lens
                .push(snap.delta_len());
        }
        PinnedSession::new(
            Arc::new(TimingEstimator {
                inner: pinned.estimator().clone(),
            }),
            pinned.epoch(),
            pinned.version(),
        )
    }

    fn resolution_level(&self, tiling: &Tiling) -> usize {
        self.inner.resolution_level(tiling)
    }

    fn insert(&self, rect: &Rect) {
        self.watch("core.write", || self.inner.insert(rect))
    }

    fn remove(&self, rect: &Rect) {
        self.watch("core.write", || self.inner.remove(rect))
    }

    fn try_insert(&self, rect: &Rect) -> io::Result<u64> {
        self.watch("core.write", || self.inner.try_insert(rect))
    }

    fn try_remove(&self, rect: &Rect) -> io::Result<u64> {
        self.watch("core.write", || self.inner.try_remove(rect))
    }

    fn sync(&self) -> io::Result<()> {
        self.inner.sync()
    }

    fn checkpoint(&self) -> io::Result<Option<(u64, u64)>> {
        self.inner.checkpoint()
    }

    fn recorder(&self) -> &Arc<Recorder> {
        self.inner.recorder()
    }
}

// --------------------------------------------------------------- replay

/// The session the server would build, with a handle on its substrate.
struct Built {
    session: Arc<dyn BrowseSession>,
    live: Arc<LiveEulerHistogram>,
    /// The preload's duration.
    setup: Duration,
    /// Per-insert preload durations that advanced the epoch.
    preload_refreezes: Vec<Duration>,
}

fn build(inputs: &Inputs) -> Built {
    let live = Arc::new(LiveEulerHistogram::new(grid()));
    let session: Arc<dyn BrowseSession> = match inputs.spec.profile {
        Profile::Frozen => Arc::new(GeoBrowsingService::from_live(live.clone())),
        Profile::Dynamic => Arc::new(DynamicGeoBrowsingService::from_live(live.clone())),
    };
    // The preload as the server does it: one insert per object.
    let mut refreezes = Vec::new();
    let t0 = Instant::now();
    for r in &inputs.base {
        let e0 = live.epoch();
        let t = Instant::now();
        session.insert(r);
        if live.epoch() != e0 {
            refreezes.push(t.elapsed());
        }
    }
    Built {
        session,
        live,
        setup: t0.elapsed(),
        preload_refreezes: refreezes,
    }
}

/// One op as the replay saw it.
#[derive(Debug, Clone, Copy)]
struct OpRecord {
    id: u64,
    write: bool,
    total: Duration,
    hit: bool,
    ok: bool,
    reply_bytes: usize,
    version: Option<u64>,
    op: Op,
}

struct Replay {
    records: Vec<OpRecord>,
    spans: Vec<Span>,
    /// Rounds each connection finished.
    rounds: Vec<usize>,
    elapsed: Duration,
}

/// Replays every connection's script in process: per connection one
/// thread parses, handles and encodes each request. Runs whole rounds
/// until `run_for` passes, or exactly `rounds` rounds when given.
fn replay(
    inputs: &Inputs,
    core: &Arc<ServeCore>,
    traced: bool,
    run_for: Duration,
    rounds: Option<&[usize]>,
) -> Replay {
    let started = Instant::now();
    let results: Vec<Replay> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..inputs.spec.mixes.len())
            .map(|conn| {
                let core = core.clone();
                s.spawn(move || {
                    let tenant = format!("c{conn}");
                    let mut script = inputs.script(conn);
                    let mut records = Vec::new();
                    let mut id = (conn as u64) << 48;
                    loop {
                        let done = match rounds {
                            Some(r) => script.round >= r[conn],
                            None => started.elapsed() >= run_for,
                        };
                        if done {
                            break;
                        }
                        for op in script.next_round(inputs) {
                            id += 1;
                            let line = op.line(&tenant, &inputs.views);
                            if traced {
                                begin_op(id);
                            }
                            let t0 = Instant::now();
                            let out = span("serve.parse", || Request::parse(&line))
                                .map(|req| span("serve.handle", || core.handle(&req)))
                                .map(|resp| span("serve.encode", || resp.to_json().to_string()));
                            let total = t0.elapsed();
                            end_op();
                            let reply = out.unwrap_or_default();
                            let ok = reply.starts_with(r#"{"status":"ok""#);
                            records.push(OpRecord {
                                id,
                                write: op.is_write(),
                                total,
                                hit: reply.contains(r#""cache":"hit""#),
                                ok,
                                reply_bytes: reply.len() + 1,
                                version: crate::wire::field_u64(reply.as_bytes(), b"\"version\":"),
                                op,
                            });
                        }
                    }
                    Replay {
                        records,
                        spans: take_spans(),
                        rounds: vec![script.round],
                        elapsed: Duration::ZERO,
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay thread"))
            .collect()
    });
    let elapsed = started.elapsed();
    let mut out = Replay {
        records: Vec::new(),
        spans: Vec::new(),
        rounds: Vec::new(),
        elapsed,
    };
    for part in results {
        out.records.extend(part.records);
        // Parent links index the thread's own span list.
        let base = out.spans.len();
        out.spans.extend(part.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
        out.rounds.extend(part.rounds);
    }
    out
}

/// A span's duration minus the time its child spans cover.
fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut child = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur.saturating_sub(c))
        .collect()
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The traced run: returns every per-layer metric. `wire_median` is the
/// median browse round trip of the same invocation's end-to-end phase.
pub fn run(
    inputs: &Inputs,
    csv: &Path,
    work: &Path,
    run_for: Duration,
    wire_median: Duration,
) -> io::Result<Vec<Metric>> {
    let grid = grid();
    let config = ServeConfig::default();

    // Wrapped replay.
    let built = build(inputs);
    let timing = Arc::new(TimingSession {
        inner: built.session.clone(),
        live: built.live.clone(),
        observed: Mutex::new(Observed::default()),
    });
    let core = ServeCore::new(timing.clone(), config.clone());
    let traced = replay(inputs, &core, true, run_for, None);
    let cache = core.cache_stats();
    let dispatches = core.engine_dispatches();
    let telemetry = timing.telemetry();

    // Closing probe: every viewport twice at a quiet version; the second
    // is a cache hit wherever the first completed. The first also counts
    // the tilings the served path answers `degraded` (probe-only query
    // sets included).
    let mut probe_hits = Vec::new();
    let mut degraded = 0usize;
    for (i, _) in inputs.views.iter().enumerate() {
        let line = Op::Browse {
            view: i,
            check: false,
        }
        .line("probe", &inputs.views);
        let req = Request::parse(&line).map_err(|e| io::Error::other(e.to_string()))?;
        if core
            .handle(&req)
            .to_json()
            .to_string()
            .contains(r#""status":"degraded""#)
        {
            degraded += 1;
        }
        let t0 = Instant::now();
        let resp = core.handle(&req);
        let dur = t0.elapsed();
        if resp.to_json().to_string().contains(r#""cache":"hit""#) {
            probe_hits.push(dur);
        }
    }
    drop(core);
    let observed = std::mem::take(&mut *timing.observed.lock().expect("observer lock"));
    drop(timing);
    drop(built.session);

    // Unwrapped replay of the same rounds: the tracing overhead.
    let plain = build(inputs);
    let plain_core = ServeCore::new(plain.session.clone(), config);
    let untraced = replay(inputs, &plain_core, false, run_for, Some(&traced.rounds));
    drop(plain_core);
    drop(plain);

    // Span statistics.
    let selfs = self_times(&traced.spans);
    let mut by_name: std::collections::HashMap<&str, Vec<f64>> = Default::default();
    for s in &traced.spans {
        by_name.entry(s.name).or_default().push(us(s.dur));
    }
    let hit_ops: std::collections::HashSet<u64> = traced
        .records
        .iter()
        .filter(|r| r.hit)
        .map(|r| r.id)
        .collect();
    let browse_ops: std::collections::HashSet<u64> = traced
        .records
        .iter()
        .filter(|r| !r.write)
        .map(|r| r.id)
        .collect();
    let mut handle_hit: Vec<f64> = probe_hits.iter().map(|d| us(*d)).collect();
    let mut engine_self = Vec::new();
    let (mut est_time, mut est_tiles) = (Duration::ZERO, 0u64);
    let mut encode = Vec::new();
    for (i, s) in traced.spans.iter().enumerate() {
        match s.name {
            "serve.handle" if hit_ops.contains(&s.op) => handle_hit.push(us(s.dur)),
            "serve.handle" if browse_ops.contains(&s.op) => engine_self.push(us(selfs[i])),
            "serve.encode" if browse_ops.contains(&s.op) => encode.push(us(s.dur)),
            "core.estimate" => {
                est_time += s.dur;
                est_tiles += s.count;
            }
            _ => {}
        }
    }
    // Browses only: on catalog-refresh half the ops are writes, and a
    // median over both kinds falls in the gap between them.
    let browse_us = |r: &Replay| -> Vec<f64> {
        r.records
            .iter()
            .filter(|o| !o.write)
            .map(|o| us(o.total))
            .collect()
    };
    let (traced_ops, untraced_ops) = (browse_us(&traced), browse_us(&untraced));
    let browse_bytes: Vec<f64> = traced
        .records
        .iter()
        .filter(|r| !r.write)
        .map(|r| r.reply_bytes as f64 / 1024.0)
        .collect();

    // Layer probes over the workload's inputs.
    let t0 = Instant::now();
    let dataset = Dataset::load_csv(csv, "bench", *grid.space())
        .map_err(|e| io::Error::other(e.to_string()))?;
    let csv_load = t0.elapsed();
    let snapper = Snapper::new(grid);
    let t0 = Instant::now();
    let snapped: Vec<SnappedRect> = dataset.rects().iter().map(|r| snapper.snap(r)).collect();
    let snap_ns = t0.elapsed().as_secs_f64() * 1e9 / snapped.len().max(1) as f64;
    let t0 = Instant::now();
    let frozen = EulerHistogram::build(grid, &snapped).freeze();
    let bulk_build = t0.elapsed();
    let frozen_mb = frozen.storage_bytes() as f64 / (1 << 20) as f64;
    let sweep = SEulerApprox::new(frozen);
    let tilings: Vec<Tiling> = inputs.views.iter().map(|v| v.tiling(&grid)).collect();
    let tiles: usize = tilings.iter().map(Tiling::len).sum();
    let mut passes = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        for t in &tilings {
            std::hint::black_box(sweep.estimate_tiling(std::hint::black_box(t)));
        }
        passes.push(t0.elapsed().as_secs_f64() * 1e9 / tiles as f64);
    }

    // The workload's write stream through the in-memory substrate: the
    // base objects, then every write the traced replay acknowledged.
    let mut writes: Vec<(u64, Op)> = traced
        .records
        .iter()
        .filter(|r| r.write && r.ok)
        .filter_map(|r| r.version.map(|v| (v, r.op)))
        .collect();
    writes.sort_by_key(|(v, _)| *v);
    let mut stream: Vec<DeltaOp> = snapped.iter().map(|s| DeltaOp::insert(*s)).collect();
    for (_, op) in &writes {
        match op {
            Op::Insert { rect, .. } => stream.push(DeltaOp::insert(snapper.snap(rect))),
            Op::Remove { rect, .. } => stream.push(DeltaOp::delete(snapper.snap(rect))),
            Op::Browse { .. } => {}
        }
    }
    let memory = LiveEulerHistogram::new(grid);
    let mut apply: Vec<f64> = Vec::with_capacity(stream.len());
    for op in &stream {
        let t0 = Instant::now();
        memory.apply(*op);
        apply.push(us(t0.elapsed()));
    }
    drop(memory);

    // WAL probe: 2,000 inserts of the workload's objects into a fresh
    // durable store with the default configuration.
    let probe_dir = work.join("wal-probe");
    let probe_ops = &stream[..stream.len().min(2_000)];
    let (durable, _) = DurableLive::open(&probe_dir, grid, DurableConfig::default())
        .map_err(|e| io::Error::other(e.to_string()))?;
    let memory = LiveEulerHistogram::new(grid);
    let (mut durable_apply, mut memory_apply, mut syncs) = (Vec::new(), Vec::new(), Vec::new());
    for (i, op) in probe_ops.iter().enumerate() {
        let t0 = Instant::now();
        durable.apply(*op)?;
        durable_apply.push(us(t0.elapsed()));
        let t0 = Instant::now();
        memory.apply(*op);
        memory_apply.push(us(t0.elapsed()));
        if i % 50 == 49 {
            let t0 = Instant::now();
            durable.sync()?;
            syncs.push(us(t0.elapsed()));
        }
    }
    let wal_bytes: u64 = std::fs::read_dir(&probe_dir)?
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    drop(durable);
    let t0 = Instant::now();
    let (durable, report) = DurableLive::open(&probe_dir, grid, DurableConfig::default())
        .map_err(|e| io::Error::other(e.to_string()))?;
    let probe_open = t0.elapsed();
    let t0 = Instant::now();
    durable.checkpoint()?;
    let probe_checkpoint = t0.elapsed();
    drop(durable);
    let mut refreezes: Vec<f64> = built.preload_refreezes.iter().map(|d| ms(*d)).collect();
    refreezes.extend(observed.refreezes.iter().map(|d| ms(*d)));

    let med = |name: &str| by_name.get(name).map_or(0.0, |v| median(v));
    let m = Metric::new;
    Ok(vec![
        m("serve.wire_us", "us", us(wire_median) - median(&traced_ops)),
        m("serve.parse_us", "us", med("serve.parse")),
        m("serve.encode_us", "us", median(&encode)),
        m("serve.reply_kb", "KiB", mean(&browse_bytes)),
        m("serve.handle_hit_us", "us", median(&handle_hit)),
        m(
            "serve.cache_hit_ratio",
            "ratio",
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        ),
        m("serve.cache_evictions", "count", cache.evictions as f64),
        m("browse.pin_us", "us", med("browse.pin")),
        m(
            "engine.sweep_ratio",
            "ratio",
            telemetry.sweep_hits as f64 / dispatches.max(1) as f64,
        ),
        m("engine.self_us", "us", median(&engine_self)),
        m("engine.degraded_tilings", "count", degraded as f64),
        m(
            "core.tile_ns",
            "ns",
            est_time.as_secs_f64() * 1e9 / est_tiles.max(1) as f64,
        ),
        m(
            "core.delta_len",
            "count",
            mean(
                &observed
                    .delta_lens
                    .iter()
                    .map(|&d| d as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        m("core.apply_p50_us", "us", quantile(&apply, 0.5)),
        m("core.apply_p99_us", "us", quantile(&apply, 0.99)),
        m("core.refreeze_ms", "ms", median(&refreezes)),
        m("core.refreezes", "count", refreezes.len() as f64),
        m("core.preload_s", "s", built.setup.as_secs_f64()),
        m("core.bulk_build_ms", "ms", ms(bulk_build)),
        m("cube.frozen_mb", "MiB", frozen_mb),
        m("cube.sweep_ns_per_tile", "ns", median(&passes)),
        m(
            "wal.log_us",
            "us",
            median(&durable_apply) - median(&memory_apply),
        ),
        m("wal.sync_us", "us", median(&syncs)),
        m(
            "wal.bytes_per_write",
            "B",
            wal_bytes as f64 / probe_ops.len().max(1) as f64,
        ),
        m("wal.checkpoint_ms", "ms", ms(probe_checkpoint)),
        m("wal.open_ms", "ms", ms(probe_open)),
        m(
            "wal.replay_per_s",
            "1/s",
            report.replayed as f64 / probe_open.as_secs_f64().max(1e-9),
        ),
        m("grid.snap_ns", "ns", snap_ns),
        m("datagen.csv_load_ms", "ms", ms(csv_load)),
        m(
            "trace.overhead_us",
            "us",
            median(&traced_ops) - median(&untraced_ops),
        ),
        m(
            "serve.inproc_ops_per_s",
            "1/s",
            traced.records.len() as f64 / traced.elapsed.as_secs_f64(),
        ),
    ])
}
