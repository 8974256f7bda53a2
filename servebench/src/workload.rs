//! Workload definitions: the catalog, seeded viewports and per-connection
//! closed-loop scripts.
//!
//! Every script is a sequence of *rounds*. A round holds a fixed multiset
//! of operations, so the share of each op kind is identical in every
//! round; the seed only decides the order, the regional viewports drawn
//! from the popularity ranking it permutes, and the rectangles written.

use euler_datagen::{adl_like, AdlConfig, Zipf};
use euler_geom::Rect;
use euler_grid::{DataSpace, Grid, GridRect, Tiling};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The grid every workload serves: `geobrowse serve`'s default 360×180
/// grid over the paper's world space.
pub fn grid() -> Grid {
    Grid::new(DataSpace::paper_world(), 360, 180).expect("paper grid")
}

/// Mixes a seed with a stream tag so independent generators never share
/// a sequence.
pub fn stream(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PanZoom,
    CatalogRefresh,
}

/// How the server is started for a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// `--data <csv>` with the default (dynamic) profile.
    Dynamic,
    /// `--data <csv> --profile frozen`.
    Frozen,
}

/// One connection's per-round op mix.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Browse every paper query set of the spec once per round.
    pub qsets_each_round: bool,
    /// Regional browses drawn from the Zipf popularity per round.
    pub zipf_browses: usize,
    pub inserts: usize,
    pub removes: usize,
}

/// Everything that defines a workload apart from the seed.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub profile: Profile,
    /// Objects preloaded.
    pub objects: usize,
    /// Paper query-set tile sizes, browsed once per round by every
    /// connection that browses them.
    pub qsets: &'static [usize],
    /// Query sets only the traced run's closing probe browses: on the
    /// served path they finish near or past the 250 ms default budget,
    /// so they would fail on some requests and not others.
    pub probe_qsets: &'static [usize],
    /// Distinct regional viewports (the Zipf draw covers these).
    pub regional: usize,
    /// Tiles per regional viewport (cols × rows).
    pub regional_tiles: (usize, usize),
    /// One mix per connection.
    pub mixes: Vec<Mix>,
}

/// Exponent of the Zipf popularity of regional viewports. An assumed
/// value, not one observed in traffic (see the README's assumptions).
pub const ZIPF_S: f64 = 1.0;

/// Server spawns per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub const ALL: [Workload; 2] = [Workload::PanZoom, Workload::CatalogRefresh];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.spec().name == name)
    }

    pub fn spec(self) -> Spec {
        let browse = |qsets_each_round, zipf_browses| Mix {
            qsets_each_round,
            zipf_browses,
            inserts: 0,
            removes: 0,
        };
        match self {
            // 100,000 objects leave 100,000 mod 1,024 = 672 delta ops
            // after the preload's last automatic refreeze.
            Workload::PanZoom => Spec {
                name: "pan-zoom",
                profile: Profile::Dynamic,
                objects: 100_000,
                qsets: &[20, 18, 15, 12, 10, 9],
                probe_qsets: &[6, 5, 4, 3, 2],
                regional: 360,
                regional_tiles: (8, 4),
                mixes: vec![browse(true, 55); 2],
            },
            // One curator connection, each write followed by a browse, so
            // every browse pays exactly one refreeze. A second connection
            // browsing alongside made that a race (which request the
            // server polls first), and two in-memory writers can be
            // acknowledged with the same version (see the README).
            Workload::CatalogRefresh => Spec {
                name: "catalog-refresh",
                profile: Profile::Frozen,
                objects: 100_000,
                qsets: &[20, 18, 15, 12, 10, 9, 6, 5, 4, 3, 2],
                probe_qsets: &[],
                regional: 120,
                regional_tiles: (16, 8),
                mixes: vec![Mix {
                    inserts: 24,
                    removes: 8,
                    ..browse(true, 21)
                }],
            },
        }
    }
}

/// A browse viewport: a tiling of a grid-aligned region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct View {
    pub cols: usize,
    pub rows: usize,
    /// `None` is the full grid (a paper query set).
    pub region: Option<(usize, usize, usize, usize)>,
    /// The paper query set's tile size, for full-grid views.
    pub qset: Option<usize>,
}

impl View {
    pub fn tiling(&self, grid: &Grid) -> Tiling {
        let region = match self.region {
            None => grid.full(),
            Some((x0, y0, x1, y1)) => GridRect::new(x0, y0, x1, y1, grid).expect("aligned region"),
        };
        Tiling::new(region, self.cols, self.rows).expect("valid tiling")
    }

    pub fn tiles(&self) -> usize {
        self.cols * self.rows
    }

    pub fn label(&self) -> String {
        match (self.qset, self.region) {
            (Some(n), _) => format!("Q{n}"),
            (None, Some((x0, y0, x1, y1))) => {
                format!("[{x0},{y0},{x1},{y1}]/{}x{}", self.cols, self.rows)
            }
            (None, None) => format!("{}x{}", self.cols, self.rows),
        }
    }
}

/// An object id: preload objects are `0..objects`; connection `c`'s
/// inserts are `(c + 1) << 40 | k`.
pub type ObjId = u64;

#[derive(Debug, Clone, Copy)]
pub enum Op {
    Browse { view: usize, check: bool },
    Insert { id: ObjId, rect: Rect },
    Remove { id: ObjId, rect: Rect },
}

impl Op {
    pub fn is_write(&self) -> bool {
        !matches!(self, Op::Browse { .. })
    }

    /// The request line the client sends (no trailing newline).
    pub fn line(&self, tenant: &str, views: &[View]) -> String {
        match *self {
            Op::Browse { view, .. } => {
                let v = &views[view];
                match v.region {
                    None => format!(
                        r#"{{"tenant":"{tenant}","op":"browse","cols":{},"rows":{}}}"#,
                        v.cols, v.rows
                    ),
                    Some((x0, y0, x1, y1)) => format!(
                        r#"{{"tenant":"{tenant}","op":"browse","cols":{},"rows":{},"region":[{x0},{y0},{x1},{y1}]}}"#,
                        v.cols, v.rows
                    ),
                }
            }
            Op::Insert { rect, .. } => write_line(tenant, "insert", &rect),
            Op::Remove { rect, .. } => write_line(tenant, "remove", &rect),
        }
    }
}

fn write_line(tenant: &str, op: &str, r: &Rect) -> String {
    // `{}` prints the shortest string that parses back to the same f64,
    // so the server snaps exactly the rectangle the checker holds.
    format!(
        r#"{{"tenant":"{tenant}","op":"{op}","rect":[{},{},{},{}]}}"#,
        r.xlo(),
        r.ylo(),
        r.xhi(),
        r.yhi()
    )
}

/// The seeded inputs of one run.
pub struct Inputs {
    pub spec: Spec,
    pub seed: u64,
    /// Objects the server starts from, by id (`0..objects`).
    pub base: Vec<Rect>,
    /// The query sets, then the regional viewports, then the probe-only
    /// query sets.
    pub views: Vec<View>,
    zipf: Zipf,
    /// View index of Zipf rank `k` (rank 1 is the most popular).
    ranked: Vec<usize>,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let spec = workload.spec();
        // The catalog and the viewports' geometry are fixed: the seed
        // drives the traffic over them (popularity, order and the
        // objects written). Accuracy, memory and preload depend on the
        // catalog's few world-sized records and on which regions are
        // zoomed, and drawn anew per seed they swing from run to run.
        let base = adl_like(&AdlConfig {
            count: spec.objects,
            ..AdlConfig::default()
        })
        .rects()
        .to_vec();
        let grid = grid();
        let qset = |n: usize| View {
            cols: grid.nx() / n,
            rows: grid.ny() / n,
            region: None,
            qset: Some(n),
        };
        let mut views: Vec<View> = spec.qsets.iter().map(|&n| qset(n)).collect();
        let mut rng = StdRng::seed_from_u64(stream(0, 2));
        let (cols, rows) = spec.regional_tiles;
        while views.len() < spec.qsets.len() + spec.regional {
            // Regional zooms: aligned regions at least one cell per tile,
            // always the same tile count, so every miss costs alike.
            let w = rng.gen_range(cols * 2..=grid.nx() / 2);
            let h = rng.gen_range(rows * 2..=grid.ny() / 2);
            let x0 = rng.gen_range(0..=grid.nx() - w);
            let y0 = rng.gen_range(0..=grid.ny() - h);
            let v = View {
                cols,
                rows,
                region: Some((x0, y0, x0 + w, y0 + h)),
                qset: None,
            };
            if !views.contains(&v) {
                views.push(v);
            }
        }
        let mut ranked: Vec<usize> = (spec.qsets.len()..views.len()).collect();
        views.extend(spec.probe_qsets.iter().map(|&n| qset(n)));
        shuffle(&mut ranked, &mut StdRng::seed_from_u64(stream(seed, 2)));
        let zipf = Zipf::new(ranked.len(), ZIPF_S);
        Inputs {
            spec,
            seed,
            base,
            views,
            zipf,
            ranked,
        }
    }

    /// The viewports the connections browse (probe-only query sets
    /// excluded).
    pub fn served_views(&self) -> std::ops::Range<usize> {
        0..self.spec.qsets.len() + self.spec.regional
    }

    /// The per-connection script generator for connection `conn`.
    pub fn script(&self, conn: usize) -> Script {
        let mix = self.spec.mixes[conn];
        // Only one connection writes, so every base object is its to
        // remove.
        let pool: Vec<(ObjId, Rect)> = if mix.removes == 0 {
            Vec::new()
        } else {
            self.base
                .iter()
                .enumerate()
                .map(|(id, r)| (id as ObjId, *r))
                .collect()
        };
        Script {
            conn,
            mix,
            rng: StdRng::seed_from_u64(stream(self.seed, 100 + conn as u64)),
            pool,
            next_insert: 0,
            round: 0,
        }
    }

    fn zipf_view(&self, rng: &mut StdRng) -> usize {
        self.ranked[self.zipf.sample(rng) - 1]
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// A fresh object for a feed or a curation insert: mostly local records
/// (0.01°–0.5°), some regional ones (0.5°–10°), anywhere in the world.
pub fn new_object(rng: &mut StdRng) -> Rect {
    let e = if rng.gen_bool(0.8) {
        (rng.gen_range(0.01f64.ln()..0.5f64.ln())).exp()
    } else {
        (rng.gen_range(0.5f64.ln()..10f64.ln())).exp()
    };
    let (w, h) = (e, e * rng.gen_range(0.5..2.0));
    let x = rng.gen_range(0.0..360.0 - w);
    let y = rng.gen_range(0.0..180.0 - h);
    Rect::new(x, y, x + w, y + h).expect("ordered")
}

/// One connection's closed-loop script, generated a round at a time.
pub struct Script {
    pub conn: usize,
    mix: Mix,
    rng: StdRng,
    pool: Vec<(ObjId, Rect)>,
    next_insert: u64,
    pub round: usize,
}

impl Script {
    /// The next whole round of operations.
    pub fn next_round(&mut self, inputs: &Inputs) -> Vec<Op> {
        let spec = &inputs.spec;
        let mut browses = Vec::new();
        if self.mix.qsets_each_round {
            for view in 0..spec.qsets.len() {
                browses.push(Op::Browse { view, check: false });
            }
        }
        for _ in 0..self.mix.zipf_browses {
            let view = inputs.zipf_view(&mut self.rng);
            browses.push(Op::Browse { view, check: false });
        }
        let mut writes = Vec::new();
        let mut inserted = Vec::with_capacity(self.mix.inserts);
        for _ in 0..self.mix.inserts {
            let id = ((self.conn as u64 + 1) << 40) | self.next_insert;
            self.next_insert += 1;
            let rect = new_object(&mut self.rng);
            inserted.push((id, rect));
            writes.push(Op::Insert { id, rect });
        }
        for _ in 0..self.mix.removes {
            let i = self.rng.gen_range(0..self.pool.len());
            let (id, rect) = self.pool.swap_remove(i);
            writes.push(Op::Remove { id, rect });
        }
        shuffle(&mut browses, &mut self.rng);
        shuffle(&mut writes, &mut self.rng);
        // Each write is followed by a browse, so a writing connection
        // browses a version no browse has read yet.
        let mut ops = Vec::with_capacity(browses.len() + writes.len());
        let (mut w, mut b) = (writes.into_iter(), browses.into_iter());
        loop {
            let (next_w, next_b) = (w.next(), b.next());
            if next_w.is_none() && next_b.is_none() {
                break;
            }
            ops.extend(next_w.into_iter().chain(next_b));
        }
        // This round's inserts become removable from the next round on,
        // so a remove never overtakes the insert it undoes.
        self.pool.extend(inserted);
        // Kept for checking: each round's browse of one query set,
        // cycling through them, and the round's first regional browse.
        let marked = (self.mix.qsets_each_round && !spec.qsets.is_empty())
            .then(|| self.round % spec.qsets.len());
        let mut regional_marked = false;
        for op in &mut ops {
            if let Op::Browse { view, check } = op {
                let regional = *view >= spec.qsets.len();
                *check = Some(*view) == marked || (regional && !regional_marked);
                regional_marked |= regional;
            }
        }
        self.round += 1;
        ops
    }
}
