//! Output checks against exact counts computed apart from the serving
//! path: `datagen::exact` difference arrays over the snapped objects the
//! benchmark itself tracks.

use std::collections::HashMap;

use euler_datagen::exact::{ground_truth, GroundTruth};
use euler_grid::{Grid, SnappedRect, Snapper};
use euler_metrics::ErrorAccumulator;

use crate::wire::{find, ConnLog, Outcome, Sample};
use crate::workload::{Inputs, ObjId, Op};

/// What the checks found.
pub struct Verdict {
    pub errors: Vec<String>,
    pub replies_checked: usize,
    pub tiles_checked: usize,
    /// Σ|r−e|/Σr over the survey's contains/contained/overlap counts.
    pub tile_are: f64,
}

/// Parses the `counts` array of a browse reply.
fn served_counts(reply: &[u8]) -> Option<Vec<[i64; 4]>> {
    let start = find(reply, br#""counts":["#)? + br#""counts":["#.len();
    let mut out = Vec::new();
    let mut cur = [0i64; 4];
    let (mut k, mut num, mut in_num, mut depth) = (0usize, 0i64, false, 0i32);
    for &b in &reply[start..] {
        match b {
            b'0'..=b'9' => {
                num = num * 10 + (b - b'0') as i64;
                in_num = true;
            }
            b'[' => {
                depth += 1;
                k = 0;
            }
            b',' | b']' => {
                if in_num {
                    if k >= 4 {
                        return None;
                    }
                    cur[k] = num;
                    k += 1;
                    num = 0;
                    in_num = false;
                }
                if b == b']' {
                    depth -= 1;
                    if depth < 0 {
                        return Some(out);
                    }
                    if k != 4 {
                        return None;
                    }
                    out.push(cur);
                    k = 0;
                }
            }
            _ => return None,
        }
    }
    None
}

/// Snapped objects alive at each version, replayed from the
/// acknowledged write log.
struct Ledger {
    snapper: Snapper,
    alive: HashMap<ObjId, SnappedRect>,
    /// Acknowledged writes by version, ascending.
    log: Vec<(u64, Op)>,
    applied: usize,
    /// The objects alive at the last version asked for.
    objects: Option<(u64, Vec<SnappedRect>)>,
}

impl Ledger {
    fn new(grid: Grid, inputs: &Inputs, log: Vec<(u64, Op)>) -> Ledger {
        let snapper = Snapper::new(grid);
        let alive = inputs
            .base
            .iter()
            .enumerate()
            .map(|(id, r)| (id as ObjId, snapper.snap(r)))
            .collect();
        Ledger {
            snapper,
            alive,
            log,
            applied: 0,
            objects: None,
        }
    }

    /// Advances to `version` and returns the objects alive there.
    fn at(&mut self, version: u64) -> &[SnappedRect] {
        if self.objects.as_ref().is_none_or(|(v, _)| *v != version) {
            let alive = self.advance(version);
            self.objects = Some((version, alive));
        }
        &self.objects.as_ref().expect("objects just listed").1
    }

    fn advance(&mut self, version: u64) -> Vec<SnappedRect> {
        while self.applied < self.log.len() && self.log[self.applied].0 <= version {
            match self.log[self.applied].1 {
                Op::Insert { id, rect } => {
                    self.alive.insert(id, self.snapper.snap(&rect));
                }
                Op::Remove { id, .. } => {
                    self.alive.remove(&id);
                }
                Op::Browse { .. } => {}
            }
            self.applied += 1;
        }
        self.alive.values().copied().collect()
    }
}

/// Checks one served reply against exact counts, adding its
/// contains/contained/overlap to `are` when given; returns the number of
/// tiles checked.
fn check_tiles(
    label: &str,
    served: &[[i64; 4]],
    exact: &GroundTruth,
    are: Option<&mut ErrorAccumulator>,
    errors: &mut Vec<String>,
) -> usize {
    if served.len() != exact.counts().len() {
        errors.push(format!(
            "{label}: {} tiles served, {} expected",
            served.len(),
            exact.counts().len()
        ));
        return 0;
    }
    let mut bad = 0;
    for (s, e) in served.iter().zip(exact.counts()) {
        let [d, c, cd, o] = *s;
        // Served counts are clamped at zero, so the three intersecting
        // relations can only over-count. S-EulerApprox fixes N_cd ≡ 0,
        // so wherever contains and overlap are both positive nothing was
        // clamped and the sum is exact.
        let sum = c + cd + o;
        let ok = d == e.disjoint
            && sum >= e.intersecting()
            && (c <= 0 || o <= 0 || sum == e.intersecting());
        if !ok {
            bad += 1;
            if bad <= 3 {
                errors.push(format!(
                    "{label}: served [d={d} cs={c} cd={cd} o={o}] vs exact {e}"
                ));
            }
        }
    }
    if let Some(acc) = are {
        for (s, e) in served.iter().zip(exact.counts()) {
            acc.push(e.contains as f64, s[1] as f64);
            acc.push(e.contained as f64, s[2] as f64);
            acc.push(e.overlaps as f64, s[3] as f64);
        }
    }
    served.len()
}

/// Runs every check over the survey and every connection's log.
pub fn check(inputs: &Inputs, survey: &[Sample], logs: &[ConnLog]) -> Verdict {
    let grid = crate::workload::grid();
    let mut errors = Vec::new();
    let mut are = ErrorAccumulator::default();
    let (mut replies_checked, mut tiles_checked) = (0, 0);

    // Writes: every acknowledged version issued exactly once, gap-free.
    // The preload is one write per object.
    let base = inputs.base.len() as u64;
    let mut log: Vec<(u64, Op)> = logs
        .iter()
        .flat_map(|l| &l.samples)
        .filter(|s| s.op.is_write() && s.outcome == Outcome::Ok)
        .filter_map(|s| s.version.map(|v| (v, s.op)))
        .collect();
    log.sort_by_key(|(v, _)| *v);
    for (i, (v, _)) in log.iter().enumerate() {
        if *v != base + 1 + i as u64 {
            errors.push(format!(
                "acknowledged versions are not gap-free and unique: #{i} is v{v}, expected v{}",
                base + 1 + i as u64
            ));
            break;
        }
    }
    let mut ledger = Ledger::new(grid, inputs, log);

    // The survey: every served viewport once, before any write, against
    // exact counts; its replies score `tile_are` and are the reference
    // that later replies at the same version must repeat.
    let mut reference: HashMap<usize, (u64, Vec<[i64; 4]>)> = HashMap::new();
    for s in survey {
        let Op::Browse { view, .. } = s.op else {
            continue;
        };
        let label = format!("survey {}", inputs.views[view].label());
        let (Some(reply), Outcome::Ok) = (&s.reply, s.outcome) else {
            errors.push(format!("{label}: not answered ok and complete"));
            continue;
        };
        let Some(served) = served_counts(reply) else {
            errors.push(format!("{label}: unparsable counts"));
            continue;
        };
        let v = s.version.unwrap_or(0);
        let exact = ground_truth(ledger.at(v), &inputs.views[view].tiling(&grid));
        tiles_checked += check_tiles(&label, &served, &exact, Some(&mut are), &mut errors);
        replies_checked += 1;
        reference.insert(view, (v, served));
    }

    // Replies kept from the warm-up and measured rounds, by stamped
    // version: identical to the survey's at the same version, else
    // checked against the objects alive at their version.
    let mut kept: Vec<(usize, u64, usize, &[u8])> = logs
        .iter()
        .enumerate()
        .flat_map(|(conn, l)| l.samples.iter().map(move |s| (conn, s)))
        .filter_map(|(conn, s)| match (s.op, &s.reply) {
            (Op::Browse { view, .. }, Some(r)) if s.outcome == Outcome::Ok => {
                Some((conn, s.version.unwrap_or(0), view, r.as_slice()))
            }
            _ => None,
        })
        .collect();
    kept.sort_by_key(|k| k.1);
    let mut truth: HashMap<(u64, usize), GroundTruth> = HashMap::new();
    for (conn, v, view, reply) in kept {
        let label = format!("conn {conn} v{v} {}", inputs.views[view].label());
        let Some(served) = served_counts(reply) else {
            errors.push(format!("{label}: unparsable counts"));
            continue;
        };
        replies_checked += 1;
        match reference.get(&view) {
            Some((rv, first)) if *rv == v => {
                if *first != served {
                    errors.push(format!("{label}: differs from the survey's reply"));
                }
            }
            _ => {
                let exact = truth.entry((v, view)).or_insert_with(|| {
                    ground_truth(ledger.at(v), &inputs.views[view].tiling(&grid))
                });
                tiles_checked += check_tiles(&label, &served, exact, None, &mut errors);
            }
        }
    }
    Verdict {
        errors,
        replies_checked,
        tiles_checked,
        tile_are: are.are(),
    }
}
