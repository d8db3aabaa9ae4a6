//! In-memory spans recorded around calls into the stack, plus the small
//! statistics helpers every workload shares.
//!
//! A span holds its name, an optional tag (the request kind on `serve`),
//! the entity or request id, its parent span and its start and end. Spans
//! stay in memory while a run measures and are written out once at the
//! end. With tracing off, [`Tracer::begin`] returns `None` without reading
//! the clock, so the untraced runs pay one branch per call site.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub tag: &'static str,
    pub id: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Token of an open span (`None` when tracing is off).
pub type Tok = Option<u32>;

/// The span recorder of one run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between spans (traced and untraced passes
    /// of one run alternate).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "cannot toggle tracing inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, id: u64) -> Tok {
        if !self.on {
            return None;
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tag: "",
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self, tok: Tok) {
        if let Some(idx) = tok {
            let now = self.now_ns();
            let span = &mut self.spans[idx as usize];
            span.end_ns = now;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Labels an open or closed span (the request kind of a dispatch).
    pub fn tag(&mut self, tok: Tok, tag: &'static str) {
        if let Some(idx) = tok {
            self.spans[idx as usize].tag = tag;
        }
    }

    /// Timing statistics over the spans `pick` selects.
    pub fn layer(&self, pick: impl Fn(&Span) -> bool) -> LayerStats {
        let durs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| pick(s))
            .map(Span::dur_us)
            .collect();
        LayerStats::of(durs)
    }

    /// Timing statistics of every span named `name`.
    pub fn named(&self, name: &str) -> LayerStats {
        self.layer(|s| s.name == name)
    }

    /// Share of the time inside root spans (an entity's loop, a request's
    /// life) that no child span covers: the root's self time over its
    /// duration, summed over roots.
    pub fn unaccounted_share(&self) -> f64 {
        let mut root_ns = 0u64;
        let mut child_ns = 0u64;
        for s in &self.spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            if s.parent == NO_PARENT {
                root_ns += dur;
            } else if self.spans[s.parent as usize].parent == NO_PARENT {
                child_ns += dur;
            }
        }
        if root_ns == 0 {
            return 0.0;
        }
        root_ns.saturating_sub(child_ns) as f64 / root_ns as f64
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.tag, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Calls, busy time and median / tail duration of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerStats {
    pub calls: usize,
    pub busy_us: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl LayerStats {
    pub fn of(mut durs_us: Vec<f64>) -> Self {
        durs_us.sort_by(f64::total_cmp);
        LayerStats {
            calls: durs_us.len(),
            busy_us: durs_us.iter().sum(),
            p50_us: percentile(&durs_us, 0.5),
            p99_us: percentile(&durs_us, tail_rank(durs_us.len())),
        }
    }
}

/// Nearest-rank percentile of an ascending sample (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The tail percentile reported as "p99": 0.99 when at least ten samples
/// lie beyond it, otherwise the highest percentile that keeps ten beyond.
pub fn tail_rank(n: usize) -> f64 {
    if n >= 1000 {
        0.99
    } else if n > 20 {
        1.0 - 10.0 / n as f64
    } else {
        0.5
    }
}

/// Median and tail of a latency sample, with the percentile actually used.
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_rank: f64,
}

pub fn tail_of(mut xs: Vec<f64>) -> Tail {
    xs.sort_by(f64::total_cmp);
    let rank = tail_rank(xs.len());
    Tail {
        n: xs.len(),
        p50: percentile(&xs, 0.5),
        tail: percentile(&xs, rank),
        tail_rank: rank,
    }
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    if xs.is_empty() {
        return 0.0;
    }
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own seeded generator for schedules and
/// orderings (independent of the generators inside `cr-data`).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}
