//! The original `Vec<Line>` cache with heap `Box<[bool]>` per-byte
//! metadata: the differential-test oracle for the flat word-level
//! [`Cache`](protean_sim::Cache). Not used on any simulation path.

use protean_sim::{AccessResult, CacheConfig};

/// One cache line of the boxed-`bool` oracle: tag plus per-byte metadata.
#[derive(Clone, Debug)]
struct BoolLine {
    /// Line-aligned address (`addr & !(line_bytes-1)`), or `None` if
    /// invalid.
    tag: Option<u64>,
    /// LRU timestamp.
    lru: u64,
    /// Per-byte metadata (ProtISA protection bits / SPT shadow bits).
    meta: Box<[bool]>,
}

/// The boxed-`bool` oracle cache (see the module docs).
#[derive(Clone, Debug)]
pub struct BoolMetaCache {
    cfg: CacheConfig,
    /// All lines in one contiguous allocation: way `w` of set `s` lives
    /// at index `s * ways + w`.
    lines: Vec<BoolLine>,
    /// Metadata value for bytes of a newly filled line.
    meta_fill: bool,
    clock: u64,
    /// Hit counter.
    pub hits: u64,
    /// Miss counter.
    pub misses: u64,
}

impl BoolMetaCache {
    /// Creates an empty oracle cache (same contract as `Cache::new`).
    pub fn new(cfg: CacheConfig, meta_fill: bool) -> BoolMetaCache {
        let lines = (0..cfg.sets() * cfg.ways)
            .map(|_| BoolLine {
                tag: None,
                lru: 0,
                meta: vec![meta_fill; cfg.line_bytes].into_boxed_slice(),
            })
            .collect();
        BoolMetaCache {
            cfg,
            lines,
            meta_fill,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The ways of set `idx`, in way order.
    fn set(&self, idx: usize) -> &[BoolLine] {
        let base = idx * self.cfg.ways;
        &self.lines[base..base + self.cfg.ways]
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes as u64 - 1)
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr / self.cfg.line_bytes as u64) % self.cfg.sets() as u64) as usize
    }

    /// Residency probe (no LRU update, no allocation).
    pub fn probe(&self, addr: u64) -> bool {
        let la = self.line_addr(addr);
        self.set(self.set_index(addr))
            .iter()
            .any(|l| l.tag == Some(la))
    }

    /// Accesses (and allocates on miss) the line containing `addr`,
    /// updating LRU (same contract as `Cache::access`).
    pub fn access(&mut self, addr: u64) -> AccessResult {
        self.clock += 1;
        let la = self.line_addr(addr);
        let set_idx = self.set_index(addr);
        let clock = self.clock;
        let meta_fill = self.meta_fill;
        let base = set_idx * self.cfg.ways;
        let set = &mut self.lines[base..base + self.cfg.ways];
        if let Some(line) = set.iter_mut().find(|l| l.tag == Some(la)) {
            line.lru = clock;
            self.hits += 1;
            return AccessResult {
                hit: true,
                evicted: None,
            };
        }
        self.misses += 1;
        // Victim: invalid way, else LRU.
        let victim = set
            .iter_mut()
            .min_by_key(|l| (l.tag.is_some(), l.lru))
            .expect("cache set has ways");
        let evicted = victim.tag.take();
        victim.tag = Some(la);
        victim.lru = clock;
        victim.meta.fill(meta_fill);
        AccessResult {
            hit: false,
            evicted,
        }
    }

    /// Invalidates the line containing `addr`, dropping its metadata.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let la = self.line_addr(addr);
        let set_idx = self.set_index(addr);
        let meta_fill = self.meta_fill;
        let base = set_idx * self.cfg.ways;
        for line in &mut self.lines[base..base + self.cfg.ways] {
            if line.tag == Some(la) {
                line.tag = None;
                line.meta.fill(meta_fill);
                return true;
            }
        }
        false
    }

    /// ORs the metadata bits of `[addr, addr+size)` (non-resident bytes
    /// contribute `meta_fill`).
    pub fn meta_any(&self, addr: u64, size: u64) -> bool {
        self.meta_fold(addr, size, false, true, |acc, b| acc | b)
    }

    /// ANDs the metadata bits of `[addr, addr+size)` (non-resident bytes
    /// contribute `meta_fill`).
    pub fn meta_all(&self, addr: u64, size: u64) -> bool {
        self.meta_fold(addr, size, true, false, |acc, b| acc & b)
    }

    /// Folds `f` over the `size` metadata bits starting at `addr`, with
    /// the wrapping byte-count contract documented on
    /// `Cache::meta_any`. A non-resident chunk's contribution is a
    /// *single* fold of `meta_fill` (OR and AND are idempotent, so
    /// folding it once per byte — as the original code did — computes
    /// the same value for `line_bytes`× the work), and the walk stops
    /// early once the accumulator reaches `saturated` (a value `f` can
    /// never leave).
    fn meta_fold(
        &self,
        addr: u64,
        size: u64,
        init: bool,
        saturated: bool,
        f: impl Fn(bool, bool) -> bool,
    ) -> bool {
        let mut acc = init;
        let mut a = addr;
        let mut remaining = size;
        while remaining > 0 {
            if acc == saturated {
                return acc;
            }
            let la = self.line_addr(a);
            let offset = a - la;
            let chunk = (self.cfg.line_bytes as u64 - offset).min(remaining);
            let set = self.set(self.set_index(a));
            match set.iter().find(|l| l.tag == Some(la)) {
                Some(line) => {
                    for i in 0..chunk {
                        acc = f(acc, line.meta[(offset + i) as usize]);
                    }
                }
                None => acc = f(acc, self.meta_fill),
            }
            a = a.wrapping_add(chunk);
            remaining -= chunk;
        }
        acc
    }

    /// Sets the metadata bits of `[addr, addr+size)` on resident lines
    /// (same contract as `Cache::meta_set`).
    pub fn meta_set(&mut self, addr: u64, size: u64, value: bool) {
        let line_bytes = self.cfg.line_bytes as u64;
        let mut a = addr;
        let mut remaining = size;
        while remaining > 0 {
            let la = self.line_addr(a);
            let offset = a - la;
            let chunk = (line_bytes - offset).min(remaining);
            let set_idx = self.set_index(a);
            let base = set_idx * self.cfg.ways;
            if let Some(line) = self.lines[base..base + self.cfg.ways]
                .iter_mut()
                .find(|l| l.tag == Some(la))
            {
                for i in 0..chunk {
                    line.meta[(offset + i) as usize] = value;
                }
            }
            a = a.wrapping_add(chunk);
            remaining -= chunk;
        }
    }

    /// The adversary-visible tag state (same contract as
    /// `Cache::tag_observation`).
    pub fn tag_observation(&self) -> Vec<u64> {
        let mut obs = Vec::with_capacity(self.cfg.sets() * (self.cfg.ways + 1));
        let mut resident: Vec<(u64, u64)> = Vec::with_capacity(self.cfg.ways);
        for (i, set) in self.lines.chunks_exact(self.cfg.ways).enumerate() {
            resident.clear();
            resident.extend(set.iter().filter_map(|l| l.tag.map(|t| (l.lru, t))));
            resident.sort_unstable();
            obs.push(i as u64);
            obs.extend(resident.iter().map(|&(_, t)| t));
        }
        obs
    }
}
