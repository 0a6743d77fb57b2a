//! Seeded inputs: content pools, virtual-time schedules and op streams.
//!
//! Everything a workload feeds the store is built here from `--seed` before
//! any timing starts, together with the driver's own model of what every
//! read must return. The same `(seed, scale)` gives byte-identical inputs;
//! `Inputs::digest` is the proof `compare` checks.

use edc::compress::checksum64;
use edc::datagen::rng::splitmix64;
use edc::datagen::{BlockClass, ContentGenerator, DataMix, DupStream, Rng64, Zipfian};
use std::collections::HashMap;

pub const BLOCK: u64 = 4096;

/// "No write has reached this slot": the read must return zeroes.
pub const ZERO_UNIT: u32 = u32::MAX;

/// Which *kind* of content goes where is a workload parameter, not noise:
/// the class of every pool unit, the unit each write carries and the dedup
/// stream's duplicate pattern are drawn with this fixed seed. `--seed`
/// decides the bytes inside every unit, the addresses and their order. So
/// the compressibility mix per selector band — and with it the space
/// metrics — is the same for every seed to within what the bytes change.
const CLASS_SEED: u64 = 0x00ED_CC1A_55E5;

/// The fixed stream write payloads are picked from (see `CLASS_SEED`).
fn unit_picker() -> Rng64 {
    Rng64::seed_from_u64(CLASS_SEED ^ 0xA5A5)
}

/// Odd prime multiplier: `i * SCATTER % n` permutes `0..n` for every `n` it
/// does not divide, which scatters Zipf ranks and dedup stream positions
/// across the address space (the `bench-dedup` permutation).
const SCATTER: u64 = 2_654_435_761;

/// Equal-sized content units a workload draws its write payloads from.
pub struct Pool {
    unit_bytes: usize,
    data: Vec<u8>,
    /// `checksum64(unit, unit_bytes)`: what the ring reports for a read.
    sums: Vec<u64>,
    /// Units of a class the sampling estimator writes through (`Media`,
    /// `Random`); empty for pools not built from a `DataMix`.
    incompressible: Vec<bool>,
    zero: Vec<u8>,
}

impl Pool {
    fn new(unit_bytes: usize, data: Vec<u8>) -> Pool {
        let sums = data
            .chunks_exact(unit_bytes)
            .map(|u| checksum64(u, unit_bytes as u64))
            .collect();
        Pool {
            unit_bytes,
            data,
            sums,
            incompressible: Vec::new(),
            zero: vec![0; unit_bytes],
        }
    }

    /// `units` units whose classes follow `mix` (fixed class sequence) and
    /// whose bytes follow `seed`.
    fn from_mix(seed: u64, mix: &DataMix, units: usize, unit_bytes: usize) -> Pool {
        let mut class_rng = Rng64::seed_from_u64(CLASS_SEED);
        let mut gen = ContentGenerator::pure(seed, BlockClass::Zero);
        let mut data = Vec::with_capacity(units * unit_bytes);
        let mut incompressible = Vec::with_capacity(units);
        for _ in 0..units {
            let class = mix.sample(&mut class_rng);
            incompressible.push(class.is_incompressible());
            data.extend_from_slice(&gen.block_of(class, unit_bytes));
        }
        Pool {
            incompressible,
            ..Pool::new(unit_bytes, data)
        }
    }

    /// Four-symbol content (`bench-heat`'s payload): Lzf shrinks it a
    /// little and Deflate a lot, so recompression has headroom that
    /// survives the quantized allocator.
    fn acgt(seed: u64, units: usize, unit_bytes: usize) -> Pool {
        let mut x = splitmix64(seed) | 1;
        let data = (0..units * unit_bytes)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                b"acgt"[((x >> 60) & 3) as usize]
            })
            .collect();
        Pool::new(unit_bytes, data)
    }

    pub fn unit_bytes(&self) -> usize {
        self.unit_bytes
    }

    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// Bytes of unit `i`; `ZERO_UNIT` is the all-zero unit.
    pub fn unit(&self, i: u32) -> &[u8] {
        if i == ZERO_UNIT {
            return &self.zero;
        }
        let at = i as usize * self.unit_bytes;
        &self.data[at..at + self.unit_bytes]
    }

    fn compressible(&self, i: u32) -> bool {
        !self
            .incompressible
            .get(i as usize)
            .copied()
            .unwrap_or(false)
    }

    /// `checksum64(unit(i), unit_bytes)`.
    pub fn sum(&self, i: u32) -> u64 {
        if i == ZERO_UNIT {
            checksum64(&self.zero, self.unit_bytes as u64)
        } else {
            self.sums[i as usize]
        }
    }
}

/// One call into the store. For a write `unit` is the payload; for a read
/// it is what the model says must come back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRec {
    pub now_ns: u64,
    pub offset: u64,
    pub unit: u32,
    pub write: bool,
}

pub struct Inputs {
    pub pool: Pool,
    /// Bytes between the offsets of consecutive slots (≥ one unit).
    pub slot_stride: u64,
    /// Writes that fill the store during set-up.
    pub prefill: Vec<OpRec>,
    /// Executed and verified, never timed (5 % of the measured ops; for
    /// `ingest_bursty` the pass that fills the store).
    pub warmup: Vec<OpRec>,
    pub rounds: Vec<Vec<OpRec>>,
    /// Expected unit per slot once every op above has run.
    pub model: Vec<u32>,
    /// Virtual time of the last op.
    pub end_ns: u64,
    pub digest: u64,
}

impl Inputs {
    fn seal(mut self) -> Inputs {
        let mut h = splitmix64(self.pool.len() as u64 ^ self.slot_stride);
        let mut fold = |v: u64| h = splitmix64(h ^ v);
        self.pool.sums.iter().for_each(|&s| fold(s));
        for op in self
            .prefill
            .iter()
            .chain(&self.warmup)
            .chain(self.rounds.iter().flatten())
        {
            fold(op.now_ns);
            fold(op.offset);
            fold(u64::from(op.unit) << 1 | u64::from(op.write));
        }
        self.model.iter().for_each(|&u| fold(u64::from(u)));
        self.end_ns = self
            .rounds
            .iter()
            .flatten()
            .chain(&self.prefill)
            .map(|o| o.now_ns)
            .max()
            .unwrap_or(0);
        self.digest = h;
        self
    }

    pub fn measured_ops(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }
}

/// `base * scale`, at least `min`.
pub fn scaled(base: usize, scale: f64, min: usize) -> usize {
    ((base as f64 * scale).round() as usize).max(min)
}

/// Writes per cycle of the bursty schedule: 1024 idle, 2048 medium, 1024
/// burst (256 / 512 / 256 SD runs).
const BURSTY_CYCLE: usize = 4096;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Band {
    Idle,
    Medium,
    Burst,
}

/// Band of the `i`-th 16 KiB write and how far (0..1) into the band it is.
fn bursty_band(i: usize) -> (Band, f64) {
    match i % BURSTY_CYCLE {
        k @ 0..1024 => (Band::Idle, k as f64 / 1024.0),
        k @ 1024..3072 => (Band::Medium, (k - 1024) as f64 / 2048.0),
        k => (Band::Burst, (k - 3072) as f64 / 1024.0),
    }
}

/// Virtual-time step of the bursty schedule for the `i`-th 16 KiB write
/// (4 page-units): idle ≈ 800 calculated IOPS (Deflate band), medium
/// ≈ 2 700 (Lzf band), burst ≈ 8 000 (above the ladder: write-through).
/// The monitor's window is 1 s of this virtual time, so the band a run
/// lands in is an input. Bands are this long because a shorter burst never
/// fills the window: at 64 runs per band the selector would not once reach
/// write-through.
fn bursty_step_ns(i: usize) -> u64 {
    match bursty_band(i).0 {
        Band::Idle => 5_000_000,
        Band::Medium => 1_481_481,
        Band::Burst => 500_000,
    }
}

/// `passes` sequential passes of 16 KiB writes over `slots` slots. `slots`
/// is a whole number of schedule cycles, so every pass meets the same bands
/// at the same addresses and does the same work.
fn bursty_passes(pool: &Pool, slots: usize, passes: usize) -> Vec<Vec<OpRec>> {
    assert_eq!(
        slots % BURSTY_CYCLE,
        0,
        "a pass must be whole schedule cycles"
    );
    let unit = pool.unit_bytes() as u64;
    let mut pick = unit_picker();
    let mut now = 0u64;
    (0..passes)
        .map(|_| {
            (0..slots)
                .map(|s| {
                    now += bursty_step_ns(s);
                    OpRec {
                        now_ns: now,
                        offset: s as u64 * unit,
                        unit: pick.below(pool.len() as u64) as u32,
                        write: true,
                    }
                })
                .collect()
        })
        .collect()
}

fn model_after(slots: usize, stride: u64, streams: &[&[OpRec]]) -> Vec<u32> {
    let mut model = vec![ZERO_UNIT; slots];
    for op in streams.iter().flat_map(|s| s.iter()).filter(|o| o.write) {
        model[(op.offset / stride) as usize] = op.unit;
    }
    model
}

const PRIMARY_POOL_UNITS: usize = 2048;
const UNIT_16K: usize = 16 << 10;

/// Slots of the store `ingest_bursty` overwrites and both read workloads
/// prefill: one cycle of the bursty schedule (1024 runs, 64 MiB logical,
/// 16x the default cache).
const BURSTY_SLOTS: usize = BURSTY_CYCLE;

/// `ingest_bursty`: one untimed pass fills the store (the warm-up), then 14
/// overwrite passes, each one round. Every measured pass therefore does the
/// same thing — supersede a full store, band by band — which is what lets
/// the rounds be compared; the first fill, which releases no slot, is not
/// among them.
pub fn ingest_bursty(seed: u64, scale: f64) -> Inputs {
    let pool = Pool::from_mix(
        seed,
        &DataMix::primary_storage(),
        PRIMARY_POOL_UNITS,
        UNIT_16K,
    );
    let mut rounds = bursty_passes(&pool, BURSTY_SLOTS, 1 + scaled(14, scale, 2));
    let warmup = rounds.remove(0);
    let all: Vec<&[OpRec]> = std::iter::once(&warmup[..])
        .chain(rounds.iter().map(|r| &r[..]))
        .collect();
    let model = model_after(BURSTY_SLOTS, UNIT_16K as u64, &all);
    Inputs {
        pool,
        slot_stride: UNIT_16K as u64,
        prefill: Vec::new(),
        warmup,
        rounds,
        model,
        end_ns: 0,
        digest: 0,
    }
    .seal()
}

/// Runs in `read_hot`'s working set (the default cache holds 64).
const HOT_RUNS: usize = 48;

/// The runs `read_hot` reads: `HOT_RUNS` of those the schedule and the
/// content make compressed — second half of the idle band (Deflate) or of
/// the medium band (Lzf), every unit of a compressible class — spread
/// evenly. Write-through runs bypass the run cache, so a hot set that held
/// them would measure the device path instead.
fn hot_runs(pool: &Pool, prefill: &[OpRec]) -> Vec<usize> {
    let cached: Vec<usize> = (0..prefill.len() / 4)
        .filter(|&run| {
            let (band, at) = bursty_band(run * 4);
            band != Band::Burst
                && at >= 0.5
                && prefill[run * 4..run * 4 + 4]
                    .iter()
                    .all(|op| pool.compressible(op.unit))
        })
        .collect();
    assert!(
        cached.len() >= HOT_RUNS,
        "prefill too small for the hot set"
    );
    (0..HOT_RUNS)
        .map(|i| cached[i * cached.len() / HOT_RUNS])
        .collect()
}

/// Reads over a store prefilled by one bursty cycle. `hot` draws Zipf(0.99)
/// over the 192 slots of `hot_runs`; otherwise uniform over every slot.
fn reads(seed: u64, scale: f64, hot: bool, ops_per_round: usize) -> Inputs {
    const ROUNDS: usize = 15;
    let pool = Pool::from_mix(
        seed,
        &DataMix::primary_storage(),
        PRIMARY_POOL_UNITS,
        UNIT_16K,
    );
    let slots = BURSTY_SLOTS;
    let mut rng = Rng64::seed_from_u64(seed ^ 0x2);
    let prefill = bursty_passes(&pool, slots, 1).remove(0);
    let model = model_after(slots, UNIT_16K as u64, &[&prefill]);
    let mut now = prefill.last().map_or(0, |o| o.now_ns);
    let hot_set = hot_runs(&pool, &prefill);
    let zipf = Zipfian::new(HOT_RUNS * 4, 0.99);
    let mut draw = |rng: &mut Rng64| {
        let slot = if hot {
            // rank -> (run, quarter of the run), scattered over the set.
            let r = (zipf.sample(rng) as u64 * SCATTER % (HOT_RUNS as u64 * 4)) as usize;
            hot_set[r / 4] * 4 + r % 4
        } else {
            rng.below_usize(slots)
        };
        now += 100_000;
        OpRec {
            now_ns: now,
            offset: (slot * UNIT_16K) as u64,
            unit: model[slot],
            write: false,
        }
    };
    let n = scaled(ops_per_round, scale, 200);
    let warmup = (0..n * ROUNDS / 20).map(|_| draw(&mut rng)).collect();
    let rounds = (0..ROUNDS)
        .map(|_| (0..n).map(|_| draw(&mut rng)).collect())
        .collect();
    Inputs {
        pool,
        slot_stride: UNIT_16K as u64,
        prefill,
        warmup,
        rounds,
        model,
        end_ns: 0,
        digest: 0,
    }
    .seal()
}

pub fn read_hot(seed: u64, scale: f64) -> Inputs {
    reads(seed, scale, true, 300_000)
}

pub fn read_cold(seed: u64, scale: f64) -> Inputs {
    reads(seed, scale, false, 4_400)
}

/// `oltp_ring`: 8 KiB ops, 70 % writes, Zipf(0.9) over 128 MiB, 400 µs
/// virtual step (2 page-units per op and half the ops per shard: each
/// shard's monitor sees ≈ 2 500 calculated IOPS, the Lzf band).
pub fn oltp_ring(seed: u64, scale: f64) -> Inputs {
    const ROUNDS: usize = 30;
    const UNIT: usize = 8 << 10;
    const SLOTS: usize = 16_384;
    let pool = Pool::from_mix(seed, &DataMix::oltp(), 2048, UNIT);
    let zipf = Zipfian::new(SLOTS, 0.9);
    let mut rng = Rng64::seed_from_u64(seed ^ 0x3);
    let mut pick = unit_picker();
    let mut model = vec![ZERO_UNIT; SLOTS];
    let mut now = 0u64;
    let mut draw = |rng: &mut Rng64| {
        let slot = (zipf.sample(rng) as u64 * SCATTER % SLOTS as u64) as usize;
        now += 400_000;
        let write = rng.chance(0.7);
        if write {
            model[slot] = pick.below(pool.len() as u64) as u32;
        }
        OpRec {
            now_ns: now,
            offset: (slot * UNIT) as u64,
            unit: model[slot],
            write,
        }
    };
    let n = scaled(15_000, scale, 400);
    let warmup = (0..n * ROUNDS / 20).map(|_| draw(&mut rng)).collect();
    let rounds = (0..ROUNDS)
        .map(|_| (0..n).map(|_| draw(&mut rng)).collect())
        .collect();
    Inputs {
        pool,
        slot_stride: UNIT as u64,
        prefill: Vec::new(),
        warmup,
        rounds,
        model,
        end_ns: 0,
        digest: 0,
    }
    .seal()
}

/// `ingest_dedup`: a `DupStream` of 4 KiB Text blocks (40 % duplicates,
/// recency skew 0.99) written once each at scattered offsets, 2 ms apart.
/// Every round replays the same stream into a fresh store, so rounds do
/// identical work.
pub fn ingest_dedup(seed: u64, scale: f64) -> Inputs {
    const ROUNDS: usize = 9;
    let n = scaled(11_000, scale, 400);
    // The duplicate pattern comes from a fixed-seed `DupStream` (interned:
    // `ids[i]` is the unique block written at position i); the bytes of
    // every unique block come from `--seed`.
    let mut pattern = DupStream::new(CLASS_SEED, DataMix::pure(BlockClass::Text), 0.40, 0.99);
    let mut seen: HashMap<Vec<u8>, u32> = HashMap::new();
    let ids: Vec<u32> = (0..n)
        .map(|_| {
            let next = seen.len() as u32;
            *seen.entry(pattern.block(BLOCK as usize)).or_insert(next)
        })
        .collect();
    let uniques = seen.len();
    drop((seen, pattern));
    let mut text = ContentGenerator::pure(seed, BlockClass::Text);
    let data = (0..uniques)
        .flat_map(|_| text.block_of(BlockClass::Text, BLOCK as usize))
        .collect();
    let pool = Pool::new(BLOCK as usize, data);
    let round: Vec<OpRec> = ids
        .iter()
        .enumerate()
        .map(|(i, &unit)| OpRec {
            now_ns: (i as u64 + 1) * 2_000_000,
            offset: (i as u64 * SCATTER % n as u64) * BLOCK,
            unit,
            write: true,
        })
        .collect();
    let model = model_after(n, BLOCK, &[&round]);
    Inputs {
        pool,
        slot_stride: BLOCK,
        prefill: Vec::new(),
        warmup: round[..n / 20].to_vec(),
        rounds: vec![round; ROUNDS],
        model,
        end_ns: 0,
        digest: 0,
    }
    .seal()
}

/// Blocks between consecutive ranks' runs in `heat_recompress`: the gap
/// keeps the SD from merging neighbours and equals the shard extent.
pub const HEAT_SLOT_BLOCKS: u64 = 8;
/// Virtual step per op: 4 page-units every 2 ms.
pub const HEAT_STEP_NS: u64 = 2_000_000;
/// Idle gap before every recompress pass: three heat half-lives.
pub const HEAT_IDLE_GAP_NS: u64 = 3_000_000_000;

/// `heat_recompress`: Zipf(0.99) over 16 KiB runs, two reads per write, in
/// rounds; the runner follows every round with the idle gap and one pass.
pub fn heat_recompress(seed: u64, scale: f64) -> Inputs {
    const ROUNDS: usize = 13;
    const RANKS: usize = 4096;
    let pool = Pool::acgt(seed, 1024, UNIT_16K);
    let stride = HEAT_SLOT_BLOCKS * BLOCK;
    let mut rng = Rng64::seed_from_u64(seed ^ 0x5);
    let mut pick = unit_picker();
    let mut now = 0u64;
    let mut model = vec![ZERO_UNIT; RANKS];
    let prefill: Vec<OpRec> = (0..RANKS)
        .map(|rank| {
            now += HEAT_STEP_NS;
            model[rank] = pick.below(pool.len() as u64) as u32;
            OpRec {
                now_ns: now,
                offset: rank as u64 * stride,
                unit: model[rank],
                write: true,
            }
        })
        .collect();
    let zipf = Zipfian::new(RANKS, 0.99);
    let mut draw = |rng: &mut Rng64, now: &mut u64| {
        let rank = (zipf.sample(rng) as u64 * SCATTER % RANKS as u64) as usize;
        *now += HEAT_STEP_NS;
        let write = rng.chance(1.0 / 3.0);
        if write {
            model[rank] = pick.below(pool.len() as u64) as u32;
        }
        OpRec {
            now_ns: *now,
            offset: rank as u64 * stride,
            unit: model[rank],
            write,
        }
    };
    let n = scaled(11_000, scale, 300);
    let warmup = (0..n * ROUNDS / 20)
        .map(|_| draw(&mut rng, &mut now))
        .collect();
    let rounds = (0..ROUNDS)
        .map(|_| {
            let round = (0..n).map(|_| draw(&mut rng, &mut now)).collect();
            // Leave room for the runner's flush, gap and pass.
            now += HEAT_IDLE_GAP_NS + 2 * HEAT_STEP_NS;
            round
        })
        .collect();
    Inputs {
        pool,
        slot_stride: stride,
        prefill,
        warmup,
        rounds,
        model,
        end_ns: 0,
        digest: 0,
    }
    .seal()
}

#[cfg(test)]
mod tests {
    use super::*;

    type Gen = fn(u64, f64) -> Inputs;
    const ALL: [(&str, Gen); 6] = [
        ("ingest_bursty", ingest_bursty),
        ("read_hot", read_hot),
        ("read_cold", read_cold),
        ("oltp_ring", oltp_ring),
        ("ingest_dedup", ingest_dedup),
        ("heat_recompress", heat_recompress),
    ];

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for (name, gen) in ALL {
            let (a, b, c) = (gen(7, 0.05), gen(7, 0.05), gen(8, 0.05));
            assert_eq!(a.digest, b.digest, "{name}: same seed must repeat");
            assert_eq!(a.rounds, b.rounds, "{name}");
            assert_ne!(a.digest, c.digest, "{name}: another seed must differ");
        }
    }

    #[test]
    fn reads_expect_the_latest_write() {
        for (name, gen) in ALL {
            let inp = gen(3, 0.05);
            let mut model = vec![ZERO_UNIT; inp.model.len()];
            let all = inp
                .prefill
                .iter()
                .chain(&inp.warmup)
                .chain(inp.rounds.iter().flatten());
            for op in all {
                let slot = (op.offset / inp.slot_stride) as usize;
                if op.write {
                    model[slot] = op.unit;
                } else {
                    assert_eq!(op.unit, model[slot], "{name}: stale expectation");
                }
            }
            assert_eq!(model, inp.model, "{name}: final model");
        }
    }

    #[test]
    fn virtual_time_never_runs_backwards_within_a_round() {
        for (name, gen) in ALL {
            let inp = gen(5, 0.05);
            for round in inp.rounds.iter().chain([&inp.prefill, &inp.warmup]) {
                assert!(
                    round.windows(2).all(|w| w[0].now_ns < w[1].now_ns),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn class_mix_does_not_depend_on_the_seed() {
        let zeros = |seed| {
            let p = Pool::from_mix(seed, &DataMix::primary_storage(), 256, 4096);
            (0..256u32)
                .filter(|&i| p.unit(i).iter().all(|&b| b == 0))
                .count()
        };
        assert_eq!(zeros(1), zeros(2));
        assert!(zeros(1) > 0);
    }
}
