//! Vetted input pools. Each workload draws its programs from the seed,
//! but for the two workloads whose programs are large the draw is from
//! a pool of generator seeds vetted once with the `explore_seq` oracle:
//! that keeps every run's explored-state total in a band, and lets each
//! run check its results against a recorded digest instead of paying
//! for the oracle again. `--vet <pool>` reprints a pool.

use std::ops::Range;

use weakord_mc::machines::WoDef2Machine;
use weakord_mc::{explore_seq, Reduction};
use weakord_progs::gen::{self, GenParams};

use crate::common::{exploration_digest, limits};

/// Prints `Vetted` entries for the generator seeds in `seeds` whose
/// `race_free(seed, params)` has a wo-def2 `explore_seq` state count in
/// `band` — how `EXPLORE_POOL` and `MEDIUM_POOL` were made.
pub fn vet(params: GenParams, band: (usize, usize), seeds: Range<u64>) {
    for gen_seed in seeds {
        let prog = gen::race_free(gen_seed, params);
        let ex = explore_seq(&WoDef2Machine::default(), &prog, limits(band.1, 1, Reduction::Full));
        if !ex.truncated() && ex.states >= band.0 {
            let digest = exploration_digest(&ex);
            println!(
                "    Vetted {{ gen_seed: {gen_seed}, states: {}, digest: 0x{digest:016x} }},",
                ex.states
            );
        }
    }
}

/// One vetted program: its generator seed, the oracle's state count
/// and its result digest (`common::result_digest`).
#[derive(Debug, Clone, Copy)]
pub struct Vetted {
    pub gen_seed: u64,
    pub states: usize,
    pub digest: u64,
}

/// wo-def2 state band of `EXPLORE_POOL` programs.
pub const EXPLORE_BAND: (usize, usize) = (115_000, 130_000);

/// `race_free(gen_seed, explore::PARAMS)` on wo-def2, full exploration.
pub const EXPLORE_POOL: &[Vetted] = &[
    Vetted { gen_seed: 13, states: 119717, digest: 0x0ecac10cf9445609 },
    Vetted { gen_seed: 20, states: 120546, digest: 0x3a06dedb0abacf0b },
    Vetted { gen_seed: 21, states: 123198, digest: 0x58c881b7af3c26ef },
    Vetted { gen_seed: 117, states: 124666, digest: 0x335958e767e6cbb2 },
    Vetted { gen_seed: 172, states: 122056, digest: 0xe763b93f337b9204 },
    Vetted { gen_seed: 175, states: 125445, digest: 0x8ad1502423e30593 },
    Vetted { gen_seed: 237, states: 118480, digest: 0x4b88274f62d17f5d },
    Vetted { gen_seed: 283, states: 127172, digest: 0x38619125daa09183 },
    Vetted { gen_seed: 306, states: 125694, digest: 0xec5d034d5f97af19 },
    Vetted { gen_seed: 350, states: 118222, digest: 0x0d91f892acad5f35 },
];

/// Generator seeds `0..RACY_POOL_LEN` of `RACY_POOL`.
pub const RACY_POOL_LEN: usize = 1024;

/// Bit `g` (nibble `g / 4`, bit `g % 4`) is set when
/// `racy(g, contract::PARAMS)` conforms to DRF0 under
/// `contract::TRACE_LIMITS` (its lock-skipping left no race).
pub const RACY_POOL: &str = "010814281a940000c928c108701000b0f08420101094060682868401000000a480d28090009400884314201c1048000c4300264802420e2da4305a28ae98999b2415108f4b018e029108412864400800080a024494260465500204286923890000e21ca84021091184b950090080a164002000012b01164012420280602008e3";

pub fn racy_conforms(g: usize) -> bool {
    let nibble = RACY_POOL.as_bytes()[g / 4] as char;
    (nibble.to_digit(16).expect("hex digit") >> (g % 4)) & 1 == 1
}

/// Machine-side states of one contract sweep (32 programs, one
/// machine): about 3.6k–8.4k over the seeds tried, so this band only
/// trips when the campaign's work changes in kind.
pub const CONTRACT_BAND: (usize, usize) = (2_500, 12_000);

/// wo-def2 state band of `MEDIUM_POOL` programs.
pub const MEDIUM_BAND: (usize, usize) = (40_000, 55_000);

/// `race_free(gen_seed, serve::MEDIUM)` on wo-def2, full exploration:
/// the serve workload's medium jobs.
pub const MEDIUM_POOL: &[Vetted] = &[
    Vetted { gen_seed: 0, states: 54139, digest: 0xe29754c614cec9a3 },
    Vetted { gen_seed: 30, states: 54080, digest: 0xe069aa475d1dabf6 },
    Vetted { gen_seed: 49, states: 40672, digest: 0x86bcfe25d7641992 },
    Vetted { gen_seed: 68, states: 53807, digest: 0xf830243f11e956df },
    Vetted { gen_seed: 82, states: 51806, digest: 0x73acaf6040349cad },
    Vetted { gen_seed: 84, states: 43540, digest: 0x8a06ac7d0499271b },
    Vetted { gen_seed: 86, states: 44675, digest: 0x6fab6d0867971989 },
    Vetted { gen_seed: 106, states: 48338, digest: 0xfecd169a8af77920 },
    Vetted { gen_seed: 108, states: 45231, digest: 0x6f7113a94af65fae },
    Vetted { gen_seed: 123, states: 42216, digest: 0xc0b86e6048db56d8 },
    Vetted { gen_seed: 128, states: 40486, digest: 0xd0d35fa4d17673ad },
    Vetted { gen_seed: 135, states: 46142, digest: 0x91b0736b381c7363 },
    Vetted { gen_seed: 144, states: 43790, digest: 0x727b8721288885e2 },
    Vetted { gen_seed: 146, states: 40376, digest: 0xf7262ea6264fd930 },
    Vetted { gen_seed: 161, states: 51984, digest: 0x34195a4c7af1615c },
    Vetted { gen_seed: 165, states: 41848, digest: 0x0003eb5bd2a581e4 },
    Vetted { gen_seed: 177, states: 52161, digest: 0xbc2fb5cb61368dae },
    Vetted { gen_seed: 186, states: 46326, digest: 0x0cd1e7444a22884e },
    Vetted { gen_seed: 195, states: 46306, digest: 0x1ecb795415acd10d },
    Vetted { gen_seed: 212, states: 40592, digest: 0xe7e1c6e2c13c4f3b },
    Vetted { gen_seed: 234, states: 44078, digest: 0xdbdfbd61ec7666ea },
    Vetted { gen_seed: 248, states: 48139, digest: 0xc444dea141af978b },
    Vetted { gen_seed: 252, states: 45481, digest: 0x7e743e80b437339f },
    Vetted { gen_seed: 264, states: 48642, digest: 0x2159fa5fceeab4c0 },
    Vetted { gen_seed: 274, states: 53800, digest: 0x23538e15232082e3 },
    Vetted { gen_seed: 275, states: 45281, digest: 0x31bc31e014d9859a },
    Vetted { gen_seed: 281, states: 48643, digest: 0x806ca8023895a00a },
    Vetted { gen_seed: 282, states: 50059, digest: 0xa120f2c5e343c592 },
    Vetted { gen_seed: 285, states: 43624, digest: 0x8cf527a96dda546c },
    Vetted { gen_seed: 289, states: 50729, digest: 0xc898cbb3a70e9182 },
];

/// One vetted simulated run: `race_free(gen_seed, sim::PARAMS)` under
/// network seed `net_seed`, its simulated cycles and the digest of its
/// simulated statistics (`sim::digest`).
#[derive(Debug, Clone, Copy)]
pub struct SimVetted {
    pub gen_seed: u64,
    pub net_seed: u64,
    pub cycles: u64,
    pub digest: u64,
}

/// Simulated cycles of every `SIM_POOL` run.
pub const SIM_BAND: (u64, u64) = (142_000, 162_000);

/// The sim workload's runs, two network seeds per program: the
/// programs among generator seeds 0..40 whose runs all fall in `SIM_BAND`.
pub const SIM_POOL: &[SimVetted] = &[
    SimVetted { gen_seed: 0, net_seed: 1, cycles: 160508, digest: 0x9cc92c6aadd66ab4 },
    SimVetted { gen_seed: 0, net_seed: 2, cycles: 160944, digest: 0x1589d0b15a0b27f5 },
    SimVetted { gen_seed: 6, net_seed: 1, cycles: 150136, digest: 0x443bcf7ee3cc09c3 },
    SimVetted { gen_seed: 6, net_seed: 2, cycles: 152665, digest: 0x60dc06c565c86fb9 },
    SimVetted { gen_seed: 9, net_seed: 1, cycles: 146329, digest: 0xb0f1f8bc1451845c },
    SimVetted { gen_seed: 9, net_seed: 2, cycles: 161472, digest: 0xc5c3741f56f8a03b },
    SimVetted { gen_seed: 12, net_seed: 1, cycles: 149935, digest: 0x87f642a66b1c74d0 },
    SimVetted { gen_seed: 12, net_seed: 2, cycles: 152584, digest: 0x97f1a50314546f2d },
    SimVetted { gen_seed: 17, net_seed: 1, cycles: 147646, digest: 0x12609132cc1ccaea },
    SimVetted { gen_seed: 17, net_seed: 2, cycles: 152204, digest: 0x6175263513e7afe1 },
    SimVetted { gen_seed: 20, net_seed: 1, cycles: 155002, digest: 0xf747d5b7c479751a },
    SimVetted { gen_seed: 20, net_seed: 2, cycles: 159273, digest: 0xe153abbc64bcdde9 },
    SimVetted { gen_seed: 27, net_seed: 1, cycles: 142318, digest: 0x779c958a1acbcc8b },
    SimVetted { gen_seed: 27, net_seed: 2, cycles: 155614, digest: 0x442cd64c942c53c6 },
    SimVetted { gen_seed: 29, net_seed: 1, cycles: 155525, digest: 0x5f241e60aed8660e },
    SimVetted { gen_seed: 29, net_seed: 2, cycles: 144273, digest: 0x427b399f6af88d1a },
    SimVetted { gen_seed: 33, net_seed: 1, cycles: 145332, digest: 0x78a06b35a4fd5c92 },
    SimVetted { gen_seed: 33, net_seed: 2, cycles: 159386, digest: 0xb972262b22726b38 },
    SimVetted { gen_seed: 34, net_seed: 1, cycles: 153753, digest: 0x937625528c6d4886 },
    SimVetted { gen_seed: 34, net_seed: 2, cycles: 146238, digest: 0xca0f29b8c3164620 },
    SimVetted { gen_seed: 38, net_seed: 1, cycles: 149671, digest: 0x29745719704a5f05 },
    SimVetted { gen_seed: 38, net_seed: 2, cycles: 145617, digest: 0x6dccb0a565c95f62 },
    SimVetted { gen_seed: 39, net_seed: 1, cycles: 157803, digest: 0xc2379680eefdba7c },
    SimVetted { gen_seed: 39, net_seed: 2, cycles: 152258, digest: 0x6e2de87e8aafc7ae },
];

/// One vetted small serve job: `racy` or `race_free(gen_seed,
/// serve::SHAPES[shape])` on `machine` (reduced on cache-delay) and its
/// state count.
#[derive(Debug, Clone, Copy)]
pub struct SmallVetted {
    pub machine: &'static str,
    pub racy: bool,
    pub gen_seed: u64,
    pub shape: usize,
    pub states: usize,
}

/// State band of `SMALL_POOL` jobs: enough exploration that it, not the
/// fsyncs, dominates a small job's latency, and below the daemon's
/// default checkpoint interval of 10⁴ states.
pub const SMALL_BAND: (usize, usize) = (3_000, 9_000);

/// The serve workload's small jobs, four per machine and generator.
pub const SMALL_POOL: &[SmallVetted] = &[
    SmallVetted { machine: "sc", racy: false, gen_seed: 0, shape: 0, states: 3169 },
    SmallVetted { machine: "sc", racy: false, gen_seed: 5, shape: 0, states: 3163 },
    SmallVetted { machine: "sc", racy: false, gen_seed: 11, shape: 0, states: 4717 },
    SmallVetted { machine: "sc", racy: false, gen_seed: 12, shape: 0, states: 4181 },
    SmallVetted { machine: "sc", racy: true, gen_seed: 1, shape: 0, states: 7230 },
    SmallVetted { machine: "sc", racy: true, gen_seed: 4, shape: 0, states: 7041 },
    SmallVetted { machine: "sc", racy: true, gen_seed: 6, shape: 0, states: 7967 },
    SmallVetted { machine: "sc", racy: true, gen_seed: 12, shape: 0, states: 4062 },
    SmallVetted { machine: "write-buffer", racy: false, gen_seed: 0, shape: 0, states: 8465 },
    SmallVetted { machine: "write-buffer", racy: false, gen_seed: 1, shape: 0, states: 3878 },
    SmallVetted { machine: "write-buffer", racy: false, gen_seed: 2, shape: 0, states: 5081 },
    SmallVetted { machine: "write-buffer", racy: false, gen_seed: 3, shape: 0, states: 3603 },
    SmallVetted { machine: "write-buffer", racy: true, gen_seed: 8, shape: 0, states: 8060 },
    SmallVetted { machine: "write-buffer", racy: true, gen_seed: 26, shape: 0, states: 6196 },
    SmallVetted { machine: "write-buffer", racy: true, gen_seed: 137, shape: 0, states: 5857 },
    SmallVetted { machine: "write-buffer", racy: true, gen_seed: 199, shape: 0, states: 6541 },
    SmallVetted { machine: "tso", racy: false, gen_seed: 0, shape: 0, states: 5489 },
    SmallVetted { machine: "tso", racy: false, gen_seed: 2, shape: 0, states: 3529 },
    SmallVetted { machine: "tso", racy: false, gen_seed: 4, shape: 0, states: 4245 },
    SmallVetted { machine: "tso", racy: false, gen_seed: 5, shape: 0, states: 4923 },
    SmallVetted { machine: "tso", racy: true, gen_seed: 8, shape: 0, states: 5386 },
    SmallVetted { machine: "tso", racy: true, gen_seed: 15, shape: 0, states: 6128 },
    SmallVetted { machine: "tso", racy: true, gen_seed: 26, shape: 0, states: 6196 },
    SmallVetted { machine: "tso", racy: true, gen_seed: 92, shape: 0, states: 6168 },
    SmallVetted { machine: "pso", racy: false, gen_seed: 0, shape: 0, states: 5489 },
    SmallVetted { machine: "pso", racy: false, gen_seed: 2, shape: 0, states: 3529 },
    SmallVetted { machine: "pso", racy: false, gen_seed: 4, shape: 0, states: 4245 },
    SmallVetted { machine: "pso", racy: false, gen_seed: 5, shape: 0, states: 4923 },
    SmallVetted { machine: "pso", racy: true, gen_seed: 8, shape: 0, states: 5386 },
    SmallVetted { machine: "pso", racy: true, gen_seed: 15, shape: 0, states: 6128 },
    SmallVetted { machine: "pso", racy: true, gen_seed: 26, shape: 0, states: 6196 },
    SmallVetted { machine: "pso", racy: true, gen_seed: 92, shape: 0, states: 6168 },
    SmallVetted { machine: "net-reorder", racy: false, gen_seed: 0, shape: 1, states: 4841 },
    SmallVetted { machine: "net-reorder", racy: false, gen_seed: 2, shape: 1, states: 3117 },
    SmallVetted { machine: "net-reorder", racy: false, gen_seed: 5, shape: 1, states: 3995 },
    SmallVetted { machine: "net-reorder", racy: false, gen_seed: 7, shape: 1, states: 4660 },
    SmallVetted { machine: "net-reorder", racy: true, gen_seed: 1, shape: 1, states: 3444 },
    SmallVetted { machine: "net-reorder", racy: true, gen_seed: 2, shape: 1, states: 3574 },
    SmallVetted { machine: "net-reorder", racy: true, gen_seed: 3, shape: 1, states: 5138 },
    SmallVetted { machine: "net-reorder", racy: true, gen_seed: 4, shape: 1, states: 6812 },
    SmallVetted { machine: "cache-delay", racy: false, gen_seed: 1, shape: 1, states: 3104 },
    SmallVetted { machine: "cache-delay", racy: false, gen_seed: 3, shape: 1, states: 3236 },
    SmallVetted { machine: "cache-delay", racy: false, gen_seed: 22, shape: 1, states: 5644 },
    SmallVetted { machine: "cache-delay", racy: false, gen_seed: 29, shape: 1, states: 5889 },
    SmallVetted { machine: "cache-delay", racy: true, gen_seed: 11, shape: 1, states: 6209 },
    SmallVetted { machine: "cache-delay", racy: true, gen_seed: 21, shape: 1, states: 5128 },
    SmallVetted { machine: "cache-delay", racy: true, gen_seed: 31, shape: 1, states: 4942 },
    SmallVetted { machine: "cache-delay", racy: true, gen_seed: 41, shape: 1, states: 3859 },
    SmallVetted { machine: "wo-def1", racy: false, gen_seed: 2, shape: 0, states: 7625 },
    SmallVetted { machine: "wo-def1", racy: false, gen_seed: 3, shape: 0, states: 7779 },
    SmallVetted { machine: "wo-def1", racy: false, gen_seed: 6, shape: 0, states: 7157 },
    SmallVetted { machine: "wo-def1", racy: false, gen_seed: 7, shape: 0, states: 8203 },
    SmallVetted { machine: "wo-def1", racy: true, gen_seed: 11, shape: 1, states: 3701 },
    SmallVetted { machine: "wo-def1", racy: true, gen_seed: 12, shape: 1, states: 6343 },
    SmallVetted { machine: "wo-def1", racy: true, gen_seed: 33, shape: 1, states: 6627 },
    SmallVetted { machine: "wo-def1", racy: true, gen_seed: 49, shape: 1, states: 4493 },
    SmallVetted { machine: "wo-def2", racy: false, gen_seed: 4, shape: 1, states: 3191 },
    SmallVetted { machine: "wo-def2", racy: false, gen_seed: 11, shape: 1, states: 3506 },
    SmallVetted { machine: "wo-def2", racy: false, gen_seed: 14, shape: 1, states: 6911 },
    SmallVetted { machine: "wo-def2", racy: false, gen_seed: 23, shape: 1, states: 7676 },
    SmallVetted { machine: "wo-def2", racy: true, gen_seed: 1, shape: 1, states: 4722 },
    SmallVetted { machine: "wo-def2", racy: true, gen_seed: 2, shape: 1, states: 3389 },
    SmallVetted { machine: "wo-def2", racy: true, gen_seed: 7, shape: 1, states: 6502 },
    SmallVetted { machine: "wo-def2", racy: true, gen_seed: 16, shape: 1, states: 4649 },
];
