//! The property runner: case sweep, bounded shrinking, failure replay.

use crate::gen::Gen;
use arachnet_core::rng::TagRng;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default number of cases per property (override with
/// `ARACHNET_TESTKIT_CASES`).
pub const DEFAULT_CASES: u64 = 96;

/// Default base seed for the case sweep (override with
/// `ARACHNET_TESTKIT_SEED`).
pub const DEFAULT_SEED: u64 = 0xA12A_C4E7;

/// Default upper bound on property evaluations spent shrinking one failure.
pub const DEFAULT_MAX_SHRINK_STEPS: u64 = 4096;

/// Runner configuration. [`Config::default`] reads the `ARACHNET_TESTKIT_*`
/// environment variables so a whole test binary can be re-run with more
/// cases or a different sweep seed without recompiling.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u64,
    /// Base seed; each case derives its own seed from this via splitmix64.
    pub seed: u64,
    /// Upper bound on property evaluations spent shrinking one failure.
    pub max_shrink_steps: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: env_u64("ARACHNET_TESTKIT_CASES").unwrap_or(DEFAULT_CASES),
            seed: env_u64("ARACHNET_TESTKIT_SEED").unwrap_or(DEFAULT_SEED),
            max_shrink_steps: DEFAULT_MAX_SHRINK_STEPS,
        }
    }
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok().and_then(|s| {
        let s = s.trim();
        if let Some(hex) = s.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).ok()
        } else {
            s.parse().ok()
        }
    })
}

/// A falsified property: the original counterexample, the shrunk one, and
/// everything needed to replay the case.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Name the property was checked under.
    pub name: String,
    /// Index of the failing case within the sweep (0 when replayed).
    pub case_index: u64,
    /// Per-case seed; feed it to [`replay`] or `ARACHNET_TESTKIT_REPLAY`.
    pub case_seed: u64,
    /// Debug rendering of the originally generated counterexample.
    pub original: String,
    /// Debug rendering of the minimal counterexample after shrinking.
    pub shrunk: String,
    /// Property evaluations spent shrinking.
    pub shrink_steps: u64,
    /// The error (or panic message) produced by the shrunk counterexample.
    pub message: String,
}

impl Failure {
    /// Multi-line human-readable report, including replay instructions.
    pub fn render(&self) -> String {
        format!(
            "property '{}' falsified (case {}, case_seed {:#x})\n  \
             original: {}\n  shrunk ({} steps): {}\n  error: {}\n  \
             replay: ARACHNET_TESTKIT_REPLAY={:#x} cargo test {}",
            self.name,
            self.case_index,
            self.case_seed,
            self.original,
            self.shrink_steps,
            self.shrunk,
            self.message,
            self.case_seed,
            self.name
        )
    }
}

/// Derives the seed of case `index` within a sweep that starts at `base`.
/// Uses the splitmix64 finalizer so neighbouring indices land far apart.
pub fn case_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn eval<T>(prop: &impl Fn(&T) -> Result<(), String>, value: &T) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(r) => r,
        Err(payload) => Err(panic_text(payload.as_ref())),
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

fn run_one_case<T: Debug + 'static>(
    cfg: &Config,
    name: &str,
    case_index: u64,
    seed: u64,
    gen: &Gen<T>,
    prop: &impl Fn(&T) -> Result<(), String>,
) -> Result<(), Failure> {
    let mut rng = TagRng::new(seed);
    let value = gen.generate(&mut rng);
    let Err(first_msg) = eval(prop, &value) else {
        return Ok(());
    };
    let original = format!("{value:?}");

    // Bounded greedy shrink: take the first failing candidate at each level,
    // restart from it, stop when a whole candidate list passes or the step
    // budget runs out.
    let mut current = value;
    let mut message = first_msg;
    let mut steps = 0u64;
    'outer: while steps < cfg.max_shrink_steps {
        for cand in gen.shrink_candidates(&current) {
            if steps >= cfg.max_shrink_steps {
                break 'outer;
            }
            steps += 1;
            if let Err(msg) = eval(prop, &cand) {
                current = cand;
                message = msg;
                continue 'outer;
            }
        }
        break; // every candidate passed: `current` is locally minimal
    }

    Err(Failure {
        name: name.to_string(),
        case_index,
        case_seed: seed,
        original,
        shrunk: format!("{current:?}"),
        shrink_steps: steps,
        message,
    })
}

/// Core entry point: sweeps `cfg.cases` cases (or only the case named by
/// `ARACHNET_TESTKIT_REPLAY`, when set) and returns the first [`Failure`],
/// shrunk. Prefer [`check`] / [`check_with`] in tests; use this directly
/// when you need the failure as data instead of a panic.
pub fn run<T: Debug + 'static>(
    cfg: &Config,
    name: &str,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> Result<(), String>,
) -> Result<(), Failure> {
    if let Some(seed) = env_u64("ARACHNET_TESTKIT_REPLAY") {
        return run_one_case(cfg, name, 0, seed, gen, &prop);
    }
    for i in 0..cfg.cases {
        run_one_case(cfg, name, i, case_seed(cfg.seed, i), gen, &prop)?;
    }
    Ok(())
}

/// Checks a property over [`Config::default`] cases, panicking with a full
/// shrink-and-replay report on the first failure.
pub fn check<T: Debug + 'static>(
    name: &str,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> Result<(), String>,
) {
    check_with(&Config::default(), name, gen, prop);
}

/// [`check`] with an explicit [`Config`].
pub fn check_with<T: Debug + 'static>(
    cfg: &Config,
    name: &str,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> Result<(), String>,
) {
    if let Err(failure) = run(cfg, name, gen, prop) {
        panic!("{}", failure.render());
    }
}

/// Re-runs exactly one case from its per-case seed (as reported in a
/// [`Failure`]), shrinking included. Returns the failure as data so callers
/// can assert on it.
pub fn replay<T: Debug + 'static>(
    name: &str,
    seed: u64,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> Result<(), String>,
) -> Result<(), Failure> {
    run_one_case(&Config::default(), name, 0, seed, gen, &prop)
}
