//! `cycada_check` — deterministic schedule exploration for the Cycada
//! reproduction's concurrency protocols.
//!
//! A loom-style stateless model checker: a model is a handful of closures
//! run on real OS threads, but cooperatively scheduled so exactly one
//! thread runs between *schedule points* — the instrumentation seam
//! provided by `parking_lot::schedule` (every shim `Mutex`/`RwLock`
//! acquire/release, the trace rings' locks among them) and
//! `cycada_sim::check::schedule_point` (`SlotTable` chunk publication,
//! `FnId` interning, `ImpersonationGuard` begin/end). Because the
//! scheduler controls every interleaving of those points, it can
//! enumerate them:
//!
//! * [`Checker::exhaustive`] — iterative-replay DFS over all schedules
//!   within a preemption bound, pruned with DPOR-lite sleep sets (a
//!   thread whose next op was already covered by an explored equivalent
//!   schedule is not re-run until a dependent op wakes it);
//! * [`Checker::random`] — seeded-random schedules, for depth beyond the
//!   bound;
//! * [`Checker::replay`] — re-run one schedule from a printed token.
//!
//! Any failure (panic in a model thread or post-condition, deadlock,
//! livelock) is reported as a [`CheckFailure`] carrying a replay token
//! (printed to stderr too), and [`Checker::replay`] reproduces it
//! deterministically.
//!
//! # Determinism contract
//!
//! Model state must depend only on the schedule: no wall-clock, RNG, or
//! environment dependence. One-time global caches (interned names,
//! lazily-initialized tables) are absorbed by a *warmup execution* the
//! checker runs before exploring, so every explored execution sees warmed
//! state. Models must not spawn their own threads (the checker only
//! controls the threads it spawned) and must not draw through the raster
//! pool.
//!
//! # Examples
//!
//! ```
//! use cycada_check::{Checker, Model};
//! use std::sync::Arc;
//! use parking_lot::Mutex;
//!
//! let report = Checker::new()
//!     .preemption_bound(2)
//!     .exhaustive(|| {
//!         let counter = Arc::new(Mutex::new(0u32));
//!         let (a, b) = (counter.clone(), counter.clone());
//!         Model::new()
//!             .thread(move || *a.lock() += 1)
//!             .thread(move || *b.lock() += 1)
//!             .post(move || assert_eq!(*counter.lock(), 2))
//!     })
//!     .expect("no schedule violates mutual exclusion");
//! assert!(report.complete);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dfs;
mod exec;

use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};

use cycada_sim::SimRng;

use dfs::{DefaultChooser, DfsChooser, RandomChooser, ReplayChooser};
use exec::{run_model, Outcome};

pub use exec::Model;

/// Serializes explorations process-wide: two concurrent explorations
/// would share global locks (intern table, trace registry) and a thread
/// suspended by one could block — unwakeably — a thread of the other.
fn exploration_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Token format version prefix.
const TOKEN_PREFIX: &str = "ck1";
const TOKEN_DIGITS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";

fn encode_token(threads: usize, schedule: &[usize]) -> String {
    let digits: String = schedule
        .iter()
        .map(|&c| {
            assert!(c < TOKEN_DIGITS.len(), "thread index {c} exceeds token base");
            TOKEN_DIGITS[c] as char
        })
        .collect();
    format!("{TOKEN_PREFIX}.{threads}.{digits}")
}

fn decode_token(token: &str) -> Result<(usize, Vec<usize>), String> {
    let mut parts = token.splitn(3, '.');
    let (prefix, threads, digits) = match (parts.next(), parts.next(), parts.next()) {
        (Some(p), Some(t), Some(d)) => (p, t, d),
        _ => return Err(format!("malformed replay token `{token}`")),
    };
    if prefix != TOKEN_PREFIX {
        return Err(format!(
            "unknown replay-token version `{prefix}` (expected `{TOKEN_PREFIX}`)"
        ));
    }
    let threads: usize = threads
        .parse()
        .map_err(|_| format!("bad thread count in replay token `{token}`"))?;
    let schedule = digits
        .bytes()
        .map(|b| {
            TOKEN_DIGITS
                .iter()
                .position(|&d| d == b)
                .filter(|&c| c < threads)
                .ok_or_else(|| format!("bad schedule digit `{}` in replay token", b as char))
        })
        .collect::<Result<Vec<usize>, String>>()?;
    Ok((threads, schedule))
}

/// A failing (or otherwise invalid) exploration result.
#[derive(Debug, Clone)]
pub struct CheckFailure {
    /// What went wrong: the panic message, deadlock description, ….
    pub message: String,
    /// Replay token reproducing the failure via [`Checker::replay`].
    /// Empty when the failure is not schedule-related (bad token,
    /// nondeterministic model).
    pub token: String,
    /// The failing schedule (thread index per step).
    pub schedule: Vec<usize>,
    /// Executions run before the failure surfaced.
    pub executions: usize,
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.token.is_empty() {
            write!(f, "{}", self.message)
        } else {
            write!(
                f,
                "{} [after {} execution(s); replay token: {}]",
                self.message, self.executions, self.token
            )
        }
    }
}

impl std::error::Error for CheckFailure {}

/// Statistics of a passing exploration.
#[derive(Debug, Clone, Copy)]
pub struct CheckReport {
    /// Executions run (including the warmup).
    pub executions: usize,
    /// `true` when the bounded schedule tree was fully explored;
    /// `false` when the execution cap stopped the search early.
    pub complete: bool,
}

/// Configurable schedule explorer. See the crate docs for the model
/// contract.
#[derive(Debug, Clone, Copy)]
pub struct Checker {
    preemption_bound: usize,
    max_steps: usize,
    max_executions: usize,
}

impl Default for Checker {
    fn default() -> Self {
        Checker {
            preemption_bound: 2,
            max_steps: 20_000,
            max_executions: 200_000,
        }
    }
}

impl Checker {
    /// A checker with the default bounds (preemption bound 2, 20 000
    /// steps per execution, 200 000 executions).
    pub fn new() -> Self {
        Self::default()
    }

    /// Maximum number of preemptions (scheduling away from a still-
    /// runnable thread) per explored schedule. Empirically almost all
    /// concurrency bugs need ≤ 2.
    pub fn preemption_bound(mut self, bound: usize) -> Self {
        self.preemption_bound = bound;
        self
    }

    /// Per-execution scheduling-step budget; exceeding it is reported as
    /// a livelock.
    pub fn max_steps(mut self, steps: usize) -> Self {
        self.max_steps = steps;
        self
    }

    /// Cap on explored executions; hitting it ends the search with
    /// [`CheckReport::complete`] = `false`.
    pub fn max_executions(mut self, executions: usize) -> Self {
        self.max_executions = executions;
        self
    }

    fn fail(threads: usize, choices: Vec<usize>, message: String, executions: usize) -> CheckFailure {
        let token = encode_token(threads, &choices);
        let failure = CheckFailure {
            message,
            token,
            schedule: choices,
            executions,
        };
        eprintln!("cycada_check: FAILURE: {failure}");
        failure
    }

    fn warmup(
        &self,
        mk: &dyn Fn() -> Model,
    ) -> Result<usize, CheckFailure> {
        let model = mk();
        let threads = model.threads.len();
        match run_model(model, &mut DefaultChooser, self.max_steps) {
            Outcome::Failed { choices, message } => {
                Err(Self::fail(threads, choices, message, 1))
            }
            _ => Ok(threads),
        }
    }

    /// Exhaustively explores every schedule of `mk`'s model within the
    /// preemption bound (sleep-set pruned). `mk` is called once per
    /// execution and must build an equivalent fresh model each time.
    ///
    /// # Errors
    ///
    /// The first failing schedule, as a [`CheckFailure`] with a replay
    /// token (also printed to stderr).
    pub fn exhaustive(&self, mk: impl Fn() -> Model) -> Result<CheckReport, CheckFailure> {
        let _serial = exploration_lock();
        let threads = self.warmup(&mk)?;
        let mut dfs = DfsChooser::new(self.preemption_bound);
        let mut executions = 1usize;
        loop {
            let outcome = run_model(mk(), &mut dfs, self.max_steps);
            executions += 1;
            if let Some(msg) = dfs.nondeterminism.take() {
                return Err(CheckFailure {
                    message: msg,
                    token: String::new(),
                    schedule: Vec::new(),
                    executions,
                });
            }
            if let Outcome::Failed { choices, message } = outcome {
                return Err(Self::fail(threads, choices, message, executions));
            }
            if !dfs.advance() {
                return Ok(CheckReport {
                    executions,
                    complete: true,
                });
            }
            if executions >= self.max_executions {
                return Ok(CheckReport {
                    executions,
                    complete: false,
                });
            }
        }
    }

    /// Runs `executions` seeded-random schedules of `mk`'s model.
    ///
    /// # Errors
    ///
    /// The first failing schedule, as a [`CheckFailure`] with a replay
    /// token (also printed to stderr).
    pub fn random(
        &self,
        seed: u64,
        executions: usize,
        mk: impl Fn() -> Model,
    ) -> Result<CheckReport, CheckFailure> {
        let _serial = exploration_lock();
        let threads = self.warmup(&mk)?;
        let mut master = SimRng::new(seed);
        let mut ran = 1usize;
        for _ in 0..executions {
            let mut chooser = RandomChooser::new(master.fork());
            let outcome = run_model(mk(), &mut chooser, self.max_steps);
            ran += 1;
            if let Outcome::Failed { choices, message } = outcome {
                return Err(Self::fail(threads, choices, message, ran));
            }
        }
        Ok(CheckReport {
            executions: ran,
            complete: false,
        })
    }

    /// Replays the schedule in `token` against `mk`'s model.
    ///
    /// # Errors
    ///
    /// [`CheckFailure`] when the replayed schedule fails — which is the
    /// *expected* result when replaying a failure token — or when the
    /// token is malformed or no longer matches the model.
    pub fn replay(&self, token: &str, mk: impl Fn() -> Model) -> Result<(), CheckFailure> {
        let (threads, schedule) = decode_token(token).map_err(|message| CheckFailure {
            message,
            token: String::new(),
            schedule: Vec::new(),
            executions: 0,
        })?;
        let _serial = exploration_lock();
        self.warmup(&mk)?;
        let model = mk();
        if model.threads.len() != threads {
            return Err(CheckFailure {
                message: format!(
                    "replay token is for a {threads}-thread model but this model has {} threads",
                    model.threads.len()
                ),
                token: String::new(),
                schedule: Vec::new(),
                executions: 1,
            });
        }
        let mut chooser = ReplayChooser::new(schedule);
        let outcome = run_model(model, &mut chooser, self.max_steps);
        if let Some(msg) = chooser.diverged.take() {
            return Err(CheckFailure {
                message: msg,
                token: String::new(),
                schedule: Vec::new(),
                executions: 2,
            });
        }
        match outcome {
            Outcome::Failed { choices, message } => {
                Err(Self::fail(threads, choices, message, 2))
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_roundtrip() {
        let token = encode_token(3, &[0, 1, 2, 0, 0, 1]);
        assert_eq!(token, "ck1.3.012001");
        let (threads, schedule) = decode_token(&token).unwrap();
        assert_eq!(threads, 3);
        assert_eq!(schedule, vec![0, 1, 2, 0, 0, 1]);
    }

    #[test]
    fn token_rejects_garbage() {
        assert!(decode_token("nope").is_err());
        assert!(decode_token("ck2.2.01").is_err());
        assert!(decode_token("ck1.x.01").is_err());
        assert!(decode_token("ck1.2.09").is_err(), "digit 9 exceeds 2 threads");
    }
}
