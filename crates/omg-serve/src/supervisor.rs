//! Supervision: the one owner of a fleet's workers, plus restart policy,
//! fleet health, and caller retries.
//!
//! Every fleet runs one **supervisor thread**. Workers have a single exit
//! duty — a notice naming their slot and lease generation — and the
//! supervisor does the rest in one place (its `reap` step): it joins
//! the exited worker, registers the death (slot health, live count,
//! strikes, the restart-or-retire decision), and only then settles the
//! ticket the worker died holding. A waiter that sees its verdict therefore
//! sees the death already registered. Jobs still queued when the fleet
//! goes terminally down are settled by one teardown sweep.
//!
//! Without a restart policy that is all it does: a dead slot retires as
//! [`WorkerHealth::Dead`], and the fleet shrinks. Self-healing turns those
//! terminal failures into transient ones:
//!
//! * the supervisor re-provisions a replacement device for each dead
//!   worker through the fleet's warm [`omg_core::session::ModelCache`]
//!   image (the expensive preparation work is shared, so a replacement is
//!   nearly free), and restarts the worker on the same queue shard;
//! * a [`RestartPolicy`] governs the loop: exponential backoff between
//!   restarts, a per-worker restart budget, and **crash-loop detection**
//!   that [quarantines](WorkerHealth::Quarantined) a flapping worker
//!   instead of burning CPU on a restart storm;
//! * [`FleetHealth`] summarizes the fleet as a state machine
//!   (`Healthy → Degraded → Quarantined → Dead`), derived from the
//!   per-slot [`WorkerHealth`] states and read via
//!   [`ServeHandle::health`](crate::ServeHandle::health);
//! * a caller-side [`RetryPolicy`] drives
//!   [`ServeHandle::submit_with_retry`](crate::ServeHandle::submit_with_retry),
//!   re-submitting retryable errors within a wall-clock budget so callers
//!   ride out a restart without seeing it;
//! * with a [`HangPolicy`] installed, the supervisor thread doubles as a
//!   **liveness watchdog**: it periodically scans every slot's heartbeat
//!   lease and *preempts* a worker that stopped renewing — the wedged
//!   thread is detached behind a per-slot generation token (its
//!   late-waking publishes and its exit notice are discarded), its
//!   in-flight ticket resolves with the retryable [`ServeError::Hung`],
//!   and the slot is re-provisioned under the same [`RestartPolicy`]
//!   (hangs count as strikes; repeat hangers quarantine). A hang thereby
//!   becomes just another transient fault.
//!
//! Self-healing is enabled by setting `ServeConfig::restart` and starting
//! the fleet through [`ServeHandle::provision`](crate::ServeHandle::provision)
//! — re-provisioning needs the model and seed, so
//! [`ServeHandle::start`](crate::ServeHandle::start) rejects the knob.
//!
//! Every lifecycle transition is stamped into the flight recorder
//! ([`Stage::WorkerDown`], [`Stage::WorkerRestart`],
//! [`Stage::WorkerQuarantine`], [`Stage::WorkerHang`]) and mirrored in
//! the metrics registry (`omg_serve_restarts_total`,
//! `omg_serve_quarantined_total`, `omg_serve_time_to_recover_seconds`,
//! `omg_serve_hangs_total`, `omg_serve_hang_detect_seconds`).

use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use omg_core::session::{provision_devices_with_cache, ModelCache};
use omg_nn::Model;
use omg_obs::Stage;

use crate::{nanos, spawn_worker, ServeError, Shared, WorkerExit};

/// How the supervisor treats a dead worker: restart it (with backoff) or
/// quarantine it once it looks like a crash loop.
///
/// The policy is per-slot: each worker carries its own restart budget and
/// crash-loop strike count, so one flapping device cannot exhaust the
/// fleet's patience for its siblings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Backoff before the first restart of a crash streak; doubles per
    /// consecutive rapid death, capped at [`RestartPolicy::backoff_max`].
    pub backoff_initial: Duration,
    /// Ceiling on the exponential backoff.
    pub backoff_max: Duration,
    /// Lifetime restart budget per worker slot: once a slot has been
    /// restarted this many times, its next death quarantines it.
    pub max_restarts: u32,
    /// Consecutive *rapid* deaths (lifetime shorter than
    /// [`RestartPolicy::stable_after`]) that mark a slot as crash-looping:
    /// reaching this many strikes quarantines the slot instead of
    /// restarting it again.
    pub crash_loop_threshold: u32,
    /// A worker that serves at least this long is considered stable again:
    /// its death resets the crash-loop strike count (but still spends one
    /// unit of the restart budget).
    pub stable_after: Duration,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            backoff_initial: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            max_restarts: 16,
            crash_loop_threshold: 3,
            stable_after: Duration::from_secs(1),
        }
    }
}

impl RestartPolicy {
    /// Backoff before restarting a slot with `strikes` consecutive rapid
    /// deaths: `backoff_initial * 2^(strikes-1)`, capped at `backoff_max`.
    /// This is the deterministic *ceiling*; the supervisor sleeps the
    /// jittered value from [`RestartPolicy::jittered_backoff`].
    pub(crate) fn backoff(&self, strikes: u32) -> Duration {
        let doublings = strikes.saturating_sub(1).min(20);
        self.backoff_initial
            .saturating_mul(1u32 << doublings)
            .min(self.backoff_max)
    }

    /// Decorrelated-jitter backoff (AWS style): uniform in
    /// `[backoff_initial, min(prev * 3, backoff(strikes))]`, with the
    /// uniform pick taken from `word` — a value derived deterministically
    /// from the fleet seed and the slot's event count, so seeded chaos
    /// runs replay bit-identically while concurrent slot deaths still
    /// spread their restarts instead of thundering in lockstep.
    ///
    /// `prev == ZERO` (start of a streak) yields exactly
    /// `backoff_initial`. The result is always within
    /// `[backoff_initial, backoff(strikes)] ⊆ [backoff_initial, backoff_max]`.
    pub(crate) fn jittered_backoff(&self, strikes: u32, prev: Duration, word: u64) -> Duration {
        decorrelated_jitter(self.backoff_initial, self.backoff(strikes), prev, word)
    }
}

/// Stateless splitmix64 mix: the jitter words for both restart and retry
/// backoff flow through this, keyed on seeds the caller controls, so the
/// "randomness" is a pure function of (seed, slot, event count).
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform pick in `[min(initial, ceiling), min(prev * 3, ceiling)]`
/// driven by `word`; `prev == ZERO` pins the result to the lower bound.
fn decorrelated_jitter(
    initial: Duration,
    ceiling: Duration,
    prev: Duration,
    word: u64,
) -> Duration {
    let lo = initial.min(ceiling);
    if prev.is_zero() {
        return lo;
    }
    let hi = prev.saturating_mul(3).min(ceiling).max(lo);
    let lo_ns = lo.as_nanos().min(u128::from(u64::MAX)) as u64;
    let hi_ns = hi.as_nanos().min(u128::from(u64::MAX)) as u64;
    let span = hi_ns - lo_ns;
    let pick = if span == 0 {
        lo_ns
    } else {
        lo_ns + word % (span + 1)
    };
    Duration::from_nanos(pick)
}

/// When (and whether) the supervisor's liveness watchdog declares a
/// worker hung. Install via `ServeConfig::hang` (requires supervision —
/// preemption re-provisions the slot, so `restart` must be set too).
///
/// A worker renews its per-slot heartbeat lease at dequeue, at compute
/// start, and periodically through the stall tick seam, so a *legitimate*
/// long query keeps its lease fresh. A slot whose lease age exceeds
/// `lease_ttl + grace` is declared [`WorkerHealth::Hung`] on the next
/// watchdog scan: detection latency is bounded by
/// `lease_ttl + grace + scan_interval`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HangPolicy {
    /// How long a lease stays fresh after its last renewal.
    pub lease_ttl: Duration,
    /// Extra slack past the TTL before the watchdog declares the hang —
    /// absorbs scheduler noise between a worker's renewals.
    pub grace: Duration,
    /// Hang budget per slot: a slot preempted this many times is
    /// quarantined instead of re-provisioned (hangs also count as
    /// crash-loop strikes under the [`RestartPolicy`]).
    pub max_hangs: u32,
    /// How often the watchdog scans the leases.
    pub scan_interval: Duration,
}

impl Default for HangPolicy {
    fn default() -> Self {
        HangPolicy {
            lease_ttl: Duration::from_millis(500),
            grace: Duration::from_millis(500),
            max_hangs: 4,
            scan_interval: Duration::from_millis(50),
        }
    }
}

/// Caller-side retry governance for
/// [`ServeHandle::submit_with_retry`](crate::ServeHandle::submit_with_retry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first submission (minimum 1).
    pub max_attempts: u32,
    /// Pause before the first re-submission; doubles per retry, capped at
    /// [`RetryPolicy::backoff_max`].
    pub backoff_initial: Duration,
    /// Ceiling on the retry backoff.
    pub backoff_max: Duration,
    /// Total wall-clock budget across all attempts (waits and backoffs
    /// included). `Duration::MAX` means no deadline.
    pub budget: Duration,
    /// Seed for the decorrelated retry jitter: the same seed replays the
    /// identical backoff schedule (omg-sim traces stay bit-identical),
    /// while callers seeded differently spread their retries instead of
    /// re-storming a recovering fleet in lockstep.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_initial: Duration::from_millis(2),
            backoff_max: Duration::from_millis(50),
            budget: Duration::from_secs(5),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Decorrelated-jitter pause before re-submission number `attempt`
    /// (1-based): uniform in `[backoff_initial, min(prev * 3, ceiling)]`
    /// where the ceiling is the classic exponential
    /// `backoff_initial * 2^(attempt-1)` capped at `backoff_max`, and the
    /// pick is a pure function of `(jitter_seed, attempt)`.
    pub(crate) fn jittered_backoff(&self, attempt: u32, prev: Duration) -> Duration {
        let doublings = attempt.saturating_sub(1).min(20);
        let ceiling = self
            .backoff_initial
            .saturating_mul(1u32 << doublings)
            .min(self.backoff_max);
        let word = splitmix64(
            self.jitter_seed
                .wrapping_add(0x0052_4554_5259_u64.wrapping_mul(u64::from(attempt))),
        );
        decorrelated_jitter(self.backoff_initial, ceiling, prev, word)
    }
}

/// One worker slot's health, as tracked by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerHealth {
    /// The slot's worker thread is serving.
    Live,
    /// The worker died and its death is not yet registered. The
    /// supervisor registers a death in one step (straight to
    /// `Restarting`, `Quarantined` or `Dead`), so the runtime does not
    /// report this state; it remains for callers that match on it.
    Down,
    /// The supervisor is between death and replacement: backing off or
    /// re-provisioning a device for this slot.
    Restarting,
    /// The liveness watchdog declared the slot's worker hung (heartbeat
    /// lease expired past TTL + grace): the wedged thread is detached,
    /// its ticket resolved with [`ServeError::Hung`], and the slot is
    /// about to restart or quarantine per policy.
    Hung,
    /// The supervisor gave up on the slot — crash loop or exhausted
    /// restart budget. Quarantined slots never restart.
    Quarantined,
    /// The slot is terminally gone (death without a restart policy, or
    /// exit during drain).
    Dead,
}

/// Fleet-wide health, derived from the per-slot [`WorkerHealth`] states.
///
/// The state machine callers see: `Healthy → Degraded → Quarantined →
/// Dead`. `Degraded` and `Quarantined` fleets may still serve (surviving
/// workers steal the dead slot's queued work); a `Dead` fleet never will.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetHealth {
    /// Every slot is live.
    Healthy,
    /// At least one slot is down or restarting, but nothing is
    /// quarantined and service continues (or will resume).
    Degraded,
    /// At least one slot is permanently quarantined; the rest of the
    /// fleet (if any) keeps serving.
    Quarantined,
    /// No slot is live or coming back, and none was quarantined: the
    /// fleet died outright (e.g. a fleet without a restart policy losing
    /// every worker).
    Dead,
}

/// Derives the fleet state from per-slot health.
pub(crate) fn fleet_health(slots: &[WorkerHealth]) -> FleetHealth {
    let live = slots
        .iter()
        .filter(|h| matches!(h, WorkerHealth::Live))
        .count();
    let recovering = slots
        .iter()
        .filter(|h| {
            matches!(
                h,
                WorkerHealth::Down | WorkerHealth::Restarting | WorkerHealth::Hung
            )
        })
        .count();
    let quarantined = slots
        .iter()
        .filter(|h| matches!(h, WorkerHealth::Quarantined))
        .count();
    if live == slots.len() {
        FleetHealth::Healthy
    } else if quarantined > 0 {
        FleetHealth::Quarantined
    } else if live + recovering > 0 {
        FleetHealth::Degraded
    } else {
        FleetHealth::Dead
    }
}

/// Everything the supervisor needs to restart a dead worker: the restart
/// policy, the original provisioning arguments, and the fleet's warm
/// model cache.
pub(crate) struct ReprovisionContext {
    pub(crate) policy: RestartPolicy,
    pub(crate) model_id: String,
    pub(crate) model: Model,
    pub(crate) seed: u64,
    pub(crate) cache: ModelCache,
    /// Replacements provisioned so far, fleet-wide: salts the replacement
    /// seed so every replacement device is distinct yet deterministic.
    pub(crate) replacements: u64,
}

/// The supervisor's book-keeping for one worker slot.
pub(crate) struct SlotState {
    pub(crate) handle: Option<JoinHandle<WorkerExit>>,
    /// How the slot's latest incarnation ended: its device after a clean
    /// exit (returned at drain), or the slot's most recent terminal error.
    /// A later incarnation's clean exit replaces an earlier error —
    /// restarted-over deaths are recovered, not reported.
    pub(crate) outcome: Option<WorkerExit>,
    pub(crate) restarts: u32,
    pub(crate) strikes: u32,
    /// Watchdog preemptions of this slot (the [`HangPolicy::max_hangs`]
    /// budget).
    pub(crate) hangs: u32,
    /// Previous jittered backoff actually slept for this slot — the
    /// `prev` term of the decorrelated jitter.
    pub(crate) prev_backoff: Duration,
    pub(crate) spawned_at: Instant,
}

impl SlotState {
    pub(crate) fn running(handle: JoinHandle<WorkerExit>) -> Self {
        SlotState {
            handle: Some(handle),
            outcome: None,
            restarts: 0,
            strikes: 0,
            hangs: 0,
            prev_backoff: Duration::ZERO,
            spawned_at: Instant::now(),
        }
    }
}

/// A worker's exit notice: its slot index and the lease generation it was
/// spawned under.
pub(crate) type ExitNotice = (usize, u64);

/// The notice drain sends to wake the supervisor out of its blocking
/// receive. Real slot indices are bounded by the fleet size.
pub(crate) const SUPERVISOR_WAKE: ExitNotice = (usize::MAX, 0);

/// Slice length for interruptible backoff sleeps: drain never waits more
/// than this behind a supervisor mid-backoff.
const BACKOFF_SLICE: Duration = Duration::from_millis(5);

/// A slot the supervisor decided to restart: when its worker went down,
/// and the strike count that sets the backoff.
struct Restart {
    down_at: Instant,
    strikes: u32,
}

/// The supervisor thread's state: owns every worker's join handle and,
/// on a self-healing fleet, the re-provisioning context.
pub(crate) struct Supervisor {
    pub(crate) shared: Arc<Shared>,
    /// `None`: never restart — dead slots retire as [`WorkerHealth::Dead`].
    pub(crate) reprovision: Option<ReprovisionContext>,
    pub(crate) hang: Option<HangPolicy>,
    pub(crate) slots: Vec<SlotState>,
    pub(crate) exit_tx: mpsc::Sender<ExitNotice>,
}

impl Supervisor {
    /// The supervisor loop: block on worker exit notices and
    /// [reap](Self::reap) each exited worker. With a [`HangPolicy`]
    /// installed the blocking receive becomes a timed one, and every
    /// timeout runs a watchdog scan over the heartbeat leases — a wedged
    /// worker never sends an exit notice, so hang detection is purely
    /// scan-driven. On shutdown (drain's wake notice, or every sender
    /// gone) reaps every remaining incarnation and reports one
    /// device-or-error per slot.
    pub(crate) fn run(mut self, exit_rx: mpsc::Receiver<ExitNotice>) -> Vec<WorkerExit> {
        let scan_every = self.hang.as_ref().map(|h| h.scan_interval);
        while !self.shared.shutting_down.load(Ordering::Acquire) {
            let (index, generation) = match scan_every {
                Some(interval) => match exit_rx.recv_timeout(interval) {
                    Ok(notice) => notice,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        self.scan_leases();
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                },
                None => match exit_rx.recv() {
                    Ok(notice) => notice,
                    Err(_) => break,
                },
            };
            if index == SUPERVISOR_WAKE.0 || self.shared.shutting_down.load(Ordering::Acquire) {
                break;
            }
            // A notice from an incarnation the watchdog has since preempted
            // names a slot whose handle is now a replacement's: ignore it.
            if generation != self.shared.leases[index].generation.load(Ordering::Acquire) {
                continue;
            }
            if let Some(handle) = self.slots[index].handle.take() {
                self.reap(index, handle);
            }
        }
        // Shutdown: the queue is closed (by drain or by retiring the last
        // slot), so every still-running incarnation exits once it drains.
        for index in 0..self.slots.len() {
            if let Some(handle) = self.slots[index].handle.take() {
                self.reap(index, handle);
            }
        }
        self.slots
            .into_iter()
            .map(|slot| slot.outcome.unwrap_or(Err(ServeError::WorkerPanicked)))
            .collect()
    }

    /// The single settle point for an exited worker incarnation. Joins
    /// it, then, in this order:
    ///
    /// 1. registers the death — health, live count, strikes, and the
    ///    restart-or-retire decision (retiring the fleet's last slot closes
    ///    the queue and sweeps it);
    /// 2. settles the ticket the worker died holding: a panic delivers
    ///    [`ServeError::WorkerPanicked`] (counted discarded), an error exit
    ///    delivers its error (counted failed);
    /// 3. backs off and re-provisions, if the slot is to restart.
    ///
    /// An observer that sees a ticket resolved (or the ledger balance) is
    /// therefore guaranteed to see the death already registered.
    fn reap(&mut self, index: usize, handle: JoinHandle<WorkerExit>) {
        let exit = handle.join().unwrap_or(Err(ServeError::WorkerPanicked));
        self.shared.leases[index]
            .stamp_ns
            .store(0, Ordering::Release);
        self.shared.live_workers.fetch_sub(1, Ordering::AcqRel);
        let error = match exit {
            Ok(device) => {
                // A clean exit only follows a queue close; keep the device
                // for drain.
                self.slots[index].outcome = Some(Ok(device));
                self.retire(index, WorkerHealth::Dead);
                return;
            }
            Err(error) => error,
        };
        self.slots[index].outcome = Some(Err(error.clone()));
        let restart = if self.shared.shutting_down.load(Ordering::Acquire) {
            self.retire(index, WorkerHealth::Dead);
            None
        } else {
            if self.reprovision.is_some() {
                if let Some(rec) = &self.shared.recorder {
                    rec.record(
                        Shared::submit_ring(rec),
                        Stage::WorkerDown,
                        index as u64,
                        u64::from(error == ServeError::WorkerPanicked),
                    );
                }
            }
            self.decide(index, false)
        };
        self.settle_held(index, error);
        if let Some(restart) = restart {
            self.restart_slot(index, restart);
        }
    }

    /// Strike accounting and the restart-or-retire decision for a slot
    /// whose worker died (`hung == false`) or was preempted. Without a
    /// restart policy the slot retires as [`WorkerHealth::Dead`]; with one
    /// it is quarantined once its budgets run out, and otherwise marked
    /// [`WorkerHealth::Restarting`] and returned for restart.
    fn decide(&mut self, index: usize, hung: bool) -> Option<Restart> {
        let Some(ctx) = &self.reprovision else {
            self.retire(index, WorkerHealth::Dead);
            return None;
        };
        let policy = &ctx.policy;
        let down_at = Instant::now();
        let slot = &mut self.slots[index];
        // A death after a stable run starts a fresh streak; a rapid death
        // extends the current one.
        if down_at.duration_since(slot.spawned_at) >= policy.stable_after {
            slot.strikes = 0;
        }
        slot.strikes += 1;
        slot.hangs += u32::from(hung);
        let strikes = slot.strikes;
        let max_hangs = self.hang.as_ref().map_or(u32::MAX, |h| h.max_hangs);
        if (hung && slot.hangs >= max_hangs)
            || slot.restarts >= policy.max_restarts
            || strikes >= policy.crash_loop_threshold
        {
            self.quarantine(index, strikes);
            return None;
        }
        self.shared.slot_health.lock()[index] = WorkerHealth::Restarting;
        Some(Restart { down_at, strikes })
    }

    /// Settles the ticket parked in the slot's lease, if any, with
    /// `verdict` — through the first-writer-wins latch, so a completion
    /// that already landed keeps its result and nothing is counted twice.
    fn settle_held(&self, index: usize, verdict: ServeError) {
        let Some((seq, slot)) = self.shared.leases[index].current.lock().take() else {
            return;
        };
        let shared = &self.shared;
        let publish = || match &verdict {
            ServeError::WorkerPanicked => shared.count_discard(seq, true),
            ServeError::Hung => shared.discarded.inc(),
            _ => shared.failed.inc(),
        };
        slot.fill_with(Err(verdict.clone()), publish);
    }

    /// Scans every live slot's heartbeat lease against the hang policy
    /// and preempts the expired ones. No-op without a policy.
    fn scan_leases(&mut self) {
        let Some(policy) = self.hang.clone() else {
            return;
        };
        let expiry_ns = nanos(policy.lease_ttl + policy.grace);
        let now = omg_obs::monotonic_ns();
        for index in 0..self.slots.len() {
            // Only Live slots carry a lease a worker should be renewing;
            // Hung/Restarting slots were already preempted this incarnation.
            if !matches!(self.shared.slot_health.lock()[index], WorkerHealth::Live) {
                continue;
            }
            let stamp = self.shared.leases[index].stamp_ns.load(Ordering::Acquire);
            if stamp == 0 {
                continue; // idle: no query in hand, nothing to preempt
            }
            let age = now.saturating_sub(stamp);
            if age > expiry_ns {
                self.declare_hang(index, age);
            }
        }
    }

    /// Declares one slot hung: fences out the wedged incarnation behind a
    /// fresh generation, detaches (never joins) the wedged thread, and
    /// registers the preemption like a death — then settles its in-flight
    /// ticket with the retryable [`ServeError::Hung`] and restarts or
    /// quarantines the slot, in the same order [`Self::reap`] keeps.
    fn declare_hang(&mut self, index: usize, age_ns: u64) {
        let lease = &self.shared.leases[index];
        // Generation bump FIRST: from here on, everything the zombie
        // publishes — verdict, stats, its exit notice — is discarded by
        // generation check.
        lease.generation.fetch_add(1, Ordering::AcqRel);
        lease.stamp_ns.store(0, Ordering::Release);
        self.shared.hung.inc();
        self.shared.hang_detect.record_ns(age_ns);
        if let Some(rec) = &self.shared.recorder {
            rec.record(
                Shared::submit_ring(rec),
                Stage::WorkerHang,
                index as u64,
                age_ns,
            );
        }
        // The wedged thread no longer counts as serving.
        self.shared.live_workers.fetch_sub(1, Ordering::AcqRel);
        // Detach, never join: joining a wedged thread hangs the watchdog.
        drop(self.slots[index].handle.take());
        self.shared.slot_health.lock()[index] = WorkerHealth::Hung;
        self.slots[index].outcome = Some(Err(ServeError::Hung));
        let restart = self.decide(index, true);
        // First-writer-wins: if the zombie completed in the race window,
        // its own publish won and the watchdog counts nothing.
        self.settle_held(index, ServeError::Hung);
        if let Some(restart) = restart {
            self.restart_slot(index, restart);
        }
    }

    /// Backs off (jittered, interruptibly), provisions a replacement
    /// device through the warm cache, and restarts the slot on it.
    fn restart_slot(&mut self, index: usize, restart: Restart) {
        let Some(ctx) = self.reprovision.as_mut() else {
            return;
        };
        let slot = &mut self.slots[index];
        // Decorrelated-jitter backoff: the word is a pure function of
        // (fleet seed, slot, slot event count), so seeded runs replay
        // identically while simultaneous deaths de-synchronize. Slept in
        // short slices so a drain that begins mid-backoff is never stuck
        // behind the full sleep.
        let events = u64::from(slot.restarts) + u64::from(slot.hangs) + 1;
        let word = splitmix64(
            ctx.seed
                .wrapping_add(0x0042_4143_4b4f_4646_u64.wrapping_mul(index as u64 + 1))
                .wrapping_add(events.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let backoff = ctx
            .policy
            .jittered_backoff(restart.strikes, slot.prev_backoff, word);
        slot.prev_backoff = backoff;
        let mut remaining = backoff;
        while !remaining.is_zero() && !self.shared.shutting_down.load(Ordering::Acquire) {
            let slice = remaining.min(BACKOFF_SLICE);
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
        if self.shared.shutting_down.load(Ordering::Acquire) {
            return; // the slot's error stands; drain reports it
        }
        ctx.replacements += 1;
        // Deterministic and distinct per replacement: a seeded scenario
        // re-run provisions bit-identical replacement devices.
        let replacement_seed = ctx
            .seed
            .wrapping_add(0x5245_5052_4f56u64.wrapping_mul(ctx.replacements));
        match provision_devices_with_cache(
            1,
            &ctx.model_id,
            ctx.model.clone(),
            replacement_seed,
            &mut ctx.cache,
        ) {
            Ok(mut devices) => {
                let device = devices.pop().expect("asked for one device");
                slot.restarts += 1;
                slot.spawned_at = Instant::now();
                // Count the restart while the slot still reads Restarting:
                // an observer that no longer sees the slot recovering must
                // already see the restart in the stats (the chaos
                // harness's await-settled step reads them right after).
                self.shared.restarts.inc();
                let recovered_in = restart.down_at.elapsed();
                self.shared.time_to_recover.record_ns(nanos(recovered_in));
                if let Some(rec) = &self.shared.recorder {
                    rec.record(
                        Shared::submit_ring(rec),
                        Stage::WorkerRestart,
                        index as u64,
                        nanos(recovered_in),
                    );
                }
                // Mark live and bump the live count *before* the spawn, so
                // the count already includes a replacement that dies
                // instantly when the supervisor reaps it.
                self.shared.slot_health.lock()[index] = WorkerHealth::Live;
                self.shared.live_workers.fetch_add(1, Ordering::AcqRel);
                slot.handle = Some(spawn_worker(
                    index,
                    device,
                    &self.shared,
                    self.exit_tx.clone(),
                ));
            }
            Err(e) => {
                // No replacement device to be had: the slot is done.
                slot.outcome = Some(Err(ServeError::from(e)));
                self.quarantine(index, restart.strikes);
            }
        }
    }

    /// Permanently retires a slot as quarantined (crash loop or exhausted
    /// budget).
    fn quarantine(&mut self, index: usize, strikes: u32) {
        // Counter before slot state, for the same reason the restart path
        // counts before marking Live: once the slot stops reading as
        // recovering, its terminal outcome must already be in the stats.
        self.shared.quarantined.inc();
        if let Some(rec) = &self.shared.recorder {
            rec.record(
                Shared::submit_ring(rec),
                Stage::WorkerQuarantine,
                index as u64,
                u64::from(strikes),
            );
        }
        self.retire(index, WorkerHealth::Quarantined);
    }

    /// Marks a slot terminally `health` (`Dead` or `Quarantined`). If that
    /// leaves nobody serving and nobody coming back, the fleet is
    /// terminally down: close the queue and settle whatever is still
    /// queued — with [`ServeError::WorkerPanicked`] when the fleet died
    /// with this slot's panic, [`ServeError::ShuttingDown`] otherwise.
    fn retire(&mut self, index: usize, health: WorkerHealth) {
        let mut slots = self.shared.slot_health.lock();
        slots[index] = health;
        let nobody_left = slots
            .iter()
            .all(|h| matches!(h, WorkerHealth::Quarantined | WorkerHealth::Dead));
        drop(slots);
        if nobody_left {
            let died_panicking = health == WorkerHealth::Dead
                && matches!(
                    self.slots[index].outcome,
                    Some(Err(ServeError::WorkerPanicked))
                );
            self.shared.close_and_sweep(if died_panicking {
                &ServeError::WorkerPanicked
            } else {
                &ServeError::ShuttingDown
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_per_strike_and_caps() {
        let policy = RestartPolicy {
            backoff_initial: Duration::from_millis(10),
            backoff_max: Duration::from_millis(70),
            ..RestartPolicy::default()
        };
        assert_eq!(policy.backoff(1), Duration::from_millis(10));
        assert_eq!(policy.backoff(2), Duration::from_millis(20));
        assert_eq!(policy.backoff(3), Duration::from_millis(40));
        // Capped from here on — no unbounded sleep however long the streak.
        assert_eq!(policy.backoff(4), Duration::from_millis(70));
        assert_eq!(policy.backoff(u32::MAX), Duration::from_millis(70));
        // Strike counts start at 1; 0 degrades to the initial backoff.
        assert_eq!(policy.backoff(0), Duration::from_millis(10));
    }

    #[test]
    fn fleet_health_state_machine() {
        use FleetHealth as F;
        use WorkerHealth as W;
        let cases: &[(&[W], F)] = &[
            (&[W::Live, W::Live], F::Healthy),
            (&[W::Live, W::Down], F::Degraded),
            (&[W::Live, W::Restarting], F::Degraded),
            // Every worker gone but recovery pending: degraded, not dead.
            (&[W::Down, W::Restarting], F::Degraded),
            // A hung slot is recovering (the watchdog preempts and
            // restarts it), not terminal.
            (&[W::Live, W::Hung], F::Degraded),
            (&[W::Hung, W::Hung], F::Degraded),
            (&[W::Hung, W::Quarantined], F::Quarantined),
            // Any quarantined slot dominates while the fleet lives on...
            (&[W::Live, W::Quarantined], F::Quarantined),
            // ...and when the whole fleet is gone, quarantine still names
            // the terminal cause over a generic death.
            (&[W::Quarantined], F::Quarantined),
            (&[W::Quarantined, W::Dead], F::Quarantined),
            // No one serving, no one returning, nothing quarantined.
            (&[W::Dead, W::Dead], F::Dead),
            (&[W::Live, W::Dead], F::Degraded),
        ];
        for (slots, expected) in cases {
            assert_eq!(fleet_health(slots), *expected, "slots {slots:?}");
        }
    }

    #[test]
    fn default_policies_are_sane() {
        let restart = RestartPolicy::default();
        assert!(restart.backoff_initial <= restart.backoff_max);
        assert!(restart.max_restarts >= 1);
        assert!(
            restart.crash_loop_threshold >= 2,
            "one crash must not quarantine"
        );
        let retry = RetryPolicy::default();
        assert!(retry.max_attempts >= 2, "a retry policy that never retries");
        assert!(retry.backoff_initial <= retry.backoff_max);
        assert!(!retry.budget.is_zero());
        let hang = HangPolicy::default();
        assert!(!hang.lease_ttl.is_zero());
        assert!(hang.max_hangs >= 1);
        assert!(
            hang.scan_interval < hang.lease_ttl + hang.grace,
            "a scan slower than the expiry budget adds a full period of \
             detection latency"
        );
    }

    #[test]
    fn restart_jitter_stays_within_bounds_and_is_deterministic() {
        let policy = RestartPolicy {
            backoff_initial: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            ..RestartPolicy::default()
        };
        // Start of a streak (prev == ZERO): exactly the initial backoff,
        // regardless of the jitter word.
        for word in [0u64, 1, u64::MAX, splitmix64(42)] {
            assert_eq!(
                policy.jittered_backoff(1, Duration::ZERO, word),
                policy.backoff_initial
            );
        }
        // Every later pick lands in [initial, backoff(strikes)] and never
        // exceeds 3x the previous pick.
        let mut prev = policy.jittered_backoff(1, Duration::ZERO, splitmix64(0));
        for (i, strikes) in (1..=6u32).cycle().take(500).enumerate() {
            let word = splitmix64(i as u64);
            let picked = policy.jittered_backoff(strikes, prev, word);
            assert!(picked >= policy.backoff_initial, "{picked:?} below floor");
            assert!(
                picked <= policy.backoff(strikes),
                "{picked:?} above the strike-{strikes} ceiling {:?}",
                policy.backoff(strikes)
            );
            assert!(picked <= prev.saturating_mul(3).max(policy.backoff_initial));
            // Same inputs, same pick: bit-identical replays.
            assert_eq!(picked, policy.jittered_backoff(strikes, prev, word));
            prev = picked;
        }
    }

    #[test]
    fn retry_jitter_bounded_by_exponential_ceiling_and_seeded() {
        let policy = RetryPolicy {
            max_attempts: 8,
            backoff_initial: Duration::from_millis(2),
            backoff_max: Duration::from_millis(50),
            budget: Duration::from_secs(5),
            jitter_seed: 7,
        };
        let mut prev = Duration::ZERO;
        let mut schedule = Vec::new();
        for attempt in 1..=8u32 {
            let picked = policy.jittered_backoff(attempt, prev);
            let ceiling = policy
                .backoff_initial
                .saturating_mul(1u32 << (attempt - 1).min(20))
                .min(policy.backoff_max);
            assert!(picked >= policy.backoff_initial);
            assert!(picked <= ceiling, "{picked:?} > {ceiling:?} at {attempt}");
            schedule.push(picked);
            prev = picked;
        }
        assert_eq!(schedule[0], policy.backoff_initial, "first retry is exact");
        // Same seed replays the identical schedule; a different seed
        // diverges somewhere.
        let mut prev = Duration::ZERO;
        let replay: Vec<_> = (1..=8u32)
            .map(|a| {
                let p = policy.jittered_backoff(a, prev);
                prev = p;
                p
            })
            .collect();
        assert_eq!(schedule, replay);
        let reseeded = RetryPolicy {
            jitter_seed: 8,
            ..policy
        };
        let mut prev = Duration::ZERO;
        let other: Vec<_> = (1..=8u32)
            .map(|a| {
                let p = reseeded.jittered_backoff(a, prev);
                prev = p;
                p
            })
            .collect();
        assert_ne!(schedule, other, "jitter_seed must actually decorrelate");
    }
}
