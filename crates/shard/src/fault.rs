//! Process-level fault injection for sharded runs.
//!
//! A [`ShardFaultPlan`] pins failures to exact `(shard key, attempt)`
//! pairs, so every recovery path — lost worker, straggler speculation,
//! checksum rejection, heartbeat loss — is exercised deterministically:
//! the same plan against the same data always produces the same failure
//! schedule, which is what lets CI assert bit-identical recovery. The
//! directive rides inside the task frame and is executed *by the
//! worker*, mirroring how [`csj_storage::FaultPolicy`] makes the
//! storage layer's faults deterministic.

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

use csj_core::CsjError;

use crate::plan::key_string;

/// A single worker-side failure mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker exits without a result: the supervisor sees EOF
    /// (lost-worker detection, then retry).
    Kill,
    /// The worker sleeps this long before its result while heartbeating
    /// (a straggler: triggers speculation / deadlines, not liveness).
    Delay(Duration),
    /// The worker corrupts one byte of its result frame (checksum
    /// reject at the supervisor, treated as a failed attempt).
    Garble,
    /// The worker stops heartbeating and hangs (heartbeat-grace
    /// liveness detection must reap it).
    Stall,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct FaultEntry {
    key: Vec<u32>,
    attempt: u32,
    kind: FaultKind,
}

/// A deterministic schedule of worker failures, keyed by
/// `(shard key, attempt)`.
///
/// The text grammar (CLI `--fault-plan`) is `;`-separated entries of
/// `kind:KEY@ATTEMPT[=MILLIS]` with dotted keys:
///
/// ```text
/// kill:0@1;delay:1@1=300;garble:2@2;stall:1.0@1
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardFaultPlan {
    entries: Vec<FaultEntry>,
}

impl ShardFaultPlan {
    /// An empty plan: no injected faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds a kill of shard `key` on attempt `attempt` (builder style).
    pub fn kill(mut self, key: &[u32], attempt: u32) -> Self {
        self.entries.push(FaultEntry { key: key.to_vec(), attempt, kind: FaultKind::Kill });
        self
    }

    /// Adds a straggler delay of shard `key` on attempt `attempt`.
    pub fn delay(mut self, key: &[u32], attempt: u32, by: Duration) -> Self {
        self.entries.push(FaultEntry { key: key.to_vec(), attempt, kind: FaultKind::Delay(by) });
        self
    }

    /// Adds a result-frame garble of shard `key` on attempt `attempt`.
    pub fn garble(mut self, key: &[u32], attempt: u32) -> Self {
        self.entries.push(FaultEntry { key: key.to_vec(), attempt, kind: FaultKind::Garble });
        self
    }

    /// Adds a heartbeat stall of shard `key` on attempt `attempt`.
    pub fn stall(mut self, key: &[u32], attempt: u32) -> Self {
        self.entries.push(FaultEntry { key: key.to_vec(), attempt, kind: FaultKind::Stall });
        self
    }

    /// The fault to inject for this `(key, attempt)`, if any. First
    /// matching entry wins.
    pub fn directive(&self, key: &[u32], attempt: u32) -> Option<FaultKind> {
        self.entries.iter().find(|e| e.key == key && e.attempt == attempt).map(|e| e.kind)
    }
}

impl fmt::Display for ShardFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ";")?;
            }
            let key = key_string(&e.key);
            match e.kind {
                FaultKind::Kill => write!(f, "kill:{key}@{}", e.attempt)?,
                FaultKind::Delay(d) => write!(f, "delay:{key}@{}={}", e.attempt, d.as_millis())?,
                FaultKind::Garble => write!(f, "garble:{key}@{}", e.attempt)?,
                FaultKind::Stall => write!(f, "stall:{key}@{}", e.attempt)?,
            }
        }
        Ok(())
    }
}

fn parse_key(text: &str) -> Result<Vec<u32>, CsjError> {
    text.split('.')
        .map(|part| {
            part.parse::<u32>().map_err(|_| {
                CsjError::InvalidConfig(format!("bad shard key component {part:?} in fault plan"))
            })
        })
        .collect()
}

impl FromStr for ShardFaultPlan {
    type Err = CsjError;

    fn from_str(s: &str) -> Result<Self, CsjError> {
        let mut plan = ShardFaultPlan::none();
        for entry in s.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            let (kind, rest) = entry.split_once(':').ok_or_else(|| {
                CsjError::InvalidConfig(format!("fault entry {entry:?} lacks 'kind:'"))
            })?;
            let (target, param) = match rest.split_once('=') {
                Some((t, p)) => (t, Some(p)),
                None => (rest, None),
            };
            let (key_text, attempt_text) = target.split_once('@').ok_or_else(|| {
                CsjError::InvalidConfig(format!("fault entry {entry:?} lacks '@attempt'"))
            })?;
            let key = parse_key(key_text)?;
            let attempt: u32 = attempt_text.parse().map_err(|_| {
                CsjError::InvalidConfig(format!("bad attempt {attempt_text:?} in fault plan"))
            })?;
            let fault = match (kind, param) {
                ("kill", None) => FaultKind::Kill,
                ("garble", None) => FaultKind::Garble,
                ("stall", None) => FaultKind::Stall,
                ("delay", Some(ms)) => {
                    let ms: u64 = ms.parse().map_err(|_| {
                        CsjError::InvalidConfig(format!("bad delay millis {ms:?} in fault plan"))
                    })?;
                    FaultKind::Delay(Duration::from_millis(ms))
                }
                ("delay", None) => {
                    return Err(CsjError::InvalidConfig("delay entries need '=millis'".into()))
                }
                _ => {
                    return Err(CsjError::InvalidConfig(format!(
                        "unknown fault kind {kind:?} (kill|delay|garble|stall)"
                    )))
                }
            };
            plan.entries.push(FaultEntry { key, attempt, kind: fault });
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_roundtrips_through_display() {
        let text = "kill:0@1;delay:1@1=300;garble:2@2;stall:1.0@1";
        let plan: ShardFaultPlan = text.parse().unwrap();
        assert_eq!(plan.to_string(), text);
        assert_eq!(plan.directive(&[0], 1), Some(FaultKind::Kill));
        assert_eq!(plan.directive(&[1], 1), Some(FaultKind::Delay(Duration::from_millis(300))));
        assert_eq!(plan.directive(&[2], 2), Some(FaultKind::Garble));
        assert_eq!(plan.directive(&[1, 0], 1), Some(FaultKind::Stall));
        assert_eq!(plan.directive(&[0], 2), None, "attempt 2 of shard 0 is clean");
        assert_eq!(plan.directive(&[3], 1), None, "shard 3 is clean");
    }

    #[test]
    fn builder_matches_grammar() {
        let built = ShardFaultPlan::none().kill(&[0], 1).delay(&[1], 1, Duration::from_millis(300));
        let parsed: ShardFaultPlan = "kill:0@1;delay:1@1=300".parse().unwrap();
        assert_eq!(built, parsed);
        assert!(ShardFaultPlan::none().is_empty());
        assert!(!built.is_empty());
    }

    #[test]
    fn malformed_entries_are_rejected() {
        for bad in
            ["boom:0@1", "kill:0", "kill:x@1", "kill:0@x", "delay:0@1", "delay:0@1=abc", "kill"]
        {
            assert!(bad.parse::<ShardFaultPlan>().is_err(), "{bad:?} must be rejected");
        }
        let empty: ShardFaultPlan = "".parse().unwrap();
        assert!(empty.is_empty(), "empty string is the empty plan");
    }
}
