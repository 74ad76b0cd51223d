//! Shared infrastructure for the CFG/dataflow rules (guard-discipline,
//! lock-order, io-under-lock): scoping, parsing, lowering, and the
//! interprocedural call summaries they consult.
//!
//! Summaries are keyed by *bare function name* — the linter has no
//! type information, so `store.evict(…)` resolves to every fn named
//! `evict` in scope and their effects union (conservative). Two
//! deliberate precision choices:
//!
//! * Hyper-generic names (`read`, `write`, `new`, `get`, …) do NOT
//!   propagate through summaries — attribution for those comes from
//!   the call site's receiver (`pager.read(…)` is disk I/O because the
//!   receiver is pager-shaped), otherwise every `Formatter::write`
//!   would taint the workspace.
//! * Closure bodies are lowered and analyzed as their own
//!   pseudo-functions but contribute nothing to their enclosing fn's
//!   summary: a closure handed to `thread::spawn` runs on another
//!   thread, so its acquisitions are not the spawner's.

use std::collections::{BTreeSet, HashMap};

use crate::ast;
use crate::cfg::{self, CallInfo, FnCfg, Step};
use crate::context::{FileCtx, FileRole};

/// Path prefixes the dataflow rules analyze: the out-of-core layer,
/// everything that feeds it, and the sharded-execution supervisor
/// (whose worker loops hold pins across channel sends).
pub const SCOPE: &[&str] =
    &["crates/storage/src/", "crates/index/src/", "crates/core/src/", "crates/shard/src/"];

/// One in-scope file: its context plus lowered CFGs.
pub struct FlowFile<'c, 'a> {
    pub ctx: &'c FileCtx<'a>,
    pub cfgs: Vec<FnCfg>,
}

/// True when the dataflow rules cover this file.
pub fn in_scope(ctx: &FileCtx) -> bool {
    ctx.role == FileRole::Src && SCOPE.iter().any(|p| ctx.rel_path.starts_with(p))
}

/// Parses and lowers every in-scope file. Parse recoveries degrade
/// gracefully: whatever parsed still lowers.
pub fn lower_scoped<'c, 'a>(ctxs: &'c [FileCtx<'a>]) -> Vec<FlowFile<'c, 'a>> {
    ctxs.iter()
        .filter(|ctx| in_scope(ctx))
        .map(|ctx| {
            let parsed = ast::parse(ctx);
            FlowFile { ctx, cfgs: cfg::lower_file(&parsed) }
        })
        .collect()
}

/// True when this CFG's body sits inside a `#[cfg(test)]`/`#[test]`
/// region.
pub fn in_test(ctx: &FileCtx, cfg: &FnCfg) -> bool {
    ctx.code.get(cfg.body_lo as usize).is_some_and(|_| ctx.code_in_test(cfg.body_lo as usize))
}

/// A lock/borrow acquisition at a call site.
pub struct LockEvent {
    /// Crate-qualified identity, e.g. `core:mutex:queue` /
    /// `index:cell:inner`. Crate qualification keeps a field named
    /// `inner` in one crate from aliasing another crate's.
    pub id: String,
    pub mutex: bool,
}

/// Short crate tag from a workspace-relative path
/// (`crates/index/src/paged.rs` → `index`).
pub fn crate_tag(rel_path: &str) -> &str {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("ws"),
        _ => "ws",
    }
}

/// Receivers that name the I/O object itself. A borrow of the cell
/// that *holds* the pager is how I/O is serialized, not a hazard.
pub fn io_shaped(segment: &str) -> bool {
    let s = segment.to_ascii_lowercase();
    s.contains("disk") || s.contains("pager") || s == "io" || s == "file"
}

/// Detects a sync-facade mutex lock or RefCell borrow at `c`.
pub fn lock_event(rel_path: &str, c: &CallInfo) -> Option<LockEvent> {
    let tag = crate_tag(rel_path);
    if c.name == "lock" {
        let target = if c.is_method {
            c.recv.as_deref().map(strip_call_suffix)
        } else if c.args.len() == 1 {
            c.args.first().map(|a| strip_call_suffix(a))
        } else {
            None
        }?;
        let seg = ast::last_segment(target);
        return Some(LockEvent { id: format!("{tag}:mutex:{seg}"), mutex: true });
    }
    if c.is_method && (c.name == "borrow" || c.name == "borrow_mut") {
        let recv = c.recv.as_deref().unwrap_or("?");
        let seg = ast::last_segment(strip_call_suffix(recv));
        return Some(LockEvent { id: format!("{tag}:cell:{seg}"), mutex: false });
    }
    None
}

fn strip_call_suffix(s: &str) -> &str {
    s.trim_end_matches("()")
}

/// Direct disk I/O: `read`/`write`/`write_run`/`sync`/`flush` invoked
/// on a disk/pager-shaped receiver.
pub fn direct_io(c: &CallInfo) -> bool {
    if !c.is_method || !matches!(c.name.as_str(), "read" | "write" | "write_run" | "sync" | "flush")
    {
        return false;
    }
    let recv = c.recv.as_deref().unwrap_or("");
    io_shaped(ast::last_segment(strip_call_suffix(recv)))
}

/// Directly blocking operations beyond mutex acquisition: joining a
/// thread, waiting on a channel/condvar, parking, sleeping.
pub fn direct_blocking(c: &CallInfo) -> bool {
    matches!(c.name.as_str(), "join" | "recv" | "recv_timeout" | "wait" | "park" | "sleep")
}

/// Methods that pass a guard value through unchanged:
/// `m.lock().expect(…)` still yields the guard.
const PASSTHROUGH: &[&str] = &["expect", "unwrap", "unwrap_or_else", "map_err", "ok"];

/// True when this call consumes a freshly acquired guard as a chain
/// temporary — its receiver chain or an argument goes through the
/// direct result of a `lock`/`borrow`/`borrow_mut` call. In
/// `lock(&q).pop_front()` the guard dies at the statement's end, so a
/// `let` binding of the *call's* result must not be mistaken for a
/// binding of the guard.
pub fn consumes_guard_temp(c: &CallInfo) -> bool {
    if PASSTHROUGH.contains(&c.name.as_str()) {
        return false;
    }
    let through_acquire =
        |s: &str| s.contains("lock()") || s.contains("borrow()") || s.contains("borrow_mut()");
    c.recv.as_deref().is_some_and(through_acquire) || c.args.iter().any(|a| through_acquire(a))
}

/// A held lock/borrow fact shared by the lock-order and io-under-lock
/// analyses: identity, acquisition token, binding name. `name` is `""`
/// while the guard is an unbound temporary a `let` may still capture,
/// [`CHAINED`] once a chained call has consumed it (it then dies at
/// the statement end), and the binding name once bound.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Held {
    pub id: String,
    pub ci: u32,
    pub name: String,
}

/// Sentinel binding name for chain-consumed guard temporaries; never a
/// Rust identifier.
pub const CHAINED: &str = "\u{0}";

/// Marks every promotable pending guard as chain-consumed. Call at the
/// top of a `Call` transfer when [`consumes_guard_temp`] fires, before
/// the call's own acquisition is genned.
pub fn mark_chained(state: &mut BTreeSet<Held>) {
    let pend: Vec<Held> = state.iter().filter(|h| h.name.is_empty()).cloned().collect();
    for mut h in pend {
        state.remove(&h);
        h.name = CHAINED.to_string();
        state.insert(h);
    }
}

/// `let name = …`: promotable pending guards become bound.
pub fn bind_pending(state: &mut BTreeSet<Held>, name: &str) {
    let pend: Vec<Held> = state.iter().filter(|h| h.name.is_empty()).cloned().collect();
    for mut h in pend {
        state.remove(&h);
        h.name = name.to_string();
        state.insert(h);
    }
}

/// Statement boundary: unbound and chain-consumed temporaries die.
pub fn end_statement(state: &mut BTreeSet<Held>) {
    state.retain(|h| !h.name.is_empty() && h.name != CHAINED);
}

/// A named guard going out of scope (or `drop(name)`).
pub fn drop_named(state: &mut BTreeSet<Held>, name: &str) {
    state.retain(|h| h.name != name);
}

/// Names too generic to resolve by name alone — effects for these are
/// attributed at the call site (receiver shape), never propagated.
const GENERIC_NAMES: &[&str] = &[
    "read",
    "read_into",
    "write",
    "write_run",
    "sync",
    "flush",
    "new",
    "default",
    "clone",
    "get",
    "get_mut",
    "len",
    "push",
    "pop",
    "insert",
    "remove",
    "next",
    "iter",
    "lock",
    "borrow",
    "borrow_mut",
    "drop",
    "join",
    "recv",
    "wait",
    "park",
    "sleep",
    "sort",
    "extend",
    "clear",
    "contains",
    "take",
    "from",
    "into",
];

/// What calling a fn (transitively) does, for interprocedural checks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Summary {
    /// Lock/borrow identities acquired (transiently) inside.
    pub locks: BTreeSet<String>,
    /// Reaches a direct disk I/O call.
    pub io: bool,
    /// Reaches a mutex acquisition or another blocking op.
    pub blocking: bool,
}

/// Name-keyed transitive call summaries over all in-scope files.
pub struct Summaries {
    by_name: HashMap<String, Summary>,
}

impl Summaries {
    pub fn get(&self, callee: &str) -> Option<&Summary> {
        if GENERIC_NAMES.contains(&callee) {
            return None;
        }
        self.by_name.get(callee)
    }
}

/// Builds the summary map: one local pass per fn, then a fixpoint over
/// the name-based call graph.
pub fn summarize(files: &[FlowFile<'_, '_>]) -> Summaries {
    let mut by_name: HashMap<String, Summary> = HashMap::new();
    // Local effects.
    for f in files {
        for cfg in &f.cfgs {
            if cfg.qual_name.contains("::closure") || in_test(f.ctx, cfg) {
                continue;
            }
            let entry = by_name.entry(cfg.fn_name.clone()).or_default();
            for step in cfg.blocks.iter().flat_map(|b| b.steps.iter()) {
                let Step::Call(c) = step else { continue };
                if let Some(ev) = lock_event(f.ctx.rel_path, c) {
                    entry.locks.insert(ev.id.clone());
                    if ev.mutex {
                        entry.blocking = true;
                    }
                }
                if direct_io(c) {
                    entry.io = true;
                }
                if direct_blocking(c) {
                    entry.blocking = true;
                }
            }
        }
    }
    // Transitive closure over named calls.
    loop {
        let mut changed = false;
        for f in files {
            for cfg in &f.cfgs {
                if cfg.qual_name.contains("::closure") || in_test(f.ctx, cfg) {
                    continue;
                }
                let mut add = Summary::default();
                for step in cfg.blocks.iter().flat_map(|b| b.steps.iter()) {
                    let Step::Call(c) = step else { continue };
                    if GENERIC_NAMES.contains(&c.name.as_str()) || c.name == cfg.fn_name {
                        continue;
                    }
                    if let Some(s) = by_name.get(&c.name) {
                        add.locks.extend(s.locks.iter().cloned());
                        add.io |= s.io;
                        add.blocking |= s.blocking;
                    }
                }
                let entry = by_name.entry(cfg.fn_name.clone()).or_default();
                let before = (entry.locks.len(), entry.io, entry.blocking);
                entry.locks.extend(add.locks);
                entry.io |= add.io;
                entry.blocking |= add.blocking;
                if (entry.locks.len(), entry.io, entry.blocking) != before {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    Summaries { by_name }
}

/// Human-readable form of a lock identity:
/// `index:cell:inner` → ``RefCell `inner` (index)``.
pub fn display_lock(id: &str) -> String {
    let mut parts = id.splitn(3, ':');
    let tag = parts.next().unwrap_or("?");
    let kind = parts.next().unwrap_or("?");
    let name = parts.next().unwrap_or("?");
    let kind = if kind == "mutex" { "mutex" } else { "RefCell" };
    format!("{kind} `{name}` ({tag})")
}
