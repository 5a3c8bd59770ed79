//! Cluster-wide consistency checking (diagnostics / test oracle).
//!
//! After quiescence, the GAS must satisfy a set of global invariants that
//! no single locality can see on its own. Tests call [`check_blocks`]
//! after every scenario; embedders can run it whenever their cluster is
//! idle to catch protocol regressions.
//!
//! Three oracles live here:
//!
//! * [`check_blocks`] — end-state invariants: exactly one resident owner
//!   per block, directory agreement, NIC-table agreement, no leaked ops.
//! * [`check_history`] — a *serializability* check over the per-locality
//!   op histories recorded when [`GasConfig::record_history`] is on:
//!   every completed get must return a value some legal serialization of
//!   the recorded puts allows. This catches wrong-data bugs (lost
//!   invalidation delivering stale bytes, duplicated put landing after a
//!   newer one) that leave the end state perfectly tidy.
//! * [`check_word_history_events`] — a word-level *linearizability* check
//!   over the AMO logs ([`WordEvent`]): every value an RMW observed must
//!   have been produced, and (when values are unique) consumed at most
//!   once. A double-applied fetch-and-add surfaces as a phantom read; a
//!   lost-but-acked one as a duplicate consumption.
//!
//! [`GasConfig::record_history`]: crate::GasConfig::record_history

use crate::gva::Gva;
use crate::Stack;
use netsim::{LocalityId, Time};
use std::collections::BTreeMap;

/// What a history event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistKind {
    /// A memput (or local put) of `len` bytes.
    Put,
    /// A memget (or local get) of `len` bytes.
    Get,
    /// A block migration (context for reports; not part of the value
    /// legality relation — migration must preserve contents).
    Migrate,
    /// Crash recovery re-issued the block zero-filled at `issued`. Enters
    /// the legality relation as a block-wide write of zeros: reads after
    /// the recovery may legally observe fresh zeros *or* (if a racing
    /// pre-crash put straddles the window) the old value.
    Recover,
}

/// One logged operation, with its logical-time interval.
///
/// `issued` is when the initiator submitted the op; `done` is when its
/// completion fired (`None` = never completed — failed, or still in
/// flight). The true memory effect happened somewhere inside
/// `[issued, done]`, so wide intervals are *sound*: the checker only
/// reports a violation when **no** placement of the effects inside their
/// intervals can explain a get's value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistEvent {
    /// Event kind.
    pub kind: HistKind,
    /// Block key of the accessed block.
    pub block: u64,
    /// Byte offset within the block.
    pub offset: u64,
    /// Access length in bytes (for migrate: 0).
    pub len: u32,
    /// Value fingerprint: [`value_hash`] of the bytes written/read (for
    /// migrate: the destination locality).
    pub value: u64,
    /// Submission time.
    pub issued: Time,
    /// Completion time (`None` = never completed; a failed put *may have
    /// applied* and is kept as a permanent candidate, never a masker).
    pub done: Option<Time>,
    /// Did the op complete successfully?
    pub ok: bool,
    /// The locality that issued (or, for handler-side events, ran) it.
    pub loc: LocalityId,
}

/// Order-insensitive fingerprint-quality hash of a byte string (the
/// history checker compares fingerprints, never raw payloads).
pub fn value_hash(bytes: &[u8]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ bytes.len() as u64;
    for chunk in bytes.chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        h = netsim::rng::mix64(h ^ u64::from_le_bytes(buf));
    }
    h
}

/// What an AMO-level word event did to its 8-byte word, as the initiator
/// observed it at completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WordOp {
    /// The word was set to `value` (scatter words; masked-put/CAS whose
    /// prior value is folded into `Rmw` instead).
    Write {
        /// The value installed.
        value: u64,
    },
    /// The word was observed to hold `value` without changing it (gather
    /// words, zero-operand fetch-add, failed compare-and-swap, no-op
    /// masked-put).
    Read {
        /// The value observed.
        value: u64,
    },
    /// Atomic read-modify-write: observed `read`, installed `written`
    /// (`written != read` by construction — no-ops log as `Read`).
    Rmw {
        /// The value the op observed.
        read: u64,
        /// The value the op installed.
        written: u64,
    },
    /// An RMW that terminally failed: it *may* have applied, and the
    /// initiator never learned what it observed or installed. Its slot is
    /// exempted from the strict rules (skipping is always sound).
    Opaque,
}

/// One logged word-level event, with its logical-time interval (same
/// interval semantics as [`HistEvent`]: the true memory effect happened
/// somewhere inside `[issued, done]`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WordEvent {
    /// Block key of the accessed block.
    pub block: u64,
    /// Byte offset of the 8-byte word within the block.
    pub offset: u64,
    /// What happened to the word.
    pub op: WordOp,
    /// Submission time.
    pub issued: Time,
    /// Completion time (`None` = never completed).
    pub done: Option<Time>,
    /// Did the op complete successfully?
    pub ok: bool,
    /// The locality that issued it.
    pub loc: LocalityId,
}

/// A violated invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A block has zero or multiple resident owners.
    OwnerCount {
        /// The block.
        gva: Gva,
        /// The residents found.
        owners: Vec<u32>,
    },
    /// The home directory disagrees with actual residency.
    StaleDirectory {
        /// The block.
        gva: Gva,
        /// What the directory says.
        dir_owner: u32,
        /// Who actually holds it.
        actual_owner: u32,
    },
    /// The home directory lost a live block entirely.
    MissingDirectory {
        /// The block.
        gva: Gva,
    },
    /// The owner's NIC entry is absent or points at the wrong storage or
    /// generation; or, without a NIC table, the owner's NIC holds anything.
    NicMismatch {
        /// The block.
        gva: Gva,
        /// Description of the mismatch.
        detail: &'static str,
    },
    /// An operation never completed (initiator-side leak).
    PendingOps {
        /// The locality holding them.
        locality: u32,
        /// How many.
        count: usize,
    },
    /// A completed get returned a value that no legal serialization of
    /// the recorded put history allows.
    History {
        /// The block.
        gva: Gva,
        /// Human-readable description of the illegal read.
        detail: String,
    },
}

impl Violation {
    /// The block key a violation implicates, if any (drives the history
    /// suffix in [`assert_consistent`]'s report).
    pub fn block_key(&self) -> Option<u64> {
        match self {
            Violation::OwnerCount { gva, .. }
            | Violation::StaleDirectory { gva, .. }
            | Violation::MissingDirectory { gva }
            | Violation::NicMismatch { gva, .. }
            | Violation::History { gva, .. } => Some(gva.block_key()),
            Violation::PendingOps { .. } => None,
        }
    }
}

/// Check every invariant for `blocks`; returns all violations found
/// (empty = consistent). The cluster must be quiescent.
pub fn check_blocks(stack: &Stack, blocks: &[Gva]) -> Vec<Violation> {
    let n = stack.n_localities();
    let mut out = Vec::new();
    for &gva in blocks {
        let key = gva.block_key();
        let owners: Vec<u32> = (0..n)
            .filter(|&l| stack.gas[l as usize].btt.is_resident(key))
            .collect();
        if owners.len() != 1 {
            out.push(Violation::OwnerCount {
                gva,
                owners: owners.clone(),
            });
            continue;
        }
        let owner = owners[0];
        // Every mode registers a directory record (PGAS too). Membership
        // may have re-homed it; ask the resident owner's view (quiescence
        // means every view agrees, but the owner's is the one the data
        // path actually consulted).
        let home = stack.gas[owner as usize].member.resolve(key, gva.home());
        match stack.gas[home as usize].dir.peek(key) {
            None => out.push(Violation::MissingDirectory { gva }),
            Some(rec) if rec.owner != owner => out.push(Violation::StaleDirectory {
                gva,
                dir_owner: rec.owner,
                actual_owner: owner,
            }),
            Some(_) => {}
        }
        let xlate = &stack.cluster.loc(owner).nic.xlate;
        let btt = stack.gas[owner as usize].btt.peek(key).expect("resident");
        let detail = match xlate.peek(key) {
            // No NIC table (PGAS, AGAS-SW): the owner's CPU resolves every
            // access, so nothing may have written its NIC.
            _ if !stack.nic_table() => (xlate.live_entries() + xlate.forward_entries() > 0)
                .then_some("owner NIC holds an entry without a table"),
            None => Some("owner NIC has no live entry"),
            Some(e) if e.base != btt.base => Some("NIC base differs from BTT"),
            Some(e) if e.generation != btt.generation => Some("NIC generation differs from BTT"),
            Some(_) => None,
        };
        if let Some(detail) = detail {
            out.push(Violation::NicMismatch { gva, detail });
        }
    }
    for l in 0..n {
        let pending = stack.gas[l as usize].outstanding_ops();
        if pending != 0 {
            out.push(Violation::PendingOps {
                locality: l,
                count: pending,
            });
        }
    }
    out
}

/// Run the serializability check over every locality's recorded history,
/// and the word-level linearizability check over every AMO log.
/// Empty when [`crate::GasConfig::record_history`] was off everywhere.
pub fn check_history(stack: &Stack) -> Vec<Violation> {
    let mut events: Vec<HistEvent> = Vec::new();
    let mut words: Vec<WordEvent> = Vec::new();
    for g in &stack.gas {
        events.extend(g.history.iter().copied());
        words.extend(g.word_history.iter().copied());
    }
    let recovers: Vec<(u64, Time)> = events
        .iter()
        .filter(|e| e.kind == HistKind::Recover)
        .map(|e| (e.block, e.issued))
        .collect();
    let mut out = check_history_events(&events);
    out.extend(check_word_history_events_with_recovery(&words, &recovers));
    out
}

/// The serializability rule, over an explicit event list.
///
/// Events are grouped by exact `(block, offset, len)` slot — partially
/// overlapping accesses are *not* cross-checked (a documented limit; the
/// chaos workloads access disjoint fixed-size slots). Per slot, a
/// completed get `g` is legal iff some put `w` (including the synthetic
/// initial all-zeros state) satisfies:
///
/// 1. `w.value == g.value`,
/// 2. `w.issued ≤ g.done` (the write could have applied before the read
///    took effect), and
/// 3. no *successful* put `w2` fits strictly between them:
///    `w.done < w2.issued && w2.done < g.issued` — such a `w2` must have
///    overwritten `w` before the get started.
///
/// Never-completed puts keep `done = ∞`: they remain candidates forever
/// (they *may* have applied) but can never mask another write. Both rules
/// widen intervals, so the check is sound — a reported violation is a
/// real one under every possible effect placement.
pub fn check_history_events(events: &[HistEvent]) -> Vec<Violation> {
    struct Write {
        issued: Time,
        done: Option<Time>,
        value: u64,
    }
    let mut slots: BTreeMap<(u64, u64, u32), Vec<&HistEvent>> = BTreeMap::new();
    // Crash recoveries zero the whole block: they act as a synthetic
    // all-zeros put on *every* slot of the block, whatever its shape.
    let mut recovers: Vec<(u64, Time)> = Vec::new();
    for e in events {
        if e.kind == HistKind::Recover {
            recovers.push((e.block, e.issued));
            continue;
        }
        if e.kind == HistKind::Migrate {
            continue;
        }
        slots.entry((e.block, e.offset, e.len)).or_default().push(e);
    }
    let mut out = Vec::new();
    for ((block, offset, len), evs) in slots {
        let mut writes = vec![Write {
            issued: Time::ZERO,
            done: Some(Time::ZERO),
            value: value_hash(&vec![0u8; len as usize]),
        }];
        writes.extend(
            recovers
                .iter()
                .filter(|&&(b, _)| b == block)
                .map(|&(_, t)| Write {
                    issued: t,
                    done: Some(t),
                    value: value_hash(&vec![0u8; len as usize]),
                }),
        );
        writes.extend(
            evs.iter()
                .filter(|e| e.kind == HistKind::Put)
                .map(|e| Write {
                    issued: e.issued,
                    done: e.done,
                    value: e.value,
                }),
        );
        for g in evs
            .iter()
            .filter(|e| e.kind == HistKind::Get && e.ok && e.done.is_some())
        {
            let g_done = g.done.unwrap();
            let legal = writes.iter().any(|w| {
                w.value == g.value && w.issued <= g_done && {
                    let w_done = w.done.unwrap_or(Time::MAX);
                    !writes.iter().any(|w2| {
                        w2.done
                            .is_some_and(|d2| w_done < w2.issued && d2 < g.issued)
                    })
                }
            });
            if !legal {
                let candidates: Vec<String> = writes
                    .iter()
                    .map(|w| {
                        format!(
                            "put {:#018x} [{}..{}]",
                            w.value,
                            w.issued,
                            w.done.map_or("∞".into(), |d| d.to_string())
                        )
                    })
                    .collect();
                out.push(Violation::History {
                    gva: Gva(block),
                    detail: format!(
                        "get at loc {} (offset {offset}, len {len}) returned {:#018x} \
                         over [{}..{}], but no serialization of {} recorded put(s) \
                         allows it: {}",
                        g.loc,
                        g.value,
                        g.issued,
                        g_done,
                        writes.len(),
                        candidates.join(", ")
                    ),
                });
            }
        }
    }
    out
}

/// The word-level linearizability rule, over an explicit AMO event list.
///
/// Events are grouped by `(block, offset)` word. Per word, with the
/// *produced* values being the initial zero, every `Write`'s value
/// (including never-completed writes — they may have applied), and every
/// successful `Rmw`'s `written`:
///
/// 1. **No phantom reads** — every successful `Read`/`Rmw` must have
///    observed a produced value whose producer was issued no later than
///    the observer's completion. A double-applied fetch-and-add makes the
///    next observer read a value nobody produced.
/// 2. **Unique consumption** — when all produced values are distinct,
///    each may be consumed (observed as the `read` of a *mutating* `Rmw`)
///    at most once. An acked-but-lost RMW leaves its observed value in
///    place for a second RMW to consume.
///
/// A word touched by any [`WordOp::Opaque`] event (a terminally-failed
/// RMW whose effect the initiator never learned) is exempted from both
/// rules — skipping is sound, and the fault-recovery machinery keeps such
/// words rare. Rule 2 likewise disables itself when produced values
/// repeat. Both exemptions only ever weaken the check, so a reported
/// violation is real under every possible effect placement.
pub fn check_word_history_events(events: &[WordEvent]) -> Vec<Violation> {
    check_word_history_events_with_recovery(events, &[])
}

/// [`check_word_history_events`], with crash recoveries folded in: each
/// `(block, time)` recovery re-produces zero on every word of the block
/// (the recovered storage is zero-filled). A second zero producer makes
/// the word's produced values non-distinct, which auto-disables the
/// unique-consumption rule there — exactly the weakening recovery
/// requires, since a pre- and a post-crash RMW may both legally observe
/// zero.
pub fn check_word_history_events_with_recovery(
    events: &[WordEvent],
    recovers: &[(u64, Time)],
) -> Vec<Violation> {
    let mut slots: BTreeMap<(u64, u64), Vec<&WordEvent>> = BTreeMap::new();
    for e in events {
        slots.entry((e.block, e.offset)).or_default().push(e);
    }
    let mut out = Vec::new();
    for ((block, offset), evs) in slots {
        if evs.iter().any(|e| matches!(e.op, WordOp::Opaque)) {
            continue;
        }
        struct Produced {
            value: u64,
            issued: Time,
        }
        let mut produced = vec![Produced {
            value: 0,
            issued: Time::ZERO,
        }];
        produced.extend(
            recovers
                .iter()
                .filter(|&&(b, _)| b == block)
                .map(|&(_, t)| Produced {
                    value: 0,
                    issued: t,
                }),
        );
        for e in &evs {
            match e.op {
                // A failed write may still have applied: keep it as a
                // candidate producer (same treatment as failed puts in
                // the byte-level checker).
                WordOp::Write { value } => produced.push(Produced {
                    value,
                    issued: e.issued,
                }),
                WordOp::Rmw { written, .. } if e.ok => produced.push(Produced {
                    value: written,
                    issued: e.issued,
                }),
                _ => {}
            }
        }
        let explain = |v: u64| -> String {
            format!(
                "word {block:#x}+{offset}: value {v:#018x} vs {} produced value(s): {}",
                produced.len(),
                produced
                    .iter()
                    .map(|p| format!("{:#018x}@{}", p.value, p.issued))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        // Rule 1: phantom reads.
        for e in &evs {
            let (observed, what) = match e.op {
                WordOp::Read { value } if e.ok => (value, "read"),
                WordOp::Rmw { read, .. } if e.ok => (read, "rmw"),
                _ => continue,
            };
            let end = e.done.unwrap_or(Time::MAX);
            if !produced
                .iter()
                .any(|p| p.value == observed && p.issued <= end)
            {
                out.push(Violation::History {
                    gva: Gva(block),
                    detail: format!(
                        "{what} at loc {} observed a value nobody produced — {}",
                        e.loc,
                        explain(observed)
                    ),
                });
            }
        }
        // Rule 2: unique consumption, only when produced values are
        // pairwise distinct (otherwise two legal RMWs can observe the
        // same value and the rule would be unsound).
        let mut values: Vec<u64> = produced.iter().map(|p| p.value).collect();
        values.sort_unstable();
        let distinct = values.windows(2).all(|w| w[0] != w[1]);
        if distinct {
            let mut consumed: BTreeMap<u64, u32> = BTreeMap::new();
            for e in &evs {
                if let WordOp::Rmw { read, .. } = e.op {
                    if e.ok {
                        *consumed.entry(read).or_insert(0) += 1;
                    }
                }
            }
            for (v, count) in consumed {
                if count > 1 {
                    out.push(Violation::History {
                        gva: Gva(block),
                        detail: format!(
                            "{count} atomic RMWs all consumed the same value \
                             (an acked op must have been lost) — {}",
                            explain(v)
                        ),
                    });
                }
            }
        }
    }
    out
}

/// The trailing history (up to `limit` events) touching `block`, across
/// all localities, formatted one per line.
fn history_suffix(stack: &Stack, block: u64, limit: usize) -> String {
    let mut events: Vec<HistEvent> = stack
        .gas
        .iter()
        .flat_map(|g| g.history.iter().copied())
        .filter(|e| e.block == block)
        .collect();
    if events.is_empty() {
        return String::from("    (no history recorded for this block)\n");
    }
    events.sort_by_key(|e| (e.issued, e.loc));
    let skipped = events.len().saturating_sub(limit);
    let mut s = String::new();
    if skipped > 0 {
        s.push_str(&format!("    … {skipped} earlier event(s) elided …\n"));
    }
    for e in events.iter().skip(skipped) {
        s.push_str(&format!(
            "    {:?} loc={} off={} len={} value={:#018x} issued={} done={} ok={}\n",
            e.kind,
            e.loc,
            e.offset,
            e.len,
            e.value,
            e.issued,
            e.done.map_or("∞".into(), |d| d.to_string()),
            e.ok
        ));
    }
    s
}

/// Panic with a readable report if any invariant — end-state or history —
/// is violated. Every violation is listed (not just the first), each with
/// its block key, the active GAS mode, and the offending block's trailing
/// history.
pub fn assert_consistent(stack: &Stack, blocks: &[Gva]) {
    let mut violations = check_blocks(stack, blocks);
    violations.extend(check_history(stack));
    if violations.is_empty() {
        return;
    }
    let mode = stack.mode;
    let mut report = format!(
        "GAS consistency violated under {}: {} violation(s)\n",
        mode.label(),
        violations.len()
    );
    for (i, v) in violations.iter().enumerate() {
        match v.block_key() {
            Some(key) => {
                report.push_str(&format!(
                    "\n[{i}] block {key:#x} ({}): {v:?}\n",
                    mode.label()
                ));
                report.push_str(&history_suffix(stack, key, 8));
            }
            None => report.push_str(&format!("\n[{i}] {v:?}\n")),
        }
    }
    panic!("{report}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: HistKind, value: u64, issued: u64, done: Option<u64>, ok: bool) -> HistEvent {
        HistEvent {
            kind,
            block: 0x40,
            offset: 8,
            len: 8,
            value,
            issued: Time::from_ns(issued),
            done: done.map(Time::from_ns),
            ok,
            loc: 0,
        }
    }

    #[test]
    fn fresh_block_reads_zero() {
        let zeros = value_hash(&[0u8; 8]);
        let h = [ev(HistKind::Get, zeros, 5, Some(10), true)];
        assert!(check_history_events(&h).is_empty());
        let bad = [ev(HistKind::Get, 0xBEEF, 5, Some(10), true)];
        assert_eq!(check_history_events(&bad).len(), 1);
    }

    #[test]
    fn read_your_write_is_legal() {
        let h = [
            ev(HistKind::Put, 0xA, 0, Some(10), true),
            ev(HistKind::Get, 0xA, 20, Some(30), true),
        ];
        assert!(check_history_events(&h).is_empty());
    }

    #[test]
    fn stale_read_past_a_newer_write_is_flagged() {
        // v1 fully done by 10, v2 fully done by 30, get starts at 40 but
        // still returns v1: v2 fits strictly between — illegal.
        let h = [
            ev(HistKind::Put, 0xA, 0, Some(10), true),
            ev(HistKind::Put, 0xB, 20, Some(30), true),
            ev(HistKind::Get, 0xA, 40, Some(50), true),
        ];
        let v = check_history_events(&h);
        assert_eq!(v.len(), 1);
        match &v[0] {
            Violation::History { gva, detail } => {
                assert_eq!(gva.0, 0x40);
                assert!(detail.contains("no serialization"), "{detail}");
            }
            other => panic!("wrong violation: {other:?}"),
        }
    }

    #[test]
    fn overlapping_put_and_get_allow_either_value() {
        // The get overlaps v2's interval: it may see v1 or v2.
        let old = [
            ev(HistKind::Put, 0xA, 0, Some(10), true),
            ev(HistKind::Put, 0xB, 20, Some(30), true),
            ev(HistKind::Get, 0xA, 25, Some(35), true),
        ];
        assert!(check_history_events(&old).is_empty());
        let new = [
            ev(HistKind::Put, 0xA, 0, Some(10), true),
            ev(HistKind::Put, 0xB, 20, Some(30), true),
            ev(HistKind::Get, 0xB, 25, Some(35), true),
        ];
        assert!(check_history_events(&new).is_empty());
    }

    #[test]
    fn failed_put_may_have_applied_but_never_masks() {
        // v2's put never completed: reading v2 later is legal (it may have
        // applied), and reading v1 later is *also* legal (it may not have).
        let h = [
            ev(HistKind::Put, 0xA, 0, Some(10), true),
            ev(HistKind::Put, 0xB, 20, None, false),
            ev(HistKind::Get, 0xB, 40, Some(50), true),
            ev(HistKind::Get, 0xA, 60, Some(70), true),
        ];
        assert!(check_history_events(&h).is_empty());
    }

    #[test]
    fn distinct_slots_never_interact() {
        let mut a = ev(HistKind::Put, 0xA, 0, Some(10), true);
        a.offset = 0;
        let mut g = ev(HistKind::Get, 0xCAFE, 40, Some(50), true);
        g.offset = 64;
        // Wrong value at offset 64, but zeros hash to... not 0xCAFE either:
        // one violation, and the put at offset 0 is not consulted.
        let v = check_history_events(&[a, g]);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn failed_and_incomplete_gets_assert_nothing() {
        let h = [
            ev(HistKind::Get, 0xBAD, 5, None, false),
            ev(HistKind::Get, 0xBAD, 5, Some(9), false),
        ];
        assert!(check_history_events(&h).is_empty());
    }

    #[test]
    fn migrations_are_context_only() {
        let zeros = value_hash(&[0u8; 8]);
        let h = [
            ev(HistKind::Migrate, 3, 1, Some(2), true),
            ev(HistKind::Get, zeros, 5, Some(10), true),
        ];
        assert!(check_history_events(&h).is_empty());
    }

    #[test]
    fn recovery_reproduces_zeros() {
        let zeros = value_hash(&[0u8; 8]);
        // Put lands, crash recovery zeroes the block, later read sees
        // zeros again: legal only because of the Recover event.
        let h = [
            ev(HistKind::Put, 0xA, 5, Some(10), true),
            ev(HistKind::Recover, 0, 20, Some(20), true),
            ev(HistKind::Get, zeros, 30, Some(40), true),
        ];
        assert!(check_history_events(&h).is_empty());
        let without = [h[0], h[2]];
        assert_eq!(check_history_events(&without).len(), 1);
    }

    #[test]
    fn recovery_masks_fully_earlier_puts() {
        // The put finished before recovery zeroed the block; reading its
        // value afterwards means the zero-fill was lost.
        let h = [
            ev(HistKind::Put, 0xA, 0, Some(10), true),
            ev(HistKind::Recover, 0, 20, Some(20), true),
            ev(HistKind::Get, 0xA, 30, Some(40), true),
        ];
        assert_eq!(check_history_events(&h).len(), 1);
        // A put straddling the recovery window stays a candidate (its
        // retry may have re-applied after the zero-fill).
        let straddle = [
            ev(HistKind::Put, 0xA, 0, Some(25), true),
            ev(HistKind::Recover, 0, 20, Some(20), true),
            ev(HistKind::Get, 0xA, 30, Some(40), true),
        ];
        assert!(check_history_events(&straddle).is_empty());
    }

    #[test]
    fn value_hash_distinguishes_contents_and_length() {
        assert_ne!(value_hash(&[0u8; 8]), value_hash(&[0u8; 16]));
        assert_ne!(value_hash(&[1u8; 8]), value_hash(&[2u8; 8]));
        assert_eq!(value_hash(b"same"), value_hash(b"same"));
    }

    fn wev(op: WordOp, issued: u64, done: Option<u64>, ok: bool) -> WordEvent {
        WordEvent {
            block: 0x40,
            offset: 8,
            op,
            issued: Time::from_ns(issued),
            done: done.map(Time::from_ns),
            ok,
            loc: 0,
        }
    }

    #[test]
    fn fetch_add_chain_is_legal() {
        // 0 → 1 → 2 → 3, each FAA consuming the previous written value.
        let h = [
            wev(
                WordOp::Rmw {
                    read: 0,
                    written: 1,
                },
                0,
                Some(10),
                true,
            ),
            wev(
                WordOp::Rmw {
                    read: 1,
                    written: 2,
                },
                5,
                Some(20),
                true,
            ),
            wev(
                WordOp::Rmw {
                    read: 2,
                    written: 3,
                },
                15,
                Some(30),
                true,
            ),
            wev(WordOp::Read { value: 3 }, 40, Some(50), true),
        ];
        assert!(check_word_history_events(&h).is_empty());
    }

    #[test]
    fn phantom_read_is_flagged() {
        // Nobody produced 7: the canonical double-apply signature (a
        // replayed FAA bumped the word once too often).
        let h = [
            wev(
                WordOp::Rmw {
                    read: 0,
                    written: 1,
                },
                0,
                Some(10),
                true,
            ),
            wev(
                WordOp::Rmw {
                    read: 7,
                    written: 8,
                },
                20,
                Some(30),
                true,
            ),
        ];
        let v = check_word_history_events(&h);
        assert_eq!(v.len(), 1);
        match &v[0] {
            Violation::History { detail, .. } => {
                assert!(detail.contains("nobody produced"), "{detail}");
            }
            other => panic!("wrong violation: {other:?}"),
        }
    }

    #[test]
    fn duplicate_consumption_is_flagged() {
        // Two successful RMWs both observed 1: the first's effect was
        // acknowledged but lost.
        let h = [
            wev(
                WordOp::Rmw {
                    read: 0,
                    written: 1,
                },
                0,
                Some(10),
                true,
            ),
            wev(
                WordOp::Rmw {
                    read: 1,
                    written: 2,
                },
                15,
                Some(25),
                true,
            ),
            wev(
                WordOp::Rmw {
                    read: 1,
                    written: 3,
                },
                30,
                Some(40),
                true,
            ),
        ];
        let v = check_word_history_events(&h);
        assert_eq!(v.len(), 1, "{v:?}");
        match &v[0] {
            Violation::History { detail, .. } => {
                assert!(detail.contains("consumed the same value"), "{detail}");
            }
            other => panic!("wrong violation: {other:?}"),
        }
    }

    #[test]
    fn opaque_event_exempts_its_word() {
        // The failed RMW may have applied anything: both the phantom read
        // and the duplicate consumption become explicable, so the slot is
        // skipped entirely.
        let h = [
            wev(WordOp::Opaque, 0, None, false),
            wev(
                WordOp::Rmw {
                    read: 7,
                    written: 8,
                },
                20,
                Some(30),
                true,
            ),
            wev(
                WordOp::Rmw {
                    read: 7,
                    written: 9,
                },
                40,
                Some(50),
                true,
            ),
        ];
        assert!(check_word_history_events(&h).is_empty());
    }

    #[test]
    fn repeated_produced_values_disable_uniqueness() {
        // A write re-produces 1 after the first RMW consumed it, so two
        // consumptions of 1 are legal — and the checker must notice the
        // produced multiset is no longer distinct.
        let h = [
            wev(
                WordOp::Rmw {
                    read: 0,
                    written: 1,
                },
                0,
                Some(10),
                true,
            ),
            wev(
                WordOp::Rmw {
                    read: 1,
                    written: 2,
                },
                15,
                Some(25),
                true,
            ),
            wev(WordOp::Write { value: 1 }, 30, Some(35), true),
            wev(
                WordOp::Rmw {
                    read: 1,
                    written: 2,
                },
                40,
                Some(50),
                true,
            ),
        ];
        assert!(check_word_history_events(&h).is_empty());
    }

    #[test]
    fn failed_write_remains_a_candidate_producer() {
        // The lost scatter word may have landed: reading it is legal.
        let h = [
            wev(WordOp::Write { value: 5 }, 0, None, false),
            wev(WordOp::Read { value: 5 }, 20, Some(30), true),
            wev(WordOp::Read { value: 0 }, 40, Some(50), true),
        ];
        assert!(check_word_history_events(&h).is_empty());
    }

    #[test]
    fn producer_must_precede_observer_completion() {
        // The only producer of 9 was issued after the read finished.
        let h = [
            wev(WordOp::Read { value: 9 }, 0, Some(10), true),
            wev(
                WordOp::Rmw {
                    read: 0,
                    written: 9,
                },
                20,
                Some(30),
                true,
            ),
        ];
        let v = check_word_history_events(&h);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn word_recovery_reproduces_zero_and_relaxes_uniqueness() {
        // RMW consumes the initial zero; the crash re-zeroes the word; a
        // post-recovery RMW legally consumes zero *again*.
        let h = [
            wev(
                WordOp::Rmw {
                    read: 0,
                    written: 1,
                },
                0,
                Some(10),
                true,
            ),
            wev(
                WordOp::Rmw {
                    read: 0,
                    written: 2,
                },
                30,
                Some(40),
                true,
            ),
        ];
        assert_eq!(check_word_history_events(&h).len(), 1);
        let recovers = [(0x40u64, Time::from_ns(20))];
        assert!(check_word_history_events_with_recovery(&h, &recovers).is_empty());
        // Recovery on a different block changes nothing.
        let other = [(0x9999u64, Time::from_ns(20))];
        assert_eq!(check_word_history_events_with_recovery(&h, &other).len(), 1);
    }

    #[test]
    fn distinct_words_are_independent() {
        let mut a = wev(
            WordOp::Rmw {
                read: 0,
                written: 1,
            },
            0,
            Some(10),
            true,
        );
        a.offset = 0;
        let mut b = wev(
            WordOp::Rmw {
                read: 1,
                written: 2,
            },
            20,
            Some(30),
            true,
        );
        b.offset = 16; // nobody produced 1 at offset 16
        let v = check_word_history_events(&[a, b]);
        assert_eq!(v.len(), 1);
    }
}
