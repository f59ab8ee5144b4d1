//! Deterministic execution profiles for the ASIM II stack.
//!
//! `rtl-obs` answers *how much* work a run did and *how long* it took;
//! this crate answers *where* the work went inside a simulated design:
//! which components evaluate, which selector arms fire, which memory
//! cells are read and written, and which ALU functions execute. That is
//! exactly the data a dirty-cell scheduler needs — a component that
//! evaluates every cycle but never changes is the canonical candidate
//! for skipping.
//!
//! The design mirrors [`Recorder`]'s split between a cheap shared handle
//! and the document it produces:
//!
//! * [`ProfileHook`] — a clonable handle threaded through engine options.
//!   Disabled (the default) it is a no-op costing one `Option` check at
//!   attach time and nothing per cycle; enabled, all clones share one
//!   tally.
//! * [`LaneTally`] — the per-engine hot-path collector: plain `Vec`
//!   counters indexed by component, folded into the hook once, when the
//!   engine drops. Engines pay array increments per event, never a lock.
//! * [`Profile`] — the versioned `asim2-profile v1` document: a sorted
//!   `component/event -> count` map with a byte-stable rendering, so
//!   profiles from different runs, worker counts, or kill+resume splits
//!   can be `cmp`-ed or merged.
//!
//! Determinism contract: every count is a pure function of the simulated
//! work, and the rendering sorts keys, so equal work produces equal
//! bytes. Wall-clock never appears in a profile.
//!
//! [`Recorder`]: rtl_obs::Recorder

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rtl_obs::json::Json;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The profile document format line; bump on breaking shape changes.
pub const FORMAT: &str = "asim2-profile v1";

/// ALU function names in numeric order (`AluFn::number()` order), used
/// as the `op/<name>` event suffix so profiles read without a decoder
/// ring.
pub const ALU_OP_NAMES: [&str; 14] = [
    "zero", "right", "left", "not", "add", "sub", "shl", "mul", "and", "or", "xor", "unused", "eq",
    "lt",
];

/// A cheap, clonable profile tap threaded through engine options.
///
/// Disabled (the [`Default`]) every operation is a no-op; enabled
/// ([`ProfileHook::collecting`]), all clones share one tally that
/// [`ProfileHook::snapshot`] renders as a [`Profile`].
#[derive(Debug, Clone, Default)]
pub struct ProfileHook {
    inner: Option<Arc<Inner>>,
}

/// A hook is a run-time tap, not part of any configuration's identity:
/// two options structs that differ only in their hook configure the same
/// simulation, so hooks always compare equal.
impl PartialEq for ProfileHook {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for ProfileHook {}

#[derive(Debug, Default)]
struct Inner {
    totals: Mutex<BTreeMap<String, u64>>,
}

impl ProfileHook {
    /// The no-op hook (same as [`Default`]); costs nothing per event.
    pub fn disabled() -> Self {
        ProfileHook::default()
    }

    /// A collecting hook: all clones fold into one shared tally.
    pub fn collecting() -> Self {
        ProfileHook {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// `true` when events are being collected. Engines use this to skip
    /// building a [`LaneTally`] at all on the disabled path.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `n` to the `component/event` counter. Zero adds are dropped
    /// so snapshots never carry dead keys.
    pub fn add(&self, component: &str, event: &str, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(inner) = &self.inner {
            let mut totals = inner.totals.lock().unwrap_or_else(|e| e.into_inner());
            *totals.entry(format!("{component}/{event}")).or_insert(0) += n;
        }
    }

    /// Replaces the tally with `profile`'s counters: a run resumed from a
    /// checkpoint carries on from the tally the checkpoint saved. A
    /// no-op for a disabled hook.
    pub fn restore(&self, profile: &Profile) {
        if let Some(inner) = &self.inner {
            *inner.totals.lock().unwrap_or_else(|e| e.into_inner()) = profile.counters.clone();
        }
    }

    /// The counters collected so far, as a document. An empty profile for
    /// a disabled hook.
    pub fn snapshot(&self) -> Profile {
        match &self.inner {
            Some(inner) => Profile {
                counters: inner
                    .totals
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone(),
            },
            None => Profile::default(),
        }
    }
}

/// Static shape of one design component, captured when a tally is built
/// so the hot path indexes plain arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompMeta {
    /// Component name as it appears in the design (the profile key
    /// prefix).
    pub name: String,
    /// Selector arm count (0 for ALUs and memories).
    pub arms: usize,
    /// Memory cell count (0 for combinational components).
    pub cells: usize,
}

impl CompMeta {
    /// A combinational component (ALU or selector without arms tracked).
    pub fn comb(name: impl Into<String>) -> Self {
        CompMeta {
            name: name.into(),
            arms: 0,
            cells: 0,
        }
    }

    /// A selector with `arms` case arms.
    pub fn selector(name: impl Into<String>, arms: usize) -> Self {
        CompMeta {
            name: name.into(),
            arms,
            cells: 0,
        }
    }

    /// A memory with `cells` addressable cells.
    pub fn memory(name: impl Into<String>, cells: usize) -> Self {
        CompMeta {
            name: name.into(),
            arms: 0,
            cells,
        }
    }
}

/// The per-engine hot-path collector: plain `Vec` counters indexed by
/// component (design index order), folded into the shared hook on
/// [`LaneTally::flush`] and on drop. Increment methods are
/// bounds-checked no-ops for out-of-range indices, so instrumentation
/// never has to guard.
#[derive(Debug)]
pub struct LaneTally {
    hook: ProfileHook,
    comps: Vec<CompMeta>,
    evals: Vec<u64>,
    changes: Vec<u64>,
    arms: Vec<Vec<u64>>,
    ops: Vec<[u64; 14]>,
    reads: Vec<Vec<u64>>,
    writes: Vec<Vec<u64>>,
    inputs: Vec<u64>,
    outputs: Vec<u64>,
}

impl LaneTally {
    /// Builds a tally over `comps` feeding `hook`.
    pub fn new(hook: ProfileHook, comps: Vec<CompMeta>) -> Self {
        let n = comps.len();
        LaneTally {
            evals: vec![0; n],
            changes: vec![0; n],
            arms: comps.iter().map(|c| vec![0; c.arms]).collect(),
            ops: vec![[0; 14]; n],
            reads: comps.iter().map(|c| vec![0; c.cells]).collect(),
            writes: comps.iter().map(|c| vec![0; c.cells]).collect(),
            inputs: vec![0; n],
            outputs: vec![0; n],
            comps,
            hook,
        }
    }

    /// One evaluation of component `comp`.
    #[inline]
    pub fn eval(&mut self, comp: usize) {
        if let Some(n) = self.evals.get_mut(comp) {
            *n += 1;
        }
    }

    /// Component `comp` evaluated to a *different* value than it held.
    #[inline]
    pub fn change(&mut self, comp: usize) {
        if let Some(n) = self.changes.get_mut(comp) {
            *n += 1;
        }
    }

    /// Selector `comp` took arm `arm`.
    #[inline]
    pub fn arm(&mut self, comp: usize, arm: usize) {
        if let Some(n) = self.arms.get_mut(comp).and_then(|a| a.get_mut(arm)) {
            *n += 1;
        }
    }

    /// ALU `comp` executed function number `op` (see [`ALU_OP_NAMES`]).
    #[inline]
    pub fn op(&mut self, comp: usize, op: usize) {
        if let Some(n) = self.ops.get_mut(comp).and_then(|a| a.get_mut(op)) {
            *n += 1;
        }
    }

    /// Memory `comp` read cell `cell`.
    #[inline]
    pub fn read(&mut self, comp: usize, cell: usize) {
        if let Some(n) = self.reads.get_mut(comp).and_then(|c| c.get_mut(cell)) {
            *n += 1;
        }
    }

    /// Memory `comp` wrote cell `cell`.
    #[inline]
    pub fn write(&mut self, comp: usize, cell: usize) {
        if let Some(n) = self.writes.get_mut(comp).and_then(|c| c.get_mut(cell)) {
            *n += 1;
        }
    }

    /// Memory `comp` consumed an input word.
    #[inline]
    pub fn input(&mut self, comp: usize) {
        if let Some(n) = self.inputs.get_mut(comp) {
            *n += 1;
        }
    }

    /// Memory `comp` emitted an output word.
    #[inline]
    pub fn output(&mut self, comp: usize) {
        if let Some(n) = self.outputs.get_mut(comp) {
            *n += 1;
        }
    }

    /// Folds every counter counted since the last flush into the hook
    /// and zeroes it, so a hook snapshot taken next covers the lane's
    /// run so far; also runs on drop.
    pub fn flush(&mut self) {
        let take = std::mem::take::<u64>;
        for (i, comp) in self.comps.iter().enumerate() {
            let name = &comp.name;
            self.hook.add(name, "eval", take(&mut self.evals[i]));
            self.hook.add(name, "change", take(&mut self.changes[i]));
            for (a, n) in self.arms[i].iter_mut().enumerate() {
                self.hook.add(name, &format!("arm/{a}"), take(n));
            }
            for (o, n) in self.ops[i].iter_mut().enumerate() {
                self.hook
                    .add(name, &format!("op/{}", ALU_OP_NAMES[o]), take(n));
            }
            for (c, n) in self.reads[i].iter_mut().enumerate() {
                self.hook.add(name, &format!("read/{c}"), take(n));
            }
            for (c, n) in self.writes[i].iter_mut().enumerate() {
                self.hook.add(name, &format!("write/{c}"), take(n));
            }
            self.hook.add(name, "input", take(&mut self.inputs[i]));
            self.hook.add(name, "output", take(&mut self.outputs[i]));
        }
    }
}

impl Drop for LaneTally {
    fn drop(&mut self) {
        self.flush();
    }
}

/// One component's headline numbers, aggregated from a [`Profile`] for
/// the hot-component table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentRow {
    /// Component name.
    pub name: String,
    /// Sum of every counter under this component.
    pub events: u64,
    /// Evaluations (`eval`).
    pub evals: u64,
    /// Value changes (`change`).
    pub changes: u64,
}

impl ComponentRow {
    /// `changes / evals` — the dirty-cell signal. A component with a low
    /// ratio re-evaluates without changing, the canonical skip
    /// candidate. `None` when the component never evaluated.
    pub fn activity(&self) -> Option<f64> {
        (self.evals > 0).then(|| self.changes as f64 / self.evals as f64)
    }
}

/// The versioned profile document: sorted `component/event -> count`.
///
/// Rendering is byte-stable (sorted keys, canonical number formatting),
/// which is what lets CI gate worker-count and resume identity with
/// `cmp`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    counters: BTreeMap<String, u64>,
}

impl Profile {
    /// Adds `n` to `key` (a `component/event` path), saturating at
    /// `u64::MAX`. Zero adds are dropped.
    pub fn add(&mut self, key: &str, n: u64) {
        if n > 0 {
            let count = self.counters.entry(key.to_string()).or_insert(0);
            *count = count.saturating_add(n);
        }
    }

    /// Sums another profile into this one.
    pub fn merge(&mut self, other: &Profile) {
        for (key, n) in &other.counters {
            self.add(key, *n);
        }
    }

    /// Iterates `(key, count)` in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// `true` when no counter is set.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Sum of every counter, saturating at `u64::MAX` (a parsed document
    /// may hold counters no run could reach).
    pub fn total_events(&self) -> u64 {
        self.counters
            .values()
            .fold(0, |sum, &n| sum.saturating_add(n))
    }

    /// Per-component aggregation, sorted by total events descending
    /// (name ascending on ties) — the hot-component table order.
    pub fn components(&self) -> Vec<ComponentRow> {
        let mut by_name: BTreeMap<&str, ComponentRow> = BTreeMap::new();
        for (key, n) in &self.counters {
            let (comp, event) = key.split_once('/').unwrap_or((key.as_str(), ""));
            let row = by_name.entry(comp).or_insert_with(|| ComponentRow {
                name: comp.to_string(),
                events: 0,
                evals: 0,
                changes: 0,
            });
            row.events = row.events.saturating_add(*n);
            match event {
                "eval" => row.evals = row.evals.saturating_add(*n),
                "change" => row.changes = row.changes.saturating_add(*n),
                _ => {}
            }
        }
        let mut rows: Vec<ComponentRow> = by_name.into_values().collect();
        rows.sort_by(|a, b| b.events.cmp(&a.events).then_with(|| a.name.cmp(&b.name)));
        rows
    }

    /// Renders the `asim2-profile v1` document. Byte-stable: sorted
    /// keys, one line per counter.
    pub fn render(&self) -> String {
        let counters = self
            .counters
            .iter()
            .map(|(key, n)| (key.clone(), Json::num(n)))
            .collect();
        Json::Obj(vec![
            ("format".into(), Json::str(FORMAT)),
            ("counters".into(), Json::Obj(counters)),
        ])
        .render()
    }

    /// Parses a rendered document.
    ///
    /// # Errors
    ///
    /// A message naming the first structural problem (wrong format line,
    /// malformed JSON, a duplicate key, a counter that is not an unsigned
    /// integer).
    pub fn parse(text: &str) -> Result<Profile, String> {
        let Json::Obj(fields) = Json::parse(text)? else {
            return Err("a profile must be a JSON object".into());
        };
        let mut format_seen = false;
        let mut counters = BTreeMap::new();
        for (key, value) in fields {
            match (key.as_str(), value) {
                ("format", Json::Str(format)) => {
                    if format != FORMAT {
                        return Err(format!(
                            "unsupported profile format {format:?} (expected {FORMAT:?})"
                        ));
                    }
                    format_seen = true;
                }
                ("counters", Json::Obj(pairs)) => {
                    for (ckey, n) in pairs {
                        let n = n.as_u64().ok_or_else(|| {
                            format!("counter {ckey:?} is not an unsigned integer")
                        })?;
                        counters.insert(ckey, n);
                    }
                }
                ("format" | "counters", _) => {
                    return Err(format!("profile field {key:?} has the wrong type"))
                }
                (other, _) => return Err(format!("unknown profile field {other:?}")),
            }
        }
        if !format_seen {
            return Err("profile document has no format line".into());
        }
        Ok(Profile { counters })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hook_collects_nothing() {
        let hook = ProfileHook::disabled();
        assert!(!hook.enabled());
        hook.add("a", "eval", 5);
        assert!(hook.snapshot().is_empty());
    }

    #[test]
    fn clones_share_one_tally() {
        let hook = ProfileHook::collecting();
        let clone = hook.clone();
        hook.add("a", "eval", 2);
        clone.add("a", "eval", 3);
        clone.add("b", "arm/1", 1);
        let profile = hook.snapshot();
        let counters: Vec<(&str, u64)> = profile.iter().collect();
        assert_eq!(counters, vec![("a/eval", 5), ("b/arm/1", 1)]);
    }

    #[test]
    fn hooks_compare_equal_regardless_of_state() {
        assert_eq!(ProfileHook::disabled(), ProfileHook::collecting());
    }

    #[test]
    fn tally_flushes_non_zero_counters_once() {
        let hook = ProfileHook::collecting();
        {
            let mut tally = LaneTally::new(
                hook.clone(),
                vec![
                    CompMeta::comb("alu"),
                    CompMeta::selector("sel", 3),
                    CompMeta::memory("mem", 4),
                ],
            );
            tally.eval(0);
            tally.eval(0);
            tally.change(0);
            tally.op(0, 4); // add
            tally.arm(1, 2);
            tally.read(2, 1);
            tally.write(2, 3);
            tally.input(2);
            tally.output(2);
            // Out-of-range increments are dropped, not panics.
            tally.eval(99);
            tally.arm(1, 99);
            tally.read(2, 99);
            tally.flush();
            tally.flush(); // nothing new to fold
            tally.eval(0); // folded on drop
        }
        let profile = hook.snapshot();
        let counters: Vec<(&str, u64)> = profile.iter().collect();
        assert_eq!(
            counters,
            vec![
                ("alu/change", 1),
                ("alu/eval", 3),
                ("alu/op/add", 1),
                ("mem/input", 1),
                ("mem/output", 1),
                ("mem/read/1", 1),
                ("mem/write/3", 1),
                ("sel/arm/2", 1),
            ]
        );
    }

    #[test]
    fn render_parse_round_trip_and_byte_stability() {
        let mut a = Profile::default();
        a.add("z/eval", 3);
        a.add("a/op/add", 1);
        let mut b = Profile::default();
        b.add("a/op/add", 1);
        b.add("z/eval", 3);
        assert_eq!(a.render(), b.render(), "insert order never shows");
        let parsed = Profile::parse(&a.render()).unwrap();
        assert_eq!(parsed, a);
        assert!(Profile::parse("{}").is_err(), "format line required");
        assert!(Profile::parse("{\"format\": \"nope\"}").is_err());
    }

    #[test]
    fn a_duplicated_key_is_refused() {
        let mut p = Profile::default();
        p.add("a/eval", 2);
        let text = p.render();
        let dup = text.replace("\"a/eval\": 2", "\"a/eval\": 2,\n    \"a/eval\": 3");
        assert_ne!(dup, text);
        let err = Profile::parse(&dup).unwrap_err();
        assert!(err.contains("duplicate key"), "{err}");
        let dup_format = text.replacen("{", "{\"format\": \"asim2-profile v1\",", 1);
        assert!(Profile::parse(&dup_format).is_err());
    }

    #[test]
    fn every_prefix_of_a_profile_is_refused() {
        let mut p = Profile::default();
        p.add("alu/eval", 7);
        p.add("mem/write/3", u64::MAX);
        let text = p.render();
        let text = text.trim_end();
        for end in 0..text.len() {
            assert!(Profile::parse(&text[..end]).is_err(), "{}", &text[..end]);
        }
    }

    #[test]
    fn tab_and_carriage_return_use_short_escapes() {
        let mut p = Profile::default();
        p.add("odd\tname\r/eval", 1);
        assert!(
            p.render().contains("\"odd\\tname\\r/eval\": 1"),
            "{}",
            p.render()
        );
        assert_eq!(Profile::parse(&p.render()).unwrap(), p);
    }

    #[test]
    fn empty_profile_round_trips() {
        let empty = Profile::default();
        assert_eq!(Profile::parse(&empty.render()).unwrap(), empty);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = Profile::default();
        a.add("x/eval", 2);
        let mut b = Profile::default();
        b.add("x/eval", 3);
        b.add("y/change", 1);
        a.merge(&b);
        let counters: Vec<(&str, u64)> = a.iter().collect();
        assert_eq!(counters, vec![("x/eval", 5), ("y/change", 1)]);
        assert_eq!(a.total_events(), 6);
    }

    #[test]
    fn component_rows_rank_by_events() {
        let mut p = Profile::default();
        p.add("cold/eval", 1);
        p.add("hot/eval", 10);
        p.add("hot/change", 2);
        p.add("hot/op/add", 10);
        let rows = p.components();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "hot");
        assert_eq!(rows[0].events, 22);
        assert_eq!(rows[0].evals, 10);
        assert_eq!(rows[0].changes, 2);
        assert_eq!(rows[0].activity(), Some(0.2));
        assert_eq!(rows[1].name, "cold");
        assert_eq!(rows[1].activity(), Some(0.0));
    }

    #[test]
    fn alu_names_cover_every_function_number() {
        assert_eq!(ALU_OP_NAMES.len(), 14);
        let unique: std::collections::BTreeSet<&str> = ALU_OP_NAMES.iter().copied().collect();
        assert_eq!(unique.len(), 14);
    }
}
