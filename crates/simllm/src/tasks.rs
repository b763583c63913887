//! Task executors: the simulated model's "reasoning".
//!
//! Prompts are structured: a `### TASK: <name>` line selects the executor
//! and `## SECTION` headers delimit inputs. Executors operate strictly on
//! *attended* lines — anything the attention model dropped is invisible —
//! and draw every stochastic decision from the per-request RNG, so behaviour
//! is deterministic per (model, prompt, salt).

use crate::evidence::{keys as K, Evidence};
use crate::iokb;
use crate::profile::ModelProfile;
use crate::quality;
use crate::rng::{noise, FNV_OFFSET, FNV_PRIME};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;
use tracebench::IssueLabel;

/// A parsed prompt section: header line remainder plus body lines, both
/// borrowed from the attended prompt.
#[derive(Debug, Clone)]
pub struct Section<'a> {
    /// Header text after `## ` (e.g. `SUMMARY 1 I/O Size`).
    pub header: &'a str,
    /// Body lines (trailing whitespace trimmed) until the next section.
    pub body: Vec<&'a str>,
}

/// Parse the task name (`### TASK: x`) from attended lines.
pub fn parse_task(lines: &[&str]) -> Option<String> {
    lines.iter().find_map(|l| {
        l.trim()
            .strip_prefix("### TASK:")
            .map(|t| t.trim().to_lowercase())
    })
}

/// The header text of a `## <header>` line, if `line` is one.
fn header_of(line: &str) -> Option<&str> {
    line.trim().strip_prefix("## ").map(str::trim)
}

/// Split attended lines into sections.
pub fn parse_sections<'a>(lines: &[&'a str]) -> Vec<Section<'a>> {
    let mut out: Vec<Section<'a>> = Vec::new();
    for line in lines {
        if let Some(header) = header_of(line) {
            out.push(Section {
                header,
                body: Vec::new(),
            });
        } else if let Some(cur) = out.last_mut() {
            cur.body.push(line.trim_end());
        }
    }
    out
}

/// Whether `header`, upper-cased, starts with `name` (upper-case ASCII).
/// An ASCII header is compared in place; any other is upper-cased first,
/// because a non-ASCII letter can upper-case to ASCII (`ſOURCE`, with
/// U+017F, reads as `SOURCE`).
fn header_is(header: &str, name: &str) -> bool {
    debug_assert!(!name.bytes().any(|b| b.is_ascii_lowercase()));
    if header.is_ascii() {
        header
            .get(..name.len())
            .is_some_and(|prefix| prefix.eq_ignore_ascii_case(name))
    } else {
        header.to_uppercase().starts_with(name)
    }
}

fn section<'s, 'a>(sections: &'s [Section<'a>], name: &str) -> Option<&'s Section<'a>> {
    sections.iter().find(|s| header_is(s.header, name))
}

// ---------------------------------------------------------------------------
// diagnose
// ---------------------------------------------------------------------------

/// Run the diagnosis task over attended lines.
///
/// `load` is the input-tokens / context-budget ratio (clamped to [0, 1]):
/// heavier prompts make the model both more error-prone at deriving
/// aggregates from raw counter rows and more hallucination-prone.
pub fn diagnose(profile: &ModelProfile, lines: &[&str], load: f64, rng: &mut ChaCha8Rng) -> String {
    let mut ev = Evidence::from_lines(lines);
    // Aggregates the model had to compute itself from raw rows are lost with
    // a probability that grows with prompt load and shrinks with capability
    // (the paper's motivation for pre-computed summary extraction functions:
    // LLMs are unreliable at metadata retrieval over long raw traces).
    if !ev.raw_keys.is_empty() {
        let p_drop = (0.03 + (1.0 - profile.capability) * 0.22 + 0.24 * load.clamp(0.0, 1.0))
            .clamp(0.0, 0.85);
        let raw: Vec<String> = ev.raw_keys.iter().cloned().collect();
        for key in raw {
            if rng.gen_bool(p_drop) {
                ev.values.remove(&key);
            }
        }
    }
    let mut out = String::new();
    out.push_str("I/O Performance Diagnosis\n\n");

    // Misconceptions first: when triggered and ungrounded, they claim the
    // situation is fine and suppress the corresponding (correct) finding.
    let mut suppressed: Vec<IssueLabel> = Vec::new();
    let mut observations: Vec<&'static str> = Vec::new();
    for m in iokb::misconceptions() {
        if (m.trigger)(&ev)
            && !ev.is_grounded(m.corrected_by)
            && rng.gen_bool(profile.misconception_rate)
        {
            suppressed.push(m.suppresses);
            observations.push(m.text);
        }
    }

    let mut found: Vec<IssueLabel> = Vec::new();
    for rule in iokb::rules() {
        if suppressed.contains(&rule.issue) {
            continue;
        }
        let Some(data) = (rule.check)(&ev) else {
            continue;
        };
        let grounded = ev.is_grounded(rule.claim);
        let effective = rule.difficulty - if grounded { 0.18 } else { 0.0 };
        let roll = profile.capability + noise(rng, 0.12);
        if roll < effective {
            continue; // the model fails to connect the dots
        }
        found.push(rule.issue);
        out.push_str(&format!("Issue: {}\n", rule.issue.display_name()));
        out.push_str(&format!("  {} {}\n", rule.explanation, data));
        if profile.verbosity > 1.4 {
            out.push_str(
                "  In the context of this application's overall access pattern this \
                 behaviour compounds with the other characteristics noted below and is \
                 worth addressing early in the optimisation journey.\n",
            );
        }
        out.push_str(&format!("  Recommendation: {}\n", rule.recommendation));
        if grounded {
            for cite in ev.citations_for(rule.claim).into_iter().take(2) {
                out.push_str(&format!("  Reference: {cite}\n"));
            }
        }
        out.push('\n');
    }

    // Hallucination: fabricate one plausible but unsupported issue. Heavier
    // prompts hallucinate more; grounded prompts (with references) much less.
    let grounding_damp = if ev.references.is_empty() { 1.0 } else { 0.3 };
    let p_halluc =
        (profile.hallucination_rate * (0.25 + 0.75 * load.clamp(0.0, 1.0)) * grounding_damp)
            .clamp(0.0, 1.0);
    if rng.gen_bool(p_halluc) {
        let unsupported: Vec<IssueLabel> = IssueLabel::ALL
            .into_iter()
            .filter(|l| !found.contains(l) && !suppressed.contains(l))
            .collect();
        if let Some(l) = unsupported.choose(rng) {
            out.push_str(&format!("Issue: {}\n", l.display_name()));
            out.push_str(
                "  The overall timing profile suggests this behaviour is likely present \
                 and contributing to the slowdown.\n",
            );
            out.push_str("  Recommendation: investigate and restructure the affected path.\n\n");
        }
    }

    if found.is_empty() && out.lines().count() <= 2 {
        out.push_str("No significant I/O performance issues identified from the available data.\n");
    }
    if !observations.is_empty() {
        out.push_str("Observations:\n");
        for o in observations {
            out.push_str(&format!("  {o}\n"));
        }
    }
    // Ungrounded models pad with the high-level, generic advice the paper
    // shows plain LLMs producing (Fig. 1): plausible, broadly applicable,
    // not tied to this application's data.
    if ev.references.is_empty() && !found.is_empty() {
        out.push_str("General suggestions:\n");
        out.push_str(
            "  Recommendation: profile the application further to confirm the dominant cost.\n",
        );
        out.push_str("  Recommendation: consult your facility's I/O tuning documentation for system-specific settings.\n");
        out.push_str("  Recommendation: consider graphically plotting the time series of operations to uncover phases.\n");
    }
    out
}

// ---------------------------------------------------------------------------
// transform (JSON summary fragment → natural language)
// ---------------------------------------------------------------------------

/// Human-readable rendering of a size-bin key (`100K_1M` → `100 KB to 1 MB`).
fn bin_range(bin: &str) -> String {
    let pretty = |s: &str| -> String {
        match s {
            "0" => "0 B".to_string(),
            "100" => "100 B".to_string(),
            "1K" => "1 KB".to_string(),
            "10K" => "10 KB".to_string(),
            "100K" => "100 KB".to_string(),
            "1M" => "1 MB".to_string(),
            "4M" => "4 MB".to_string(),
            "10M" => "10 MB".to_string(),
            "100M" => "100 MB".to_string(),
            "1G" => "1 GB".to_string(),
            other => other.to_string(),
        }
    };
    if bin.ends_with("_PLUS") {
        return format!("above {}", pretty(bin.trim_end_matches("_PLUS")));
    }
    match bin.split_once('_') {
        Some((lo, hi)) => format!("{} to {}", pretty(lo), pretty(hi)),
        None => bin.to_string(),
    }
}

/// Run the JSON→NL transformation task.
pub fn transform(profile: &ModelProfile, lines: &[&str]) -> String {
    let sections = parse_sections(lines);
    let json_text = section(&sections, "JSON")
        .map(|s| s.body.join("\n"))
        .unwrap_or_default();
    let context = section(&sections, "CONTEXT")
        .map(|s| s.body.join(" "))
        .unwrap_or_default();

    let mut out = String::new();
    if profile.verbosity > 1.2 && !context.trim().is_empty() {
        out.push_str(&format!(
            "Considering the application context ({}), the summary can be interpreted as \
             follows. ",
            context.trim()
        ));
    }
    let Ok(value) = serde_json::from_str::<serde_json::Value>(&json_text) else {
        out.push_str("The summary fragment could not be interpreted.");
        return out;
    };
    render_value(&mut out, "", &value);
    out
}

fn render_value(out: &mut String, key_path: &str, v: &serde_json::Value) {
    match v {
        serde_json::Value::Object(map) => {
            let is_histogram = !map.is_empty()
                && map.keys().all(|k| {
                    k.contains('_')
                        && k.chars()
                            .next()
                            .map(|c| c.is_ascii_digit())
                            .unwrap_or(false)
                });
            if is_histogram {
                for (bin, frac) in map {
                    let f = frac.as_f64().unwrap_or(0.0);
                    let what = if key_path.contains("read") {
                        "read operations"
                    } else if key_path.contains("write") {
                        "write operations"
                    } else {
                        "operations"
                    };
                    out.push_str(&format!(
                        "The value of {:.2} in the {} bin indicates that {:.0}% of the {} \
                         fall within the {} range. ",
                        f,
                        bin,
                        f * 100.0,
                        what,
                        bin_range(bin)
                    ));
                }
            } else {
                for (k, val) in map {
                    let path = if key_path.is_empty() {
                        k.clone()
                    } else {
                        format!("{key_path}.{k}")
                    };
                    render_value(out, &path, val);
                }
            }
        }
        serde_json::Value::Number(n) => {
            let name = key_path.replace(['_', '.'], " ");
            out.push_str(&format!("The {} is {}. ", name.trim(), n));
        }
        serde_json::Value::String(s) => {
            let name = key_path.replace(['_', '.'], " ");
            out.push_str(&format!("The {} is {}. ", name.trim(), s));
        }
        serde_json::Value::Bool(b) => {
            let name = key_path.replace(['_', '.'], " ");
            out.push_str(&format!(
                "{} {}. ",
                name.trim(),
                if *b { "is present" } else { "is absent" }
            ));
        }
        serde_json::Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                render_value(out, &format!("{key_path}[{i}]"), item);
            }
        }
        serde_json::Value::Null => {}
    }
}

// ---------------------------------------------------------------------------
// merge
// ---------------------------------------------------------------------------

/// One key point parsed from a summary block.
#[derive(Debug, Clone)]
struct Point {
    key: String,
    line: String,
}

/// Run the merge task: combine `## SUMMARY i <title>` blocks into one.
///
/// Retention is where models differ: merging two documents is reliable
/// (`merge_fidelity`), but every additional simultaneous document costs
/// retention, and middle documents suffer extra positional loss — the
/// effect the paper's tree-based merge is designed around (Fig. 6).
pub fn merge(profile: &ModelProfile, lines: &[&str], rng: &mut ChaCha8Rng) -> String {
    let sections = parse_sections(lines);
    let summaries: Vec<&Section> = sections
        .iter()
        .filter(|s| header_is(s.header, "SUMMARY"))
        .collect();
    let n = summaries.len();
    let mut out = String::from("## MERGED SUMMARY\n");
    if n == 0 {
        return out;
    }

    let base = (profile.merge_fidelity - 0.13 * (n.saturating_sub(2)) as f64).clamp(0.08, 1.0);
    let mut seen_keys: Vec<String> = Vec::new();
    for (i, s) in summaries.iter().enumerate() {
        let middle = n > 2 && i != 0 && i != n - 1;
        let p_keep = if middle { base * 0.75 } else { base };
        for line in &s.body {
            let t = line.trim();
            if !t.starts_with("- POINT[") {
                continue;
            }
            let key = t
                .strip_prefix("- POINT[")
                .and_then(|r| r.split(']').next())
                .unwrap_or("")
                .to_string();
            let point = Point {
                key,
                line: t.to_string(),
            };
            if seen_keys.contains(&point.key) {
                continue; // redundancy removed (that part models do reliably)
            }
            if !rng.gen_bool(p_keep.clamp(0.0, 1.0)) {
                continue; // lost in the merge
            }
            // References ride along with their point but can be dropped
            // individually under load.
            let rendered = if n > 2 && rng.gen_bool(0.35) {
                strip_refs(&point.line)
            } else {
                point.line.clone()
            };
            seen_keys.push(point.key.clone());
            out.push_str(&rendered);
            out.push('\n');
        }
    }
    out
}

fn strip_refs(line: &str) -> String {
    match line.split_once(";; REFS:") {
        Some((head, _)) => head.trim_end().to_string(),
        None => line.to_string(),
    }
}

// ---------------------------------------------------------------------------
// filter (self-reflection relevance judgement)
// ---------------------------------------------------------------------------

/// The filter task's two inputs, indices into [`FilterScan::bodies`].
const FRAGMENT: usize = 0;
const SOURCE: usize = 1;
const FILTER_SECTIONS: [&str; 2] = ["FRAGMENT", "SOURCE"];

/// Where the filter task's inputs stand after a run of prompt lines: the
/// body line ranges of the first `## FRAGMENT` and the first `## SOURCE`
/// section, as [`parse_sections`] would find them. A body still open at
/// the last line scanned ends at `usize::MAX` until a header closes it,
/// so scanning a prompt in two parts finds what scanning it whole does,
/// wherever the headers fall.
#[derive(Debug, Clone, Default)]
struct FilterScan {
    /// Lines scanned so far.
    lines: usize,
    bodies: [Option<Range<usize>>; 2],
}

impl FilterScan {
    /// Scan the prompt's next lines.
    fn feed(&mut self, lines: &[&str]) {
        for line in lines {
            let i = self.lines;
            self.lines += 1;
            let Some(header) = header_of(line) else {
                continue;
            };
            for body in self.bodies.iter_mut().flatten() {
                body.end = body.end.min(i);
            }
            for (body, name) in self.bodies.iter_mut().zip(FILTER_SECTIONS) {
                if body.is_none() && header_is(header, name) {
                    *body = Some(i + 1..usize::MAX);
                }
            }
        }
    }

    /// Input `k`'s body lines: empty when its section is missing, and
    /// running to the end of `lines` when no header closed it.
    fn body<'l, 'a>(&self, k: usize, lines: &'l [&'a str]) -> &'l [&'a str] {
        self.bodies[k]
            .as_ref()
            .map_or(&[], |b| &lines[b.start..b.end.min(lines.len())])
    }
}

/// What the filter task takes from the prompt prefix every call of a
/// batch shares: the section scan of the prefix's lines and, when the
/// FRAGMENT section closes inside the prefix, its token set, built once
/// for the whole batch. The default covers no lines.
#[derive(Debug, Default)]
pub struct FilterPrefix<'a> {
    scan: FilterScan,
    fragment: Option<TokenSet<'a>>,
}

impl<'a> FilterPrefix<'a> {
    /// The state after `lines`, the whole lines the batch's prompts start
    /// with. Non-ASCII FRAGMENT text is lower-cased into `lower`.
    pub fn new(lines: &[&'a str], lower: &'a mut Vec<u8>) -> Self {
        let mut scan = FilterScan::default();
        scan.feed(lines);
        let closed = scan.bodies[FRAGMENT]
            .as_ref()
            .is_some_and(|b| b.end != usize::MAX);
        let fragment = closed.then(|| TokenSet::new(scan.body(FRAGMENT, lines), lower));
        FilterPrefix { scan, fragment }
    }
}

/// A set of distinct tokens, each kept with its FNV hash.
///
/// A token is a run of more than two ASCII alphanumeric bytes in the
/// lower-cased text; a line break separates tokens as a space would. An
/// ASCII line is lower-cased, split and hashed in one pass, and its
/// tokens borrow the line's own bytes in their original case. The set is
/// exact: tokens whose hashes tie are compared by their lower-cased
/// bytes, so a hash collision still compares unequal. A non-ASCII line is
/// lower-cased by the Unicode rules first (`K`, U+212A, becomes `k`), and
/// its multi-byte sequences, whose bytes are all non-alphanumeric, split
/// tokens like any other separator.
#[derive(Debug)]
struct TokenSet<'a> {
    /// The distinct tokens, in first-seen order.
    tokens: Vec<(u64, &'a [u8])>,
    /// Open-addressing index over `tokens`, a power of two long and at
    /// most half full: a slot holds 1 + a token's index, or 0 when free.
    slots: Vec<usize>,
}

impl<'a> TokenSet<'a> {
    /// The set of `lines`; non-ASCII lines are lower-cased into `lower`.
    /// ASCII text needs two allocations, sized up front (a token of three
    /// or more bytes plus its separator takes at least four bytes).
    fn new(lines: &[&'a str], lower: &'a mut Vec<u8>) -> Self {
        let bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
        let mut tokens = Vec::with_capacity(bytes / 4 + 1);
        for line in lines {
            if line.is_ascii() {
                push_tokens(line.as_bytes(), &mut tokens);
            } else {
                lower.extend_from_slice(line.to_lowercase().as_bytes());
                lower.push(b'\n');
            }
        }
        let lower: &'a [u8] = lower;
        push_tokens(lower, &mut tokens);

        // Keep each token's first occurrence, compacting in place.
        let mut set = TokenSet {
            slots: vec![0; (2 * tokens.len()).next_power_of_two().max(2)],
            tokens: Vec::new(),
        };
        let mut distinct = 0;
        for i in 0..tokens.len() {
            let (hash, token) = tokens[i];
            if let Err(slot) = set.find(&tokens[..distinct], hash, token) {
                set.slots[slot] = distinct + 1;
                tokens[distinct] = (hash, token);
                distinct += 1;
            }
        }
        tokens.truncate(distinct);
        set.tokens = tokens;
        set
    }

    /// Probe for `token`: `Ok` if one of `tokens` (the set's) equals it,
    /// else `Err` with the free slot where it belongs.
    fn find(&self, tokens: &[(u64, &[u8])], hash: u64, token: &[u8]) -> Result<(), usize> {
        let mask = self.slots.len() - 1;
        let mut slot = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                i => {
                    let (h, t) = tokens[i - 1];
                    if h == hash && t.eq_ignore_ascii_case(token) {
                        return Ok(());
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Token-set cosine similarity: the tokens the two sets share (each
    /// token of the smaller set looked up in the larger) over the
    /// geometric mean of their sizes; 0 when either set is empty.
    fn cosine(&self, other: &TokenSet<'_>) -> f64 {
        let (a, b) = (self.tokens.len(), other.tokens.len());
        if a == 0 || b == 0 {
            return 0.0;
        }
        let inter = {
            let (small, large) = if a <= b {
                (&self.tokens, other)
            } else {
                (&other.tokens, self)
            };
            small
                .iter()
                .filter(|(hash, token)| large.find(&large.tokens, *hash, token).is_ok())
                .count()
        };
        inter as f64 / ((a as f64).sqrt() * (b as f64).sqrt())
    }
}

/// Each byte lower-cased if it is ASCII alphanumeric, else 0.
static ALNUM_LOWER: [u8; 256] = {
    let mut table = [0; 256];
    let mut b = 0;
    while b < 256 {
        if (b as u8).is_ascii_alphanumeric() {
            table[b] = (b as u8).to_ascii_lowercase();
        }
        b += 1;
    }
    table
};

/// Push the `(hash, token)` pairs of `text`, hashing each token's
/// lower-cased bytes as the split finds them.
fn push_tokens<'a>(text: &'a [u8], tokens: &mut Vec<(u64, &'a [u8])>) {
    let mut start = 0;
    let mut h = FNV_OFFSET;
    for (i, &b) in text.iter().enumerate() {
        match ALNUM_LOWER[usize::from(b)] {
            0 => {
                if i - start > 2 {
                    tokens.push((h, &text[start..i]));
                }
                start = i + 1;
                h = FNV_OFFSET;
            }
            lower => h = (h ^ u64::from(lower)).wrapping_mul(FNV_PRIME),
        }
    }
    if text.len() - start > 2 {
        tokens.push((h, &text[start..]));
    }
}

/// Run the relevance-filter task: is SOURCE useful for FRAGMENT? `lines`
/// start with the lines `prefix` was built from
/// ([`FilterPrefix::default`] when none); only the rest are scanned.
pub fn filter(
    profile: &ModelProfile,
    lines: &[&str],
    prefix: &FilterPrefix<'_>,
    rng: &mut ChaCha8Rng,
) -> String {
    let mut scan = prefix.scan.clone();
    scan.feed(&lines[scan.lines..]);
    let (mut fragment_lower, mut source_lower) = (Vec::new(), Vec::new());
    let built;
    let fragment = match &prefix.fragment {
        Some(set) => set,
        None => {
            built = TokenSet::new(scan.body(FRAGMENT, lines), &mut fragment_lower);
            &built
        }
    };
    let source = TokenSet::new(scan.body(SOURCE, lines), &mut source_lower);
    let sim = fragment.cosine(&source);
    // Weaker models judge relevance more noisily.
    let amp = 0.02 + (1.0 - profile.capability) * 0.08;
    let score = sim + noise(rng, amp);
    if score > 0.12 {
        format!("RELEVANT (similarity signal {score:.2}): the source discusses concepts present in the fragment.")
    } else {
        format!("IRRELEVANT (similarity signal {score:.2}): the source does not bear on the fragment's behaviour.")
    }
}

// ---------------------------------------------------------------------------
// rank (LLM-as-judge)
// ---------------------------------------------------------------------------

/// Run the ranking task over `## CANDIDATE <tag>` blocks.
pub fn rank(profile: &ModelProfile, lines: &[&str], rng: &mut ChaCha8Rng) -> String {
    let sections = parse_sections(lines);
    let criterion = section(&sections, "CRITERION")
        .and_then(|s| s.body.first().cloned())
        .unwrap_or_default()
        .split_whitespace()
        .next()
        .unwrap_or("utility")
        .to_lowercase();
    let ground_truth: Vec<IssueLabel> = section(&sections, "GROUND TRUTH")
        .map(|s| {
            let text = s.body.join(" ");
            text.split(';')
                .filter_map(|part| part.trim().parse::<IssueLabel>().ok())
                .collect()
        })
        .unwrap_or_default();
    let format_order: Vec<String> = section(&sections, "FORMAT")
        .and_then(|s| s.body.first().cloned())
        .and_then(|l| l.split_once(':').map(|(_, v)| v.to_string()))
        .map(|v| v.split(',').map(|t| t.trim().to_string()).collect())
        .unwrap_or_default();

    let candidates: Vec<(&Section, String)> = sections
        .iter()
        .filter(|s| header_is(s.header, "CANDIDATE"))
        .map(|s| {
            let tag = s
                .header
                .split_whitespace()
                .nth(1)
                .unwrap_or("?")
                .to_string();
            (s, tag)
        })
        .collect();
    let n = candidates.len().max(1);

    let mut scored: Vec<(String, f64)> = Vec::new();
    for (pos, (s, tag)) in candidates.iter().enumerate() {
        let text = s.body.join("\n");
        let f = quality::features(&text);
        let base = match criterion.as_str() {
            "accuracy" => {
                let found = crate::report::extract_issues(&text);
                let gt: std::collections::BTreeSet<IssueLabel> =
                    ground_truth.iter().copied().collect();
                if gt.is_empty() {
                    0.5
                } else {
                    let hit = found.intersection(&gt).count() as f64;
                    let recall = hit / gt.len() as f64;
                    let fp = found.difference(&gt).count() as f64;
                    (recall - 0.15 * fp).max(0.0)
                }
            }
            "interpretability" => quality::interpretability_score(&f),
            _ => quality::utility_score(&f),
        };
        // Positional bias: primacy preference over prompt order.
        let primacy = if n > 1 {
            1.0 - 2.0 * pos as f64 / (n - 1) as f64
        } else {
            0.0
        };
        let mut score = base + profile.position_bias * 0.12 * primacy;
        // Rank-assignment-order bias: the first slot in the response format.
        if format_order.first().map(|t| t == tag).unwrap_or(false) {
            score += profile.position_bias * 0.06;
        }
        // Name bias (defeated by anonymisation).
        let tl = tag.to_lowercase();
        if tl.contains("drishti") {
            score += 0.06;
        } else if tl.contains("ion") {
            score -= 0.04;
        } else if tl.contains("ioagent") {
            score += 0.03;
        }
        // Subjective criteria are judged more noisily than accuracy, where
        // the ground truth anchors the comparison.
        let noise_amp = match criterion.as_str() {
            "accuracy" => 0.10,
            "interpretability" => 0.20,
            _ => 0.15,
        };
        score += noise(rng, noise_amp);
        scored.push((tag.clone(), score));
    }
    // NaN-safe ordering: a scoring bug must degrade the ranking, not panic
    // a judge permutation mid-evaluation (same class as the vecindex sort).
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let ranking: Vec<&str> = scored.iter().map(|(t, _)| t.as_str()).collect();
    format!(
        "RANKING: {}\nExplanation: candidates were compared on {criterion}; the top-ranked \
         response best satisfied the criterion with the clearest supporting evidence.\n",
        ranking.join(" > ")
    )
}

// ---------------------------------------------------------------------------
// chat (post-diagnosis interaction)
// ---------------------------------------------------------------------------

/// Run the chat task: answer a follow-up question using the diagnosis
/// context and its references.
pub fn chat(profile: &ModelProfile, lines: &[&str], _rng: &mut ChaCha8Rng) -> String {
    let sections = parse_sections(lines);
    let ev = Evidence::from_lines(lines);
    let question = section(&sections, "QUESTION")
        .map(|s| s.body.join(" "))
        .unwrap_or_default();
    let context = section(&sections, "CONTEXT")
        .map(|s| s.body.join("\n"))
        .unwrap_or_default();
    let q = question.to_lowercase();

    let mut out = String::new();
    let cite = |out: &mut String, needle: &str| {
        for line in context.lines() {
            if line.contains('[') && line.to_lowercase().contains(needle) {
                if let Some(start) = line.find('[') {
                    if let Some(end) = line[start..].find(']') {
                        out.push_str(&format!("Reference: {}\n", &line[start..start + end + 1]));
                        return;
                    }
                }
            }
        }
    };

    if q.contains("stripe") || q.contains("striping") || q.contains("lustre") {
        let transfer = ev.get_or("dominant_transfer", 4.0 * 1024.0 * 1024.0);
        let mb = (transfer / (1024.0 * 1024.0)).round().max(1.0);
        let nprocs = ev.get_or(K::NPROCS, 8.0);
        let count = nprocs.clamp(4.0, 16.0) as i64;
        out.push_str(&format!(
            "To fix the suboptimal stripe settings, set the stripe size to match your \
             dominant {mb:.0} MB transfer size and widen the stripe count so multiple \
             OSTs share the load. On the output directory (new files inherit the layout):\n\n\
             \tlfs setstripe -S {mb:.0}M -c {count} /path/to/output\n\n\
             Re-create the files after changing the layout — striping is fixed at file \
             creation. With {nprocs:.0} ranks, a stripe count of {count} lets writes \
             proceed in parallel across servers instead of serialising on one OST.\n"
        ));
        cite(&mut out, "strip");
    } else if q.contains("collective") || q.contains("mpi") {
        out.push_str(
            "Switch the shared-file path to collective operations: replace \
             MPI_File_write/read with MPI_File_write_all/read_all, and enable collective \
             buffering via hints (romio_cb_write=enable, cb_buffer_size a multiple of the \
             stripe size). Aggregator ranks will coalesce the small independent requests \
             into large aligned transfers.\n",
        );
        cite(&mut out, "collective");
    } else if q.contains("small") || q.contains("aggregat") || q.contains("buffer") {
        out.push_str(
            "Aggregate before you write: buffer records into multi-megabyte segments \
             (≥ 4 MB) and flush them with one call. If restructuring is costly, delegate \
             aggregation to collective MPI-IO or to HDF5 with an appropriately sized chunk \
             cache.\n",
        );
        cite(&mut out, "small");
    } else if q.contains("align") {
        out.push_str(
            "Pad each record to a multiple of the stripe size and start each rank's \
             region on a stripe boundary; this removes read-modify-write cycles and \
             extent-lock conflicts.\n",
        );
        cite(&mut out, "align");
    } else if q.contains("metadata") || q.contains("open") || q.contains("stat") {
        out.push_str(
            "Reduce metadata pressure: open files once and reuse handles, batch stat \
             calls, and consolidate many small files into fewer container files (HDF5 \
             groups or tar-style archives).\n",
        );
        cite(&mut out, "metadata");
    } else if q.contains("random") {
        out.push_str(
            "Sort or batch requests by offset before issuing them, or stage the dataset \
             into node-local storage where random access is cheap.\n",
        );
        cite(&mut out, "sequent");
    } else {
        out.push_str(
            "Based on the diagnosis above, prioritise the highest-impact issue first and \
             re-collect a Darshan trace after each change to confirm the effect. Could \
             you point me at the specific issue you would like help fixing?\n",
        );
    }
    if profile.verbosity > 1.5 {
        out.push_str(
            "If you share the updated trace after applying this change, I can verify the \
             issue is resolved and look for the next bottleneck.\n",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_or_panic;
    use crate::rng::{rng_for, stable_hash};

    fn lines(s: &str) -> Vec<&str> {
        s.lines().collect()
    }

    #[test]
    fn task_and_sections_parse() {
        let l = lines(
            "### TASK: merge\n## SUMMARY 1 Size\n- POINT[a] x\n## SUMMARY 2 Meta\n- POINT[b] y",
        );
        assert_eq!(parse_task(&l).as_deref(), Some("merge"));
        let s = parse_sections(&l);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].header, "SUMMARY 1 Size");
        assert_eq!(s[1].body, vec!["- POINT[b] y"]);
    }

    #[test]
    fn diagnose_finds_planted_issue_with_capable_model() {
        let p = profile_or_panic("gpt-4o");
        let l = lines(
            "### TASK: diagnose\n\
             EVIDENCE nprocs=16\n\
             EVIDENCE posix.writes=25600\n\
             EVIDENCE posix.small_write_fraction=0.95\n\
             REFERENCE claim=small_io_aggregation cite=[The Cost of Small Requests, SC 2020]",
        );
        let mut rng = rng_for("gpt-4o", stable_hash("t"), 0);
        let outp = diagnose(p, &l, 0.05, &mut rng);
        assert!(outp.contains("Small Write I/O Requests"), "{outp}");
        assert!(outp.contains("Reference: [The Cost of Small Requests, SC 2020]"));
    }

    #[test]
    fn misconception_suppressed_by_grounding() {
        let base = "### TASK: diagnose\n\
                    EVIDENCE nprocs=8\n\
                    EVIDENCE total_bytes=1000000000\n\
                    EVIDENCE lustre.present=1\n\
                    EVIDENCE lustre.stripe_width_mean=1\n\
                    EVIDENCE lustre.osts_used=1\n\
                    EVIDENCE lustre.ost_count=64";
        let grounded = format!(
            "{base}\nREFERENCE claim=stripe_width_parallelism cite=[Striping Decisions, SC 2021]"
        );
        let p = profile_or_panic("gpt-4o");
        // Across many salts, the ungrounded run must sometimes repeat the
        // stripe misconception; the grounded run never does.
        let mut ungrounded_misses = 0;
        for salt in 0..40 {
            let ug = diagnose(
                p,
                &lines(base),
                0.05,
                &mut rng_for("gpt-4o", stable_hash(base), salt),
            );
            if ug.contains("optimal for minimizing") {
                ungrounded_misses += 1;
            }
            let g = diagnose(
                p,
                &lines(&grounded),
                0.05,
                &mut rng_for("gpt-4o", stable_hash(&grounded), salt),
            );
            assert!(
                !g.contains("optimal for minimizing"),
                "grounded run repeated misconception"
            );
        }
        assert!(
            ungrounded_misses > 4,
            "misconception never triggered ({ungrounded_misses})"
        );
    }

    #[test]
    fn transform_renders_histogram() {
        let p = profile_or_panic("gpt-4o-mini");
        let l = lines(
            "### TASK: transform\n## CODE\nfn io_size()\n## JSON\n\
             {\"read_histogram\": {\"0_100\": 1.0}}\n## CONTEXT\nnprocs=8 runtime=722",
        );
        let outp = transform(p, &l);
        assert!(outp.contains("100% of the read operations"), "{outp}");
        assert!(outp.contains("0 B to 100 B"));
    }

    #[test]
    fn merge_of_two_preserves_most_points() {
        let p = profile_or_panic("gpt-4o");
        let prompt = "### TASK: merge\n## SUMMARY 1 Size\n- POINT[small_write] writes are small ;; REFS: [A]\n\
                      ## SUMMARY 2 Meta\n- POINT[metadata] meta heavy ;; REFS: [B]";
        let mut kept = 0;
        for salt in 0..30 {
            let outp = merge(
                p,
                &lines(prompt),
                &mut rng_for("gpt-4o", stable_hash(prompt), salt),
            );
            kept += outp.matches("- POINT[").count();
        }
        // 60 possible points; gpt-4o fidelity 0.92 → expect ≥ 48 kept.
        assert!(kept >= 48, "kept {kept}");
    }

    #[test]
    fn flat_merge_of_many_loses_points() {
        let p = profile_or_panic("llama-3-70b");
        let mut prompt = String::from("### TASK: merge\n");
        for i in 0..13 {
            prompt.push_str(&format!(
                "## SUMMARY {i} S{i}\n- POINT[k{i}] point {i} ;; REFS: [R{i}]\n"
            ));
        }
        let mut kept = 0;
        for salt in 0..20 {
            let outp = merge(
                p,
                &lines(&prompt),
                &mut rng_for("llama-3-70b", stable_hash(&prompt), salt),
            );
            kept += outp.matches("- POINT[").count();
        }
        // 260 possible; with fidelity collapsed to ~0.1 expect far below half.
        assert!(kept < 100, "kept {kept}");
    }

    #[test]
    fn merge_dedups_by_key() {
        let p = profile_or_panic("o1-preview");
        let prompt = "### TASK: merge\n## SUMMARY 1 A\n- POINT[x] first\n## SUMMARY 2 B\n- POINT[x] duplicate";
        let outp = merge(
            p,
            &lines(prompt),
            &mut rng_for("o1-preview", stable_hash(prompt), 3),
        );
        assert!(outp.matches("- POINT[x]").count() <= 1);
    }

    #[test]
    fn filter_separates_related_from_unrelated() {
        let p = profile_or_panic("gpt-4o-mini");
        let related = "### TASK: filter\n## FRAGMENT\nmost write operations are small below 1 MB wasting bandwidth\n\
                       ## SOURCE\nsmall write requests below 1 MB waste parallel file system bandwidth aggregate them";
        let unrelated = "### TASK: filter\n## FRAGMENT\nmost write operations are small below 1 MB wasting bandwidth\n\
                         ## SOURCE\nquantum chromodynamics lattice gauge theory convergence tensor contraction";
        let r = filter(
            p,
            &lines(related),
            &FilterPrefix::default(),
            &mut rng_for("m", stable_hash(related), 0),
        );
        let u = filter(
            p,
            &lines(unrelated),
            &FilterPrefix::default(),
            &mut rng_for("m", stable_hash(unrelated), 0),
        );
        assert!(r.starts_with("RELEVANT"), "{r}");
        assert!(u.starts_with("IRRELEVANT"), "{u}");
    }

    /// The filter task as sections and string sets define it: the first
    /// FRAGMENT and SOURCE sections of [`parse_sections`], scored by
    /// [`overlap_oracle`].
    fn filter_oracle(profile: &ModelProfile, lines: &[&str], rng: &mut ChaCha8Rng) -> String {
        let sections = parse_sections(lines);
        let body = |name| section(&sections, name).map_or(String::new(), |s| s.body.join(" "));
        let sim = overlap_oracle(&body("FRAGMENT"), &body("SOURCE"));
        let amp = 0.02 + (1.0 - profile.capability) * 0.08;
        let score = sim + noise(rng, amp);
        if score > 0.12 {
            format!("RELEVANT (similarity signal {score:.2}): the source discusses concepts present in the fragment.")
        } else {
            format!("IRRELEVANT (similarity signal {score:.2}): the source does not bear on the fragment's behaviour.")
        }
    }

    proptest::proptest! {
        #[test]
        fn filter_is_the_oracle_from_a_prefix_ending_at_any_line(
            picks in proptest::collection::vec(0usize..12, 0..10),
        ) {
            const LINES: [&str; 12] = [
                "## FRAGMENT",
                "## SOURCE",
                "  ## fragment 2 ",
                "## \u{17F}ource",
                "## NOTES",
                "### TASK: filter",
                "small writes below 1 MB",
                "Small \u{212A}ernel WRITES",
                "stripe width bandwidth",
                "",
                "##SOURCE",
                "writes, writes; small",
            ];
            let p = profile_or_panic("gpt-4o-mini");
            let all: Vec<&str> = picks.iter().map(|&i| LINES[i]).collect();
            let want = filter_oracle(p, &all, &mut rng_for("m", 7, 0));
            for k in 0..=all.len() {
                let mut lower = Vec::new();
                let prefix = FilterPrefix::new(&all[..k], &mut lower);
                let got = filter(p, &all, &prefix, &mut rng_for("m", 7, 0));
                assert_eq!(got, want, "{all:?} split after {k} lines");
            }
        }
    }

    #[test]
    fn rank_prefers_accurate_candidate_on_accuracy() {
        let p = profile_or_panic("gpt-4o");
        let prompt = "### TASK: rank\n## CRITERION\naccuracy — match to ground truth\n\
                      ## GROUND TRUTH\nSmall Write I/O Requests; Server Load Imbalance\n\
                      ## CANDIDATE Tool-1\nWe found Small Write I/O Requests and Server Load Imbalance here.\n\
                      ## CANDIDATE Tool-2\nEverything looks fine.\n";
        let mut wins = 0;
        for salt in 0..20 {
            let outp = rank(
                p,
                &lines(prompt),
                &mut rng_for("gpt-4o", stable_hash(prompt), salt),
            );
            if outp.contains("RANKING: Tool-1 > Tool-2") {
                wins += 1;
            }
        }
        assert!(wins >= 18, "Tool-1 won only {wins}/20");
    }

    #[test]
    fn rank_shows_positional_bias_on_ties() {
        let p = profile_or_panic("llama-3-70b"); // strongest bias
                                                 // Identical candidates: position decides.
        let prompt = "### TASK: rank\n## CRITERION\nutility\n\
                      ## CANDIDATE Tool-1\nIssue: Small Write I/O Requests\n  Recommendation: aggregate.\n\
                      ## CANDIDATE Tool-2\nIssue: Small Write I/O Requests\n  Recommendation: aggregate.\n";
        let mut first_wins = 0;
        for salt in 0..30 {
            let outp = rank(
                p,
                &lines(prompt),
                &mut rng_for("llama-3-70b", stable_hash(prompt), salt),
            );
            if outp.contains("RANKING: Tool-1 > Tool-2") {
                first_wins += 1;
            }
        }
        assert!(first_wins >= 24, "primacy bias too weak: {first_wins}/30");
    }

    #[test]
    fn chat_answers_stripe_question_with_command() {
        let p = profile_or_panic("gpt-4o");
        let l = lines(
            "### TASK: chat\n## CONTEXT\nIssue: Server Load Imbalance\n  Reference: [Striping Decisions, SC 2021]\n\
             EVIDENCE nprocs=16\nEVIDENCE dominant_transfer=4194304\n## QUESTION\nHow do I fix the stripe settings?",
        );
        let outp = chat(p, &l, &mut rng_for("gpt-4o", stable_hash("q"), 0));
        assert!(outp.contains("lfs setstripe -S 4M"), "{outp}");
        assert!(outp.contains("Reference: [Striping Decisions, SC 2021]"));
    }

    /// Token-set cosine similarity of two texts, each given as lines.
    fn overlap(a: &[&str], b: &[&str]) -> f64 {
        let (mut lower_a, mut lower_b) = (Vec::new(), Vec::new());
        TokenSet::new(a, &mut lower_a).cosine(&TokenSet::new(b, &mut lower_b))
    }

    /// The set-of-strings definition [`overlap`] must reproduce bit for
    /// bit: lower-case the whole text, split on every char that is not
    /// ASCII alphanumeric, keep tokens longer than two bytes.
    fn overlap_oracle(a: &str, b: &str) -> f64 {
        use std::collections::BTreeSet;
        let tokens = |s: &str| -> BTreeSet<String> {
            s.to_lowercase()
                .split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|t| t.len() > 2)
                .map(String::from)
                .collect()
        };
        let (ta, tb) = (tokens(a), tokens(b));
        if ta.is_empty() || tb.is_empty() {
            return 0.0;
        }
        let inter = ta.intersection(&tb).count() as f64;
        inter / ((ta.len() as f64).sqrt() * (tb.len() as f64).sqrt())
    }

    /// `overlap` over lines against the oracle over the lines joined by a
    /// space, compared as bits.
    fn assert_overlap_exact(a: &[&str], b: &[&str]) {
        let got = overlap(a, b);
        let want = overlap_oracle(&a.join(" "), &b.join(" "));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{a:?} vs {b:?}: {got} != {want}"
        );
    }

    #[test]
    fn overlap_matches_the_oracle_on_edge_cases() {
        let cases: &[(&[&str], &[&str])] = &[
            (&[], &[]),
            (&[""], &["abc"]),
            (&["ab a b"], &["ab a b"]),
            (&["abc abc abc"], &["abc"]),
            (&["abcd ABCD AbCd"], &["abcd", "xyz"]),
            // Kelvin sign and dotted capital I lower-case to ASCII.
            (&["\u{212A}ernel"], &["kernel"]),
            (&["\u{0130}NDEX"], &["index"]),
            (&["\u{0130}ndex \u{212A}ey"], &["i\u{0307}ndex key"]),
            (&["Σίσυφος stripe ΣΑΣ"], &["stripe σας"]),
            (&["strip\u{00e9}d width"], &["strip width"]),
            (&["line one", "two"], &["one two three"]),
            (&["ſOURCE source"], &["source"]),
        ];
        for (a, b) in cases {
            assert_overlap_exact(a, b);
            assert_overlap_exact(b, a);
        }
    }

    proptest::proptest! {
        #[test]
        fn overlap_is_the_oracle_bit_for_bit(
            a in proptest::collection::vec("[abcK\u{212A}\u{0130}\u{03A3}\u{00e9} .,_]{0,24}", 0..5),
            b in proptest::collection::vec("[abcKk\u{212A}\u{0130}i \u{0307}.]{0,24}", 0..5),
        ) {
            let a: Vec<&str> = a.iter().map(String::as_str).collect();
            let b: Vec<&str> = b.iter().map(String::as_str).collect();
            assert_overlap_exact(&a, &b);
            assert_overlap_exact(&a, &a);
        }
    }

    #[test]
    fn headers_match_ignoring_case_including_non_ascii() {
        assert!(header_is("SOURCE", "SOURCE"));
        assert!(header_is("source 3", "SOURCE"));
        assert!(header_is("\u{017F}OURCE", "SOURCE"));
        assert!(header_is("Ground Truth", "GROUND TRUTH"));
        assert!(!header_is("SOUR", "SOURCE"));
        assert!(!header_is("FRAGMENT", "SOURCE"));
        assert!(!header_is("\u{00e9}SOURCE", "SOURCE"));
        let l = lines("### TASK: filter\n## \u{017F}ource\nabc def\n## fragment\nabc");
        let s = parse_sections(&l);
        assert_eq!(section(&s, "SOURCE").unwrap().body, vec!["abc def"]);
        assert_eq!(section(&s, "FRAGMENT").unwrap().body, vec!["abc"]);
    }
}
