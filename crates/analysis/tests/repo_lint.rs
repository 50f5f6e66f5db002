//! In-tree static lint, run as a normal test so CI needs no extra tooling.
//!
//! Two invariants the runtime's safety story depends on:
//!
//! 1. **`unsafe` containment** — all `unsafe` code lives in an explicitly
//!    allowlisted module set (memory mapping, signal handling, the JIT's
//!    code buffers and runtime thunks, the libc shim, the vDSO clock).
//!    Everything else — the wasm front end, both engines' logic, the
//!    analysis, the harness — must be safe Rust.
//! 2. **Async-signal-safety** — the functions that run in (or may be
//!    reached from) signal context — the trap-handler chain in
//!    `crates/core/src/signals.rs` and the SIGPROF sampling path in
//!    `crates/prof` — must not allocate or do formatted I/O: no
//!    `format!`/`println!`/`vec!`/`Box::new`/`.to_string()`-style calls.
//! 3. **No new aborts on the measurement path** — non-test code in
//!    `lb-core` and `lb-harness` must not call `.unwrap()`/`.expect()`:
//!    every fallible OS boundary there feeds the failure model (fault
//!    injection, fallback chains, per-run failure records), and a stray
//!    unwrap turns an injectable error back into a process abort. The
//!    few deliberate keepers are allowlisted with their justification.
//! 4. **Mapping containment** — `mmap`/`munmap` calls live only in
//!    `crates/core/src/region.rs` and `crates/core/src/pool.rs` (the
//!    reservation lifecycle and its recycling pool). A mapping created
//!    anywhere else bypasses the chaos sites, the `mem.mmap`/`mem.munmap`
//!    counters, and the pool's "zero mmap at steady state" guarantee;
//!    the deliberate exceptions are allowlisted with their justification.
//! 5. **Machine-code byte containment** — in the crates that produce or
//!    execute x86-64 code (`lb-jit`, `lb-core`), raw opcode bytes are
//!    emitted only by `crates/jit/src/asm.rs` and pattern-matched only by
//!    `lb-verify`'s decoder. Hand-rolled bytes anywhere else would bypass
//!    the encoder↔decoder round-trip tests that keep the translation
//!    validator's instruction model honest. The one deliberate exception
//!    (the signal handler recognizing a `ud2` at the fault pc) is
//!    allowlisted with its justification.
//! 6. **Telemetry name registry** — every `counter("…")`/`histogram("…")`
//!    string literal in the tree must appear in
//!    `scripts/telemetry_names.tsv`, and every registry entry must still
//!    have a call site. Telemetry names are an interface (the harness's
//!    JSONL columns, the bench JSON, dashboards parse them); the registry
//!    makes adding or renaming one a reviewable diff instead of a silent
//!    drift between producer and consumer.
//!
//! Failures name `file:line` so the offending code is one click away.

use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // crates/analysis → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

/// Modules allowed to contain `unsafe` code, as workspace-relative paths.
const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/chaos/src/lib.rs",
    "crates/core/src/memory.rs",
    "crates/core/src/pool.rs",
    "crates/core/src/region.rs",
    "crates/core/src/registry.rs",
    "crates/core/src/signals.rs",
    "crates/core/src/uffd.rs",
    "crates/harness/src/procstat.rs",
    "crates/jit/src/codebuf.rs",
    "crates/jit/src/engine.rs",
    "crates/jit/src/runtime.rs",
    "crates/prof/src/sampler.rs",
    "crates/serve/src/shard.rs",
    "crates/sys/src/lib.rs",
    "crates/telemetry/src/clock.rs",
    "crates/telemetry/tests/signal_safety.rs",
    "tests/analysis_alloc_budget.rs",
    "tests/prof_stress.rs",
];

/// Functions that execute in signal context, per file: the trap-handler
/// chain (and the trap-resume path that abandons frames) in lb-core, and
/// the SIGPROF sampling path in lb-prof (handler plus the ring push it
/// makes).
const HANDLER_FNS: &[(&str, &[&str])] = &[
    (
        "crates/core/src/signals.rs",
        &[
            "raise_trap",
            "trap_handler",
            "trap_handler_inner",
            "deliver_or_chain",
            "chain",
        ],
    ),
    (
        "crates/prof/src/sampler.rs",
        &["sigprof_handler", "sigprof_handler_inner"],
    ),
    ("crates/prof/src/ring.rs", &["record"]),
];

/// Tokens that allocate or format — forbidden in signal context.
const BANNED_IN_HANDLERS: &[&str] = &[
    "format!",
    "println!",
    "print!",
    "eprintln!",
    "eprint!",
    "String::",
    "Vec::new",
    "Vec::with_capacity",
    "vec!",
    "Box::new",
    ".to_string(",
    ".to_owned(",
    ".to_vec(",
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            rust_sources(&p, out);
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

/// Strip `//` line comments (keeps column positions up to the comment).
fn strip_line_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Does `line` contain `word` delimited by non-identifier characters?
fn contains_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(i) = line[start..].find(word) {
        let at = start + i;
        let before_ok = at == 0 || {
            let c = bytes[at - 1] as char;
            !c.is_alphanumeric() && c != '_' && c != '-'
        };
        let end = at + word.len();
        let after_ok = end >= bytes.len() || {
            let c = bytes[end] as char;
            !c.is_alphanumeric() && c != '_'
        };
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

#[test]
fn unsafe_only_in_allowlisted_modules() {
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        rust_sources(&root.join(dir), &mut files);
    }
    assert!(files.len() > 50, "workspace scan found too few files");

    let mut violations = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .expect("file under root")
            .to_string_lossy()
            .replace('\\', "/");
        // The linter's own pattern strings would match themselves.
        if UNSAFE_ALLOWLIST.contains(&rel.as_str()) || rel == "crates/analysis/tests/repo_lint.rs" {
            continue;
        }
        let Ok(text) = fs::read_to_string(f) else {
            continue;
        };
        for (ln, raw) in text.lines().enumerate() {
            let line = strip_line_comment(raw);
            if contains_word(line, "unsafe") {
                violations.push(format!("{rel}:{}: {}", ln + 1, raw.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "`unsafe` outside the allowlisted modules:\n{}",
        violations.join("\n")
    );
}

/// Extract the body of `fn name` from `text` as (start_line, body_text),
/// by brace matching with line comments stripped.
fn fn_body(text: &str, name: &str) -> Option<(usize, String)> {
    let needle = format!("fn {name}");
    let lines: Vec<&str> = text.lines().collect();
    for (i, raw) in lines.iter().enumerate() {
        let line = strip_line_comment(raw);
        if !line.contains(&needle) {
            continue;
        }
        // Confirm word boundary after the name (avoid `chain` matching
        // `chained_fault_count`).
        let at = line.find(&needle)?;
        let end = at + needle.len();
        if let Some(c) = line[end..].chars().next() {
            if c.is_alphanumeric() || c == '_' {
                continue;
            }
        }
        // Brace-match from the first `{` at or after this line.
        let mut depth = 0i32;
        let mut started = false;
        let mut body = String::new();
        for l in &lines[i..] {
            let l = strip_line_comment(l);
            for ch in l.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            body.push_str(l);
            body.push('\n');
            if started && depth == 0 {
                return Some((i + 1, body));
            }
        }
    }
    None
}

/// Deliberate `.unwrap()`/`.expect()` keepers in non-test lb-core and
/// lb-harness code, as (workspace-relative file, line substring) pairs.
/// Each is an invariant violation or unrecoverable host condition where
/// aborting *is* the correct behavior — not a fallible OS boundary:
///
/// * region.rs — mmap returned success with a null pointer: kernel
///   contract violation, not an error a caller can handle.
/// * signals.rs — trap-resume bookkeeping invariants inside
///   `catch_traps`; if these fire, the jump-buffer state machine is
///   corrupt and continuing would execute on poisoned state.
/// * procstat.rs — `std::thread::Builder::spawn` refusing to create a
///   thread (host out of tids/memory); the harness cannot run at all.
const UNWRAP_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/core/src/region.rs",
        "expect(\"mmap returned non-null\")",
    ),
    ("crates/core/src/signals.rs", "expect(\"closure present\")"),
    ("crates/core/src/signals.rs", "expect(\"closure ran\")"),
    (
        "crates/harness/src/procstat.rs",
        "expect(\"spawn sampler\")",
    ),
    (
        "crates/harness/src/procstat.rs",
        "expect(\"sampler running\")",
    ),
    (
        "crates/harness/src/procstat.rs",
        "expect(\"sampler joins\")",
    ),
];

#[test]
fn no_new_unwrap_or_expect_in_core_and_harness() {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_sources(&root.join("crates/core/src"), &mut files);
    rust_sources(&root.join("crates/harness/src"), &mut files);
    rust_sources(&root.join("crates/serve/src"), &mut files);
    assert!(files.len() >= 10, "scan found too few files");

    let mut violations = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .expect("file under root")
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(text) = fs::read_to_string(f) else {
            continue;
        };
        for (ln, raw) in text.lines().enumerate() {
            // Repo convention: the `#[cfg(test)]` module is the last item
            // in a file, so everything after it is test-only.
            if raw.contains("#[cfg(test)]") {
                break;
            }
            let line = strip_line_comment(raw);
            if !(line.contains(".unwrap()") || line.contains(".expect(")) {
                continue;
            }
            if UNWRAP_ALLOWLIST
                .iter()
                .any(|(file, frag)| *file == rel && line.contains(frag))
            {
                continue;
            }
            violations.push(format!("{rel}:{}: {}", ln + 1, raw.trim()));
        }
    }
    assert!(
        violations.is_empty(),
        "new `.unwrap()`/`.expect()` in non-test lb-core/lb-harness/lb-serve code \
         (handle the error or extend UNWRAP_ALLOWLIST with justification):\n{}",
        violations.join("\n")
    );
}

/// Files allowed to call `mmap`/`munmap` outside the reservation
/// lifecycle (`region.rs`) and its recycling pool (`pool.rs`):
///
/// * signals.rs — per-thread sigaltstack allocation/teardown; tiny,
///   thread-lifetime mappings that never back wasm memory.
/// * jit/codebuf.rs — W^X executable code buffers; a different resource
///   class (code, not data) with its own publish/retire lifecycle.
/// * sys/lib.rs — the libc shim *declares* the symbols everyone else
///   links against; it performs no mapping itself.
const MMAP_ALLOWLIST: &[&str] = &[
    "crates/core/src/signals.rs",
    "crates/jit/src/codebuf.rs",
    "crates/sys/src/lib.rs",
];

#[test]
fn mmap_munmap_only_in_region_pool_or_allowlisted_modules() {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_sources(&root.join("crates"), &mut files);
    assert!(files.len() > 50, "workspace scan found too few files");

    let mut violations = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .expect("file under root")
            .to_string_lossy()
            .replace('\\', "/");
        if rel == "crates/core/src/region.rs"
            || rel == "crates/core/src/pool.rs"
            || rel == "crates/analysis/tests/repo_lint.rs"
            || MMAP_ALLOWLIST.contains(&rel.as_str())
        {
            continue;
        }
        let Ok(text) = fs::read_to_string(f) else {
            continue;
        };
        for (ln, raw) in text.lines().enumerate() {
            // Test modules may map scratch memory (e.g. to probe the
            // shim); the repo convention puts them last in the file.
            if raw.contains("#[cfg(test)]") {
                break;
            }
            let line = strip_line_comment(raw);
            if contains_word(line, "mmap(") || contains_word(line, "munmap(") {
                violations.push(format!("{rel}:{}: {}", ln + 1, raw.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "`mmap`/`munmap` call outside region.rs/pool.rs (route it through \
         `Reservation` or extend MMAP_ALLOWLIST with justification):\n{}",
        violations.join("\n")
    );
}

/// Byte-literal emission into code buffers: the assembler's job.
const EMIT_PATTERNS: &[&str] = &[".push(0x", "extend_from_slice(&[0x", "= [0x", ".emit(0x"];

/// Raw matching on x86 opcode escapes: the decoder's job. `0x0F` is the
/// two-byte-opcode escape — the byte every hand-rolled matcher starts at.
const DECODE_PATTERNS: &[&str] = &["== 0x0F", "0x0F =>"];

/// Deliberate raw-opcode keeper outside `asm.rs`/`lb-verify`:
/// the trap handler must classify the faulting instruction from signal
/// context, where calling into the decoder (allocating, fallible) is off
/// the table — it checks the two `ud2` bytes in place.
const OPCODE_ALLOWLIST: &[(&str, &str)] = &[("crates/core/src/signals.rs", "== 0x0F")];

#[test]
fn machine_code_bytes_only_in_asm_and_verify() {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_sources(&root.join("crates/jit/src"), &mut files);
    rust_sources(&root.join("crates/core/src"), &mut files);
    // The profiler consumes decoded instructions; it must never grow its
    // own byte matching.
    rust_sources(&root.join("crates/prof/src"), &mut files);
    assert!(files.len() >= 10, "scan found too few files");

    let mut violations = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .expect("file under root")
            .to_string_lossy()
            .replace('\\', "/");
        // The assembler owns encoding; `lb-verify` (not under these
        // roots) owns decoding.
        if rel == "crates/jit/src/asm.rs" {
            continue;
        }
        let Ok(text) = fs::read_to_string(f) else {
            continue;
        };
        for (ln, raw) in text.lines().enumerate() {
            // Test modules may use literal byte vectors (e.g. codebuf's
            // canned `mov eax, 42; ret`); the repo convention puts them
            // last in the file.
            if raw.contains("#[cfg(test)]") {
                break;
            }
            let line = strip_line_comment(raw);
            for pat in EMIT_PATTERNS.iter().chain(DECODE_PATTERNS) {
                if !line.contains(pat) {
                    continue;
                }
                if OPCODE_ALLOWLIST
                    .iter()
                    .any(|(file, frag)| *file == rel && line.contains(frag))
                {
                    continue;
                }
                violations.push(format!("{rel}:{}: `{pat}`: {}", ln + 1, raw.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "raw x86 opcode bytes outside asm.rs/lb-verify (use `Asm` to emit, \
         `lb_verify::decode` to parse, or extend OPCODE_ALLOWLIST with \
         justification):\n{}",
        violations.join("\n")
    );
}

/// Extract every `counter("name")`/`histogram("name")` literal from
/// `text` (whole-text scan, so a name wrapped to the next line still
/// counts), as (line, kind, name).
fn telemetry_literals(text: &str) -> Vec<(usize, &'static str, String)> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    for kind in ["counter", "histogram"] {
        let needle = format!("{kind}(");
        let mut start = 0;
        while let Some(i) = text[start..].find(&needle) {
            let at = start + i;
            start = at + needle.len();
            // Word boundary before: `.counter(` / `::counter(` /
            // `counter(` yes, `chained_counter(` no.
            if at > 0 {
                let c = bytes[at - 1] as char;
                if c.is_alphanumeric() || c == '_' {
                    continue;
                }
            }
            // A literal argument: skip whitespace, expect `"…"`.
            let rest = text[at + needle.len()..].trim_start();
            let Some(q) = rest.strip_prefix('"') else {
                continue;
            };
            let Some(end) = q.find('"') else {
                continue;
            };
            let line = text[..at].lines().count();
            out.push((line.max(1), kind, q[..end].to_string()));
        }
    }
    out
}

#[test]
fn telemetry_names_are_registered() {
    let root = workspace_root();
    let registry_path = root.join("scripts/telemetry_names.tsv");
    let registry_text = fs::read_to_string(&registry_path)
        .unwrap_or_else(|e| panic!("read scripts/telemetry_names.tsv: {e}"));
    let mut registry = std::collections::BTreeMap::new();
    for (ln, line) in registry_text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let mut cols = line.split('\t');
        let (Some(name), Some(kind), None) = (cols.next(), cols.next(), cols.next()) else {
            panic!(
                "scripts/telemetry_names.tsv:{}: expected name<TAB>kind",
                ln + 1
            );
        };
        assert!(
            kind == "counter" || kind == "histogram",
            "scripts/telemetry_names.tsv:{}: unknown kind `{kind}`",
            ln + 1
        );
        registry.insert((name.to_string(), kind.to_string()), false);
    }
    assert!(registry.len() > 50, "registry suspiciously small");

    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        rust_sources(&root.join(dir), &mut files);
    }
    let mut violations = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .expect("file under root")
            .to_string_lossy()
            .replace('\\', "/");
        // The linter's own extraction patterns would match themselves.
        if rel == "crates/analysis/tests/repo_lint.rs" {
            continue;
        }
        let Ok(text) = fs::read_to_string(f) else {
            continue;
        };
        for (ln, kind, name) in telemetry_literals(&text) {
            match registry.get_mut(&(name.clone(), kind.to_string())) {
                Some(seen) => *seen = true,
                None => violations.push(format!(
                    "{rel}:{ln}: {kind} `{name}` missing from scripts/telemetry_names.tsv"
                )),
            }
        }
    }
    for ((name, kind), seen) in &registry {
        if !seen {
            violations.push(format!(
                "scripts/telemetry_names.tsv: {kind} `{name}` has no call site left — remove it"
            ));
        }
    }
    assert!(
        violations.is_empty(),
        "telemetry name registry out of sync (add new names to \
         scripts/telemetry_names.tsv, prune dead ones):\n{}",
        violations.join("\n")
    );
}

#[test]
fn signal_handlers_do_not_allocate_or_format() {
    let root = workspace_root();
    let mut violations = Vec::new();
    for (rel, fns) in HANDLER_FNS {
        let path = root.join(rel);
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        for name in *fns {
            let (start, body) = fn_body(&text, name)
                .unwrap_or_else(|| panic!("handler fn `{name}` not found in {rel}"));
            for (off, line) in body.lines().enumerate() {
                for tok in BANNED_IN_HANDLERS {
                    if line.contains(tok) {
                        violations.push(format!(
                            "{rel}:{}: `{tok}` in handler fn `{name}`: {}",
                            start + off,
                            line.trim()
                        ));
                    }
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "allocation/formatting in signal-handler paths:\n{}",
        violations.join("\n")
    );
}
