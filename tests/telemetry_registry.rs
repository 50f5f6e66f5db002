//! Every counter and histogram the runtime registers is listed in
//! `scripts/telemetry_names.tsv`. `repo_lint`'s rule 6 checks the string
//! literals passed straight to `counter` and `histogram`; names that a
//! `match` or an array hands to them get past it, so this test registers
//! every instrument and reads the live registry instead.

use lb_core::exec::{Engine, Linker};
use lb_core::{BoundsStrategy, LinearMemory, MemoryConfig};
use lb_jit::{JitEngine, JitProfile};
use lb_polybench::{by_name, common::Dataset};

fn registered_names() -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scripts/telemetry_names.tsv");
    let text = std::fs::read_to_string(path).expect("read scripts/telemetry_names.tsv");
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| l.split_once('\t'))
        .map(|(name, kind)| (name.to_string(), kind.to_string()))
        .collect()
}

#[test]
fn every_registered_instrument_is_in_the_name_registry() {
    // Installing a plan registers every per-site fire counter; the failed
    // initial protect then takes the mprotect → trap fallback.
    {
        let _plan = lb_chaos::install("core.mprotect.init:1:EACCES").expect("plan");
        let config = MemoryConfig::new(BoundsStrategy::Mprotect, 1, 8).with_reserve(1 << 22);
        let m = LinearMemory::new(&config).expect("memory");
        assert!(m.fell_back());
    }
    // The v8, wasmtime and wavm profiles compile at None, Basic and Full.
    let module = by_name("atax", Dataset::Mini).expect("atax").module;
    for profile in [JitProfile::v8(), JitProfile::wasmtime(), JitProfile::wavm()] {
        let loaded = JitEngine::new(profile).load(&module).expect("load");
        let config = MemoryConfig::new(BoundsStrategy::Trap, 1, 1024).with_reserve(64 << 20);
        let mut inst = loaded
            .instantiate(&config, &Linker::new())
            .expect("instantiate");
        inst.invoke("init", &[]).expect("init");
    }

    let registry = registered_names();
    let snap = lb_telemetry::snapshot();
    let live = snap
        .counters
        .iter()
        .map(|c| (c.name, "counter"))
        .chain(snap.histograms.iter().map(|h| (h.name, "histogram")));
    let missing: Vec<String> = live
        .filter(|&(name, kind)| !registry.iter().any(|(n, k)| n == name && k == kind))
        .map(|(name, kind)| format!("{kind} `{name}`"))
        .collect();
    assert!(
        missing.is_empty(),
        "registered at run time but missing from scripts/telemetry_names.tsv:\n{}",
        missing.join("\n")
    );
    for name in [
        "jit.code_bytes.none",
        "jit.code_bytes.basic",
        "jit.code_bytes.full",
    ] {
        assert!(
            snap.counters.iter().any(|c| c.name == name),
            "{name} not registered"
        );
    }
}
