//! Golden fixture for the tracer's text outputs.
//!
//! One traced run — a short gadget-heavy amulet program under STT on the
//! tiny core, with defense blocks and both branch and memory-order
//! squashes — rendered through `render_pipeline`, `render_audit` and
//! `to_chrome_trace`, and compared byte for byte against a committed
//! fixture. This pins every piece of text the tracer prints, disassembly
//! included.
//!
//! Regenerate (only when an *intentional* output change lands) with:
//!
//! ```text
//! PROTEAN_GOLDEN_REGEN=1 cargo test -p protean-bench --test golden_trace_render
//! ```

use protean_amulet::{generate, init_cold_chain, GenConfig, PUBLIC_BASE, PUBLIC_SIZE};
use protean_arch::ArchState;
use protean_bench::Defense;
use protean_isa::Reg;
use protean_sim::{Core, CoreConfig};

fn input() -> ArchState {
    let mut state = ArchState::new();
    init_cold_chain(&mut state.mem);
    for i in 0u64..PUBLIC_SIZE / 8 {
        state.mem.write(PUBLIC_BASE + i * 8, 8, (i * 11) % 64);
    }
    for i in 0..6 {
        state.set_reg(Reg::gpr(i), 17 + i as u64 * 13);
    }
    state
}

fn rendered() -> String {
    let program = generate(&GenConfig {
        segments: 2,
        gadget_bias: 0.9,
        seed: 2,
    });
    let mut cfg = CoreConfig::test_tiny();
    cfg.trace = true;
    let core = Core::new(&program, cfg, Defense::Stt.make(), &input());
    let trace = core
        .run(20_000, 2_000_000)
        .trace
        .expect("traced core returns a trace");
    assert!(
        trace.blocked_totals().iter().sum::<u64>() > 0 && !trace.squash_causes().is_empty(),
        "the fixture run must exercise both defense blocks and squashes"
    );
    format!(
        "=== render_pipeline ===\n{}=== render_audit ===\n{}=== to_chrome_trace ===\n{}\n",
        trace.render_pipeline(usize::MAX, 160),
        trace.render_audit(usize::MAX),
        trace.to_chrome_trace()
    )
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_trace_render.txt")
}

#[test]
fn trace_renderings_match_golden_fixture() {
    let got = rendered();
    let path = fixture_path();
    if std::env::var_os("PROTEAN_GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        println!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             PROTEAN_GOLDEN_REGEN=1 cargo test -p protean-bench --test golden_trace_render",
            path.display()
        )
    });
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "rendered trace line {} drifted from the fixture",
            i + 1
        );
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
