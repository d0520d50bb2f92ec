//! The committed `BENCH_*.json` files are valid `bt-bench-v1` records,
//! and each file CI gates declares a headline that gates against itself.

use bt_obs::json::{parse, validate_baseline, validate_bench};

#[test]
fn committed_bench_records_validate() {
    for (file, gated) in [
        ("BENCH_gemm.json", false),
        ("BENCH_service.json", true),
        ("BENCH_shm.json", true),
        ("BENCH_structured.json", true),
    ] {
        let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let doc = parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        let summary = validate_bench(&doc).unwrap_or_else(|e| panic!("{file}: {e}"));
        if gated {
            assert!(summary.headlines > 0, "{file} declares no headline");
            validate_baseline(&doc, &doc, 1.0).unwrap_or_else(|e| panic!("{file}: {e}"));
        }
    }
}
