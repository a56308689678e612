//! ci-knobs fixture: one documented SOLAP_* read that the CI workflow
//! also sets.

pub fn work() {
    let _ = std::env::var("SOLAP_KEPT");
}
