//! With the registry-wide switch off, a profile scope records nothing.
//! Flipping the process-global switch would race the crate's other
//! tests, so this runs as its own test binary.

#[test]
fn disabled_scope_is_inert() {
    pas_obs::set_enabled(false);
    assert!(!pas_obs::profile::profiling());
    {
        let _s = pas_obs::profile::scope("never.recorded");
    }
    pas_obs::set_enabled(true);
    assert!(!pas_obs::profile::snapshot()
        .iter()
        .any(|e| e.key() == "never.recorded"));
}
