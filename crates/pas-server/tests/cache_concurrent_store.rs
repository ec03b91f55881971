//! Concurrent stores of one key from one process: every call succeeds,
//! the entry verifies, and no temp file or corrupt read is left behind.
//! Its own test binary, so no other test moves the process-global
//! `corrupt` lookup counter while it runs.

use pas_scenario::{execute_point, expand, registry};
use pas_server::ResultCache;
use std::sync::{Arc, Barrier};

fn corrupt_lookups() -> u64 {
    pas_obs::global()
        .counter("pas.cache.lookup.count", &[("outcome", "corrupt")])
        .get()
}

#[test]
fn threads_storing_one_key_never_collide() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 50;
    let dir = std::env::temp_dir().join(format!("pas_cache_concurrent_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).unwrap();
    let mut m = registry::builtin("paper-default").unwrap();
    m.sweep[0].values = vec![4.0].into();
    m.run.replicates = 1;
    let pt = expand(&m).unwrap().remove(0);
    let key = ResultCache::key(&m, &pt);
    let record = execute_point(&m, m.build_field().as_ref(), &pt);

    let corrupt_before = corrupt_lookups();
    let start = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (cache, key, record, start) = (
                cache.clone(),
                key.clone(),
                record.clone(),
                Arc::clone(&start),
            );
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..ROUNDS {
                    cache.store(&key, &record)?;
                    // Another thread's rename may land at any moment; a
                    // reader must still see one whole entry.
                    assert!(cache.load(&key).is_some(), "entry failed to verify");
                }
                Ok::<(), std::io::Error>(())
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap().expect("every store returns Ok");
    }

    let back = cache.load(&key).expect("stored entry loads");
    assert_eq!(back.delay_s.to_bits(), record.delay_s.to_bits());
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
    assert_eq!(cache.len(), 1);
    assert_eq!(
        corrupt_lookups(),
        corrupt_before,
        "a reader saw a torn entry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
