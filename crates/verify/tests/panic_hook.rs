//! `explore` must leave the process's panic hook in place. It filters
//! out the expected worker panics of an exploration, but a hook the
//! program installed beforehand has to keep seeing every other panic.
//! This file is its own test binary, so the process-wide hook it sets
//! touches no other test.

use bounce_verify::exec::{scenarios, ExploreOpts};
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};

static SEEN: AtomicUsize = AtomicUsize::new(0);

#[test]
fn explore_keeps_the_installed_panic_hook() {
    panic::set_hook(Box::new(|_| {
        SEEN.fetch_add(1, Ordering::SeqCst);
    }));
    let entry = scenarios::find("tas_2").expect("tas_2 is registered");
    let report = (entry.run)(&ExploreOpts::default());
    assert!(report.is_clean(), "tas_2 explores cleanly");

    let before = SEEN.load(Ordering::SeqCst);
    let caught = panic::catch_unwind(|| panic!("a panic after the exploration"));
    assert!(caught.is_err());
    assert_eq!(
        SEEN.load(Ordering::SeqCst),
        before + 1,
        "the hook installed before explore no longer sees panics"
    );
}
