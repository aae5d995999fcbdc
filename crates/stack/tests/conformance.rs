//! The `.pkt` conformance suite: every script in `tests/scripts/` runs
//! through the interpreter in `nectar_stack::conform::pkt` with the
//! invariant oracle enabled, so a scripted exchange that drives the
//! stack into an illegal state fails twice over — once on the script's
//! own expectations and once on the oracle's.
//!
//! To add a case, drop a `NAME.pkt` file in `tests/scripts/` and add
//! `pkt_case!(NAME);` below; `all_scripts_are_covered` fails if the
//! two ever drift apart. DESIGN.md §11 documents the script format.

use nectar_stack::conform;

macro_rules! pkt_case {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                conform::set_enabled(true);
                conform::pkt::run(include_str!(concat!(
                    "scripts/",
                    stringify!($name),
                    ".pkt"
                )));
            }
        )*

        /// Every `.pkt` file in the scripts directory has a matching
        /// test, and the suite is at least as large as the floor the
        /// roadmap promises.
        #[test]
        fn all_scripts_are_covered() {
            let covered = [$(concat!(stringify!($name), ".pkt")),*];
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/scripts");
            let mut on_disk: Vec<String> = std::fs::read_dir(dir)
                .expect("tests/scripts directory exists")
                .map(|e| e.expect("readable dir entry").file_name().into_string().unwrap())
                .filter(|n| n.ends_with(".pkt"))
                .collect();
            on_disk.sort();
            let mut listed: Vec<String> = covered.iter().map(|s| s.to_string()).collect();
            listed.sort();
            assert_eq!(on_disk, listed, "scripts on disk and pkt_case! list drifted apart");
            assert!(covered.len() >= 10, "conformance suite shrank below 10 scripts");
        }
    };
}

pkt_case!(
    accept_basic,
    bad_checksum,
    connect_basic,
    fast_retransmit,
    fin_in_flight,
    ip_frag_caps,
    ip_frag_overlap,
    ip_frag_resplit,
    nagle_trailing,
    ooo_data,
    peer_close,
    retrans_timeout,
    rst_refused,
    sack_basic,
    sack_reneg_ignored,
    simultaneous_close,
    simultaneous_open,
    slow_start,
    tail_standoff,
    window_update,
    wscale_asymmetric,
    wscale_negotiate,
    zero_window_probe,
);
