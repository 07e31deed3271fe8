//! Edge cases of the report's histogram: bucket edges, the extremes of
//! the sample domain, and the canonical line of an empty histogram.

use emx_profile::Histogram;

#[test]
fn histogram_buckets_and_overflow() {
    let mut h = Histogram::new("t", &[4, 8]);
    for v in [1, 4, 5, 8, 9, 100] {
        h.record(v);
    }
    assert_eq!(h.count(), 6);
    assert_eq!(h.sum(), 127);
    assert_eq!(h.max(), 100);
    let b = h.buckets();
    assert_eq!(b[0], ("<=4".to_string(), 2));
    assert_eq!(b[1], ("<=8".to_string(), 2));
    assert_eq!(b[2], (">8".to_string(), 2));
}

#[test]
fn histogram_bounds_are_upper_inclusive_at_every_edge() {
    // Bounds [0, 10]: a zero-valued bound is a legal bucket of its own.
    let mut h = Histogram::new("edges", &[0, 10]);
    h.record(0); // lands in <=0, not above it
    h.record(10); // exactly the last bound: inside, not overflow
    h.record(11); // one past the last bound: overflow
    assert_eq!(h.count(), 3);
    assert_eq!(h.sum(), 21);
    assert_eq!(h.max(), 11);
    assert_eq!(
        h.buckets(),
        vec![
            ("<=0".to_string(), 1),
            ("<=10".to_string(), 1),
            (">10".to_string(), 1),
        ]
    );
}

#[test]
fn histogram_handles_the_extremes_of_the_sample_domain() {
    let mut h = Histogram::new("extremes", &[1]);
    h.record(u64::MAX);
    h.record(0);
    assert_eq!(h.max(), u64::MAX);
    assert_eq!(h.sum(), u64::MAX);
    assert_eq!(
        h.buckets(),
        vec![("<=1".to_string(), 1), (">1".to_string(), 1)]
    );
}

#[test]
fn empty_histogram_renders_a_stable_canonical_line() {
    let h = Histogram::new("void", &[4, 8]);
    assert_eq!(h.count(), 0);
    assert_eq!(h.sum(), 0);
    assert_eq!(h.max(), 0);
    assert_eq!(
        h.canonical_line(),
        "hist void count=0 sum=0 max=0 buckets=0,0,0"
    );
}
