//! A thread's span ring passes to the next thread after it exits, so
//! starting threads one after another does not add a ring per thread.
//! This binary runs one test, so no other thread takes a ring in
//! between.

use lb_telemetry::{drain_spans, ensure_thread_ring, record_span_raw, register_span_name};

#[test]
fn threads_started_one_after_another_share_one_ring() {
    let name = register_span_name("test.ring.reuse");
    lb_telemetry::set_spans_enabled(true);
    for i in 0..8 {
        std::thread::spawn(move || {
            ensure_thread_ring();
            record_span_raw(name, i, 1, 1);
        })
        .join()
        .expect("span thread");
    }
    lb_telemetry::set_spans_enabled(false);
    let spans: Vec<_> = drain_spans()
        .into_iter()
        .filter(|s| s.name == "test.ring.reuse")
        .collect();
    assert_eq!(
        spans.iter().map(|s| s.arg).collect::<Vec<_>>(),
        (0..8).collect::<Vec<_>>(),
        "every thread's span is drained, in order"
    );
    assert!(
        spans.iter().all(|s| s.thread == spans[0].thread),
        "eight threads, one after another, should share one ring: {spans:?}"
    );
}
