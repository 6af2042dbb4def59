//! End-to-end profiler contract: real nested spans → JSONL trace →
//! self-time attribution that telescopes to the root wall, and
//! collapsed stacks from `write_folded` with one line per working span
//! whose microsecond weights sum to the self times.
//!
//! Single `#[test]` on purpose: the trace sink is a process-global
//! one-shot, so the whole pipeline is exercised in one pass.

use std::time::Duration;

use kgtosa_obs::{registry_aggs, self_times, span, summarize_jsonl, write_folded};

fn busy(ms: u64) {
    std::thread::sleep(Duration::from_millis(ms));
}

#[test]
fn trace_to_self_times_and_folded_stacks() {
    let dir = std::env::temp_dir().join(format!("kgtosa-prof-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("run.jsonl");
    kgtosa_obs::init_trace_to(trace_path.to_str().unwrap()).expect("init trace");

    // A realistic shape: one root covering extraction + training phases,
    // with leaf work under each. Sleeps are the "work" so wall times are
    // large relative to span bookkeeping noise.
    {
        let _root = span("pipeline");
        {
            let _e = span("extract");
            {
                let _f = span("fetch");
                busy(30);
            }
            {
                let _s = span("sample");
                busy(20);
            }
            busy(10); // self time of extract
        }
        {
            let _t = span("train");
            for _ in 0..3 {
                let _ep = span("epoch");
                busy(10);
            }
        }
        busy(10); // self time of pipeline
    }

    kgtosa_obs::shutdown();
    let trace = std::fs::read_to_string(&trace_path).expect("read trace");
    assert!(trace.contains("\"span\""), "trace has span events:\n{trace}");

    // Self-times must telescope: summing self_s over every span recovers
    // the wall time of the roots, exactly up to f64 rounding.
    let aggs = summarize_jsonl(&trace).expect("summarize trace");
    assert!(aggs.len() >= 5, "expected the nested spans, got {aggs:?}");
    let rows = self_times(&aggs);
    let self_sum: f64 = rows.iter().map(|r| r.self_s).sum();
    let root_wall: f64 = rows.iter().filter(|r| r.parent.is_none()).map(|r| r.total_s).sum();
    assert!(root_wall > 0.1, "root wall should cover the sleeps: {root_wall}");
    let drift = (self_sum - root_wall).abs();
    assert!(
        drift <= root_wall * 0.01 + 1e-6,
        "self-times must sum to root wall: sum={self_sum} root={root_wall} drift={drift}"
    );
    // Leaf spans keep all their time; parents keep only what children
    // did not cover.
    let extract = rows.iter().find(|r| r.name.ends_with("extract")).unwrap();
    assert!(extract.self_s < extract.total_s, "extract has children: {extract:?}");

    // Collapsed stacks from the live registry: one `frames count` line
    // per span with nonzero self time, weighted in microseconds.
    let folded_path = dir.join("run.folded");
    write_folded(folded_path.to_str().unwrap()).expect("write folded");
    let folded = std::fs::read_to_string(&folded_path).expect("read folded");
    let mut lines = Vec::new();
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("`frames count` shape");
        lines.push((stack.to_string(), count.parse::<u64>().expect("count is integral")));
    }
    let live = self_times(&registry_aggs());
    let working: Vec<_> = live.iter().filter(|r| r.self_s > 0.0).collect();
    assert!(working.len() >= 5, "expected the nested spans, got {live:?}");
    assert_eq!(lines.len(), working.len(), "one line per working span:\n{folded}");
    for row in &working {
        // The last frame is the span's name relative to its parent.
        let last = row.parent.map_or(row.name.as_str(), |p| &row.name[live[p].name.len() + 1..]);
        assert!(
            lines.iter().any(|(stack, _)| stack.rsplit(';').next() == Some(last)),
            "no folded line for {} (self {}s):\n{folded}",
            row.name,
            row.self_s
        );
    }
    let weight_us: u64 = lines.iter().map(|(_, count)| count).sum();
    let self_us: f64 = working.iter().map(|r| r.self_s * 1e6).sum();
    assert!(
        (weight_us as f64 - self_us).abs() <= lines.len() as f64,
        "folded weights {weight_us}µs vs self time {self_us}µs over {} lines",
        lines.len()
    );
    assert!(folded.contains("pipeline;extract;fetch "), "{folded}");

    std::fs::remove_dir_all(&dir).ok();
}
