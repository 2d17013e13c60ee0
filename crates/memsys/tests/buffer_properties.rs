//! Randomized property tests of the write buffer and MSHR file timing
//! contracts, driven by the in-tree deterministic PRNG.

use lookahead_isa::rng::XorShift64;
use lookahead_memsys::{DrainPolicy, MshrFile, WriteBuffer};

/// Completion times reported by a write buffer never decrease for
/// later pushes under serialized draining, and an overlapped buffer's
/// completions are never later than a serialized one's for the same
/// pushes.
#[test]
fn overlapped_never_slower_than_serialized() {
    let mut rng = XorShift64::seed_from_u64(0xB1);
    for case in 0..256 {
        let len = rng.range_usize(39) + 1;
        let pushes: Vec<(u64, u32)> = (0..len)
            .map(|_| (rng.next_below(8), rng.range_i64(1, 60) as u32))
            .collect();
        let mut ser = WriteBuffer::new(64, DrainPolicy::Serialized);
        let mut ovl = WriteBuffer::new(64, DrainPolicy::Overlapped);
        let mut now = 0u64;
        let mut last_ser = 0u64;
        for (gap, lat) in pushes {
            now += gap;
            ser.retire(now);
            ovl.retire(now);
            let s = ser.push(0x100, lat, now).unwrap();
            let o = ovl.push(0x100, lat, now).unwrap();
            assert!(
                o <= s,
                "case {case}: overlapped {o} later than serialized {s}"
            );
            assert!(
                s >= last_ser,
                "case {case}: serialized completions must be monotone"
            );
            last_ser = s;
            assert!(
                o >= now + lat as u64,
                "case {case}: cannot finish before its own latency"
            );
        }
    }
}

/// A release never completes before any previously pushed write, under
/// either policy.
#[test]
fn release_is_ordered_after_all_writes() {
    let mut rng = XorShift64::seed_from_u64(0xB2);
    for case in 0..256 {
        let len = rng.range_usize(19) + 1;
        let lats: Vec<u32> = (0..len).map(|_| rng.range_i64(1, 80) as u32).collect();
        let policy = if rng.next_bool() {
            DrainPolicy::Serialized
        } else {
            DrainPolicy::Overlapped
        };
        let mut wb = WriteBuffer::new(64, policy);
        let mut latest = 0u64;
        for (i, lat) in lats.iter().enumerate() {
            let t = wb.push(i as u64 * 8, *lat, i as u64).unwrap();
            latest = latest.max(t);
        }
        let rel = wb.push_release(0x1000, 1, lats.len() as u64).unwrap();
        assert!(
            rel > latest - 1,
            "case {case}: release {rel} before a pending write {latest}"
        );
    }
}

/// The buffer never holds more than its capacity, and FIFO retirement
/// frees pushes in order.
#[test]
fn capacity_is_respected() {
    let mut rng = XorShift64::seed_from_u64(0xB3);
    for _case in 0..256 {
        let len = rng.range_usize(59) + 1;
        let mut wb = WriteBuffer::new(4, DrainPolicy::Overlapped);
        let mut now = 0u64;
        for _ in 0..len {
            let advance = rng.next_bool();
            let lat = rng.range_i64(1, 60) as u32;
            if advance {
                now += 40;
                wb.retire(now);
            }
            if !wb.is_full() {
                wb.push(0x40, lat, now).unwrap();
            } else {
                assert!(wb.push(0x40, lat, now).is_err());
            }
            assert!(wb.len() <= 4);
        }
    }
}

/// MSHR merging: requests to the same line always return the same
/// completion while outstanding; distinct lines respect capacity. A
/// `HashMap` model checks every answer and every observer after each
/// step, over bounded and unbounded files, the paper's fixed 50-cycle
/// latency and random latencies of 1–200 cycles (so completions arrive
/// out of insertion order), and 8 or 64 distinct lines.
#[test]
fn mshr_merge_and_capacity() {
    let mut rng = XorShift64::seed_from_u64(0xB4);
    for case in 0..512 {
        let len = rng.range_usize(79) + 1;
        let cap = if case % 4 == 3 {
            None
        } else {
            Some(rng.range_usize(4) + 1)
        };
        let fixed_latency = case % 2 == 0;
        let lines = if case % 8 < 4 { 8 } else { 64 };
        let mut m = MshrFile::new(cap);
        let mut outstanding: std::collections::HashMap<u64, u64> = Default::default();
        let mut peak = 0;
        let mut now = 0u64;
        for _ in 0..len {
            let line = rng.next_below(lines) * 16;
            let latency = if fixed_latency {
                50
            } else {
                rng.range_i64_inclusive(1, 200) as u32
            };
            now += 1 + rng.next_below(4) * rng.next_below(30);
            m.retire_completed(now);
            outstanding.retain(|_, &mut t| t > now);
            match m.request(line, now, latency) {
                Some(done) => {
                    if let Some(&prev) = outstanding.get(&line) {
                        assert_eq!(done, prev, "case {case}: merge must reuse completion");
                    } else {
                        assert_eq!(done, now + latency as u64);
                        assert!(cap.is_none_or(|cap| outstanding.len() < cap));
                        outstanding.insert(line, done);
                    }
                }
                None => {
                    let cap = cap.expect("an unbounded file never refuses");
                    assert!(
                        outstanding.len() >= cap,
                        "case {case}: refused below capacity"
                    );
                    assert!(!outstanding.contains_key(&line));
                }
            }
            peak = peak.max(outstanding.len());
            assert_eq!(m.len(), outstanding.len(), "case {case}: len");
            assert_eq!(
                m.is_empty(),
                outstanding.is_empty(),
                "case {case}: is_empty"
            );
            assert_eq!(
                m.is_full(),
                cap.is_some_and(|cap| outstanding.len() >= cap),
                "case {case}: is_full"
            );
            assert_eq!(
                m.next_completion(),
                outstanding.values().min().copied(),
                "case {case}: next_completion"
            );
            assert_eq!(m.peak(), peak, "case {case}: peak");
        }
    }
}
