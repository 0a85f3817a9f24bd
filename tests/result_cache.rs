//! Soundness suite for the canonical-circuit result cache
//! (`sliq_exec::cache`): cached `run`/`sample` results must be bit-identical
//! to uncached simulation on every backend, hits must perform zero backend
//! simulation and zero histogram deep-copies, streamed / measured / restored
//! sessions must never be served stale entries, and the warm path must beat
//! the cold path by a wide margin (gated wall-clock test).

use sliqsim::prelude::*;
use std::sync::Arc;

/// A Clifford-only circuit every backend (including CHP) can run.
fn clifford_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 1..n {
        c.cx(q - 1, q);
    }
    c.s(1).cz(0, n - 1).x(2).h(n - 1);
    c
}

/// A Clifford+T circuit for the three general backends.
fn clifford_t_circuit(n: usize) -> Circuit {
    let mut c = sliq_workloads::random::random_clifford_t(n, 7);
    c.t(0);
    c
}

fn session_with(
    circuit: &Circuit,
    backend: BackendKind,
    cache: Option<&Arc<ResultCache>>,
) -> Session {
    let mut session = Session::for_circuit(circuit, SessionConfig::with_backend(backend))
        .expect("supported circuit");
    if let Some(cache) = cache {
        session.attach_result_cache(cache.clone());
    }
    session
}

/// For every backend: an uncached run/sample, a cold cached run/sample (the
/// publisher) and a warm cached run/sample (a pure hit in a fresh session)
/// must agree bit for bit — total probability, per-qubit expectations and
/// the full histogram.
#[test]
fn cached_results_are_bit_identical_to_uncached_on_all_backends() {
    let shots = 2048u64;
    let seed = 17u64;
    for backend in BackendKind::ALL {
        let circuit = if backend == BackendKind::Stabilizer {
            clifford_circuit(8)
        } else {
            clifford_t_circuit(8)
        };
        let config = SessionConfig::with_backend(backend).expectations(true);
        let mut uncached = Session::for_circuit(&circuit, config).expect("supported");
        let reference_run = uncached.run(&circuit).expect("runs");
        let reference_sample = uncached.sample(shots, seed).expect("samples");

        let cache = ResultCache::shared(16 * 1024 * 1024);
        let mut cold = Session::for_circuit(&circuit, config).expect("supported");
        cold.attach_result_cache(cache.clone());
        let cold_run = cold.run(&circuit).expect("runs");
        let cold_sample = cold.sample(shots, seed).expect("samples");

        let mut warm = Session::for_circuit(&circuit, config).expect("supported");
        warm.attach_result_cache(cache.clone());
        let warm_run = warm.run(&circuit).expect("runs");
        let warm_sample = warm.sample(shots, seed).expect("samples");

        for (label, run) in [("cold", &cold_run), ("warm", &warm_run)] {
            assert_eq!(
                run.total_probability.to_bits(),
                reference_run.total_probability.to_bits(),
                "{backend}: {label} total probability must be bit-identical"
            );
            let expect = run.expectations_z.as_ref().expect("collected");
            let reference = reference_run.expectations_z.as_ref().expect("collected");
            assert_eq!(expect.len(), reference.len(), "{backend}");
            for (a, b) in expect.iter().zip(reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "{backend}: {label} ⟨Z⟩");
            }
            assert_eq!(run.gates_applied, reference_run.gates_applied, "{backend}");
            assert_eq!(run.backend, backend, "{backend}");
        }
        assert_eq!(
            cold_sample.histogram, reference_sample.histogram,
            "{backend}"
        );
        assert_eq!(
            warm_sample.histogram, reference_sample.histogram,
            "{backend}"
        );

        // Counter shape: one run miss + one run hit, one sample miss + one
        // sample hit.
        let stats = cache.stats();
        assert_eq!(stats.hits, 2, "{backend}: {stats:?}");
        assert_eq!(stats.misses, 2, "{backend}: {stats:?}");
        assert_eq!(stats.insertions, 2, "{backend}: {stats:?}");
    }
}

/// A warm `run` + `sample` must do **zero** backend simulation: on the
/// bit-sliced backend the kernel's node counter is the witness — the warm
/// session's manager must look exactly like a freshly opened (never-run)
/// session's.
#[test]
fn warm_hits_perform_zero_backend_simulation() {
    let circuit = clifford_t_circuit(10);
    let shots = 4096u64;
    let cache = ResultCache::shared(16 * 1024 * 1024);
    let mut cold = session_with(&circuit, BackendKind::BitSlice, Some(&cache));
    cold.run(&circuit).expect("runs");
    cold.sample(shots, 3).expect("samples");

    // Baseline: a session that never simulates anything.
    let idle = session_with(&circuit, BackendKind::BitSlice, None);
    let idle_nodes = idle.stats().bdd.expect("bitslice").created_nodes;

    let mut warm = session_with(&circuit, BackendKind::BitSlice, Some(&cache));
    let run = warm.run(&circuit).expect("hit");
    let sample = warm.sample(shots, 3).expect("hit");
    assert_eq!(sample.histogram.shots(), shots);
    let warm_nodes = warm.stats().bdd.expect("bitslice").created_nodes;
    assert_eq!(
        warm_nodes, idle_nodes,
        "a warm run+sample must not touch the BDD kernel"
    );
    // The hit is accounted on the cache, and the session's live stats
    // expose the counters through ExecStats.
    let stats = warm.stats().result_cache.expect("cache attached");
    assert_eq!(stats.hits, 2, "{stats:?}");
    // The returned result carries the publisher's gate count.
    assert_eq!(run.gates_applied, circuit.len());
    assert_eq!(warm.gates_applied(), circuit.len());
}

/// A run hit replays its circuit lazily, on the first state query
/// (`Session::materialize`).  The kernel is deterministic, so the replay
/// repeats the publishing run's kernel work exactly — the same nodes
/// created, the same per-cache hits, misses and evictions, the same GC
/// runs, reorder swaps and byte peak — which is why a replay can never
/// trip the byte budget its publisher completed under.  Checked under a
/// fixed order and under auto-reorder.
#[test]
fn cache_hit_replay_repeats_the_publishers_kernel_work() {
    // The instance must allocate past the 65 536-node GC threshold at the
    // fixed order: this one creates about 120 000 nodes and collects once.
    let circuit = sliq_workloads::random::random_clifford_t(20, 1);
    let work = |stats: sliqsim::bdd::ManagerStats| sliqsim::bdd::ManagerStats {
        reorder_micros: 0,
        ..stats
    };
    for reorder in [false, true] {
        let cache = ResultCache::shared(16 * 1024 * 1024);
        let config = SessionConfig::with_backend(BackendKind::BitSlice).auto_reorder(reorder);
        let mut publisher = Session::for_circuit(&circuit, config).expect("supported");
        publisher.attach_result_cache(cache.clone());
        let published = publisher.run(&circuit).expect("runs");
        let published_work = work(published.stats.bdd.expect("bitslice"));
        assert!(published_work.gc_runs > 0, "the circuit must exercise GC");
        assert_eq!(published_work.reorder_swaps > 0, reorder);

        let mut replayer = Session::for_circuit(&circuit, config).expect("supported");
        replayer.attach_result_cache(cache.clone());
        replayer.run(&circuit).expect("hit");
        assert_eq!(cache.stats().hits, 1, "reorder {reorder}");
        // `run` ends with one `total_probability`; asking for it again
        // replays the circuit and then does exactly that.
        assert_eq!(replayer.total_probability(), published.total_probability);
        let replayed_work = work(replayer.stats().bdd.expect("bitslice"));
        assert_eq!(replayed_work, published_work, "reorder {reorder}");
    }
}

/// Cache hits must not deep-copy the histogram: every warm `sample` shares
/// the publisher's allocation behind `Arc`.
#[test]
fn sample_hits_share_the_histogram_allocation() {
    let circuit = clifford_t_circuit(8);
    let cache = ResultCache::shared(16 * 1024 * 1024);
    let mut cold = session_with(&circuit, BackendKind::BitSlice, Some(&cache));
    cold.run(&circuit).expect("runs");
    let published = cold.sample(1000, 5).expect("samples");

    let mut warm_a = session_with(&circuit, BackendKind::BitSlice, Some(&cache));
    warm_a.run(&circuit).expect("hit");
    let hit_a = warm_a.sample(1000, 5).expect("hit");
    let mut warm_b = session_with(&circuit, BackendKind::BitSlice, Some(&cache));
    warm_b.run(&circuit).expect("hit");
    let hit_b = warm_b.sample(1000, 5).expect("hit");

    assert!(
        Arc::ptr_eq(&published.histogram, &hit_a.histogram),
        "a hit must return the published allocation, not a copy"
    );
    assert!(Arc::ptr_eq(&hit_a.histogram, &hit_b.histogram));
    // Plain clones of a SampleResult share it too.
    let cloned = hit_a.clone();
    assert!(Arc::ptr_eq(&cloned.histogram, &hit_a.histogram));
}

/// Circuits written with redundant gate padding share entries: the key is
/// the canonical form, so a differently-written equivalent circuit hits.
#[test]
fn equivalent_circuits_share_cache_entries() {
    let mut plain = Circuit::new(4);
    plain.h(0).cx(0, 1).t(1).cx(1, 2).h(3);
    let mut padded = Circuit::new(4);
    padded
        .h(0)
        .x(2)
        .x(2)
        .cx(0, 1)
        .t(1)
        .tdg(1)
        .t(1)
        .cx(1, 2)
        .h(3)
        .s(3)
        .sdg(3);
    assert_eq!(circuit_fingerprint(&plain), circuit_fingerprint(&padded));

    let cache = ResultCache::shared(16 * 1024 * 1024);
    let mut first = session_with(&plain, BackendKind::BitSlice, Some(&cache));
    let a = first.run(&plain).expect("runs");
    let mut second = session_with(&padded, BackendKind::BitSlice, Some(&cache));
    let b = second.run(&padded).expect("hit");
    assert_eq!(cache.stats().hits, 1, "the padded circuit must hit");
    assert_eq!(a.total_probability.to_bits(), b.total_probability.to_bits());
}

/// Streaming sessions never consult the cache: after any `apply_gate` the
/// state is not `|0…0⟩`, so a later `run` must simulate honestly even when
/// a cached entry exists for that circuit.
#[test]
fn streamed_sessions_never_serve_cached_results() {
    let circuit = clifford_t_circuit(6);
    let cache = ResultCache::shared(16 * 1024 * 1024);
    let mut publisher = session_with(&circuit, BackendKind::BitSlice, Some(&cache));
    publisher.run(&circuit).expect("publishes");
    let hits_before = cache.stats().hits;

    // Honest reference: X(0) then the circuit, no cache anywhere.
    let mut reference = session_with(&circuit, BackendKind::BitSlice, None);
    reference.apply_gate(&Gate::X(0)).expect("applies");
    reference.run(&circuit).expect("runs");

    let mut streamed = session_with(&circuit, BackendKind::BitSlice, Some(&cache));
    streamed.apply_gate(&Gate::X(0)).expect("applies");
    let run = streamed.run(&circuit).expect("must simulate honestly");
    assert_eq!(cache.stats().hits, hits_before, "no lookup may have hit");
    for i in 0..(1u64 << 6) {
        let bits: Vec<bool> = (0..6).map(|q| i >> q & 1 == 1).collect();
        let a = streamed.probability_of_basis_state(&bits);
        let b = reference.probability_of_basis_state(&bits);
        assert_eq!(a.to_bits(), b.to_bits(), "outcome {i}");
    }
    // And the streamed session's sample reflects its true state.
    let streamed_sample = streamed.sample(1500, 9).expect("samples");
    let reference_sample = reference.sample(1500, 9).expect("samples");
    assert_eq!(streamed_sample.histogram, reference_sample.histogram);
    let _ = run;
}

/// Mutating a cached-run session (measurement collapse) must cut off sample
/// lookups: the post-measurement sample reflects the collapsed state, never
/// the memoised pre-measurement histogram.
#[test]
fn measurement_invalidates_sample_lookups() {
    let circuit = clifford_circuit(6);
    let cache = ResultCache::shared(16 * 1024 * 1024);
    let mut session = session_with(&circuit, BackendKind::BitSlice, Some(&cache));
    session.run(&circuit).expect("runs");
    let before = session.sample(2000, 21).expect("publishes");

    // Honest reference for the collapsed state.
    let mut reference = session_with(&circuit, BackendKind::BitSlice, None);
    reference.run(&circuit).expect("runs");
    let expected_outcome = reference.measure_with(0, 0.25);

    let outcome = session.measure_with(0, 0.25);
    assert_eq!(outcome, expected_outcome);
    let after = session.sample(2000, 21).expect("samples");
    let reference_after = reference.sample(2000, 21).expect("samples");
    assert_eq!(after.histogram, reference_after.histogram);
    assert_ne!(
        after.histogram, before.histogram,
        "the collapsed state must not be served the pre-measurement entry"
    );
}

/// `restore` resurrects exactly the cache eligibility captured with the
/// snapshot: a session restored to a post-`run` checkpoint may hit sample
/// entries again (the state provably matches), while a session restored
/// after streaming stays ineligible — no stale result is ever served.
#[test]
fn restore_tracks_cache_eligibility_with_the_state() {
    let circuit = clifford_t_circuit(8);
    let cache = ResultCache::shared(16 * 1024 * 1024);
    let mut session = session_with(&circuit, BackendKind::BitSlice, Some(&cache));
    session.run(&circuit).expect("runs");
    let checkpoint = session.snapshot();
    let reference = session.sample(1000, 4).expect("publishes");

    // Collapse, then roll back: the state is again exactly "run(C)", so the
    // sample lookup is sound — and must hit the shared allocation.
    session.measure_with(0, 0.5);
    session.restore(&checkpoint).expect("restores");
    let hits_before = cache.stats().hits;
    let replayed = session.sample(1000, 4).expect("hit");
    assert_eq!(cache.stats().hits, hits_before + 1);
    assert!(Arc::ptr_eq(&reference.histogram, &replayed.histogram));

    // A checkpoint taken mid-stream stays ineligible after restore.
    let mut streamed = session_with(&circuit, BackendKind::BitSlice, Some(&cache));
    streamed.apply_gate(&Gate::H(0)).expect("applies");
    let mid_stream = streamed.snapshot();
    streamed.apply_gate(&Gate::X(1)).expect("applies");
    streamed.restore(&mid_stream).expect("restores");
    let hits = cache.stats().hits;
    let misses = cache.stats().misses;
    streamed.run(&circuit).expect("must simulate honestly");
    assert_eq!(cache.stats().hits, hits, "no lookup");
    assert_eq!(cache.stats().misses, misses, "not even a counted miss");
    session.discard(checkpoint).expect("own snapshot");
    streamed.discard(mid_stream).expect("own snapshot");
}

/// A run hit leaves the backend unmaterialised; the first state query must
/// transparently replay the circuit and answer exactly like a cold session.
#[test]
fn lazy_materialisation_answers_state_queries_exactly() {
    let circuit = clifford_t_circuit(7);
    let cache = ResultCache::shared(16 * 1024 * 1024);
    let mut cold = session_with(&circuit, BackendKind::BitSlice, Some(&cache));
    cold.run(&circuit).expect("publishes");

    let mut warm = session_with(&circuit, BackendKind::BitSlice, Some(&cache));
    warm.run(&circuit).expect("hit");
    for q in 0..7 {
        assert_eq!(
            warm.probability_of_one(q).to_bits(),
            cold.probability_of_one(q).to_bits(),
            "qubit {q}"
        );
    }
    // The replayed state is the publisher's, amplitude for amplitude.
    let exact = |session: &mut Session| {
        let sim = session.bitslice_mut().expect("bit-sliced backend");
        sim.state_mut().to_algebraic_vector()
    };
    let (replayed, published) = (exact(&mut warm), exact(&mut cold));
    assert_eq!(replayed.len(), published.len());
    for (i, (a, b)) in replayed.iter().zip(&published).enumerate() {
        assert!(
            a.value_eq(b),
            "basis index {i}: replayed {a} vs published {b}"
        );
    }
    // Continuing to stream after a hit works on the materialised state.
    let mut warm2 = session_with(&circuit, BackendKind::BitSlice, Some(&cache));
    warm2.run(&circuit).expect("hit");
    warm2.apply_gate(&Gate::X(0)).expect("applies");
    let mut cold2 = session_with(&circuit, BackendKind::BitSlice, None);
    cold2.run(&circuit).expect("runs");
    cold2.apply_gate(&Gate::X(0)).expect("applies");
    let a = warm2.sample(1200, 13).expect("samples");
    let b = cold2.sample(1200, 13).expect("samples");
    assert_eq!(a.histogram, b.histogram);
}

/// Sessions with different result-affecting configuration must not share
/// entries: a smaller node budget or a different expectation flag is a
/// different key.
#[test]
fn result_affecting_config_partitions_the_key_space() {
    let circuit = clifford_t_circuit(8);
    let cache = ResultCache::shared(16 * 1024 * 1024);
    let base = SessionConfig::with_backend(BackendKind::BitSlice);

    let mut publisher = Session::for_circuit(&circuit, base).expect("supported");
    publisher.attach_result_cache(cache.clone());
    publisher.run(&circuit).expect("publishes");

    // Different max_nodes ⇒ miss (a hit would leave this session unable to
    // replay the circuit under its own budget).
    let mut budgeted = Session::for_circuit(&circuit, base.max_nodes(1_000_000)).expect("ok");
    budgeted.attach_result_cache(cache.clone());
    let hits = cache.stats().hits;
    budgeted.run(&circuit).expect("simulates");
    assert_eq!(cache.stats().hits, hits, "different budget must not hit");

    // Different expectations flag ⇒ miss (the payload differs).
    let mut expecting = Session::for_circuit(&circuit, base.expectations(true)).expect("ok");
    expecting.attach_result_cache(cache.clone());
    let hits = cache.stats().hits;
    let run = expecting.run(&circuit).expect("simulates");
    assert_eq!(cache.stats().hits, hits, "different payload must not hit");
    assert!(run.expectations_z.is_some());

    // Same config again ⇒ hit.
    let mut same = Session::for_circuit(&circuit, base).expect("ok");
    same.attach_result_cache(cache.clone());
    let hits = cache.stats().hits;
    same.run(&circuit).expect("hit");
    assert_eq!(cache.stats().hits, hits + 1);
}

/// A population larger than the byte budget keeps evicting and never
/// exceeds the budget, while the hottest entry keeps hitting.
#[test]
fn attached_cache_holds_its_byte_budget_under_pressure() {
    // Small budget: a handful of sample histograms at most.
    let cache = ResultCache::shared(24 * 1024);
    let hot = clifford_circuit(10);
    for round in 0..6u64 {
        // The hot circuit first — it stays recent through every round.
        let mut session = session_with(&hot, BackendKind::BitSlice, Some(&cache));
        session.run(&hot).expect("runs");
        session.sample(500, 1).expect("samples");
        assert!(cache.stats().bytes <= cache.capacity_bytes());
        // Then a cold circuit variant that pushes something out.
        let mut cold_circuit = Circuit::new(10);
        cold_circuit.h(0);
        for q in 0..10 {
            if round >> (q % 3) & 1 == 1 {
                cold_circuit.x(q);
            }
            cold_circuit.h(q);
        }
        cold_circuit.t(round as usize % 10);
        let mut session = session_with(&cold_circuit, BackendKind::BitSlice, Some(&cache));
        session.run(&cold_circuit).expect("runs");
        session.sample(500, 1).expect("samples");
        assert!(cache.stats().bytes <= cache.capacity_bytes());
    }
    let stats = cache.stats();
    assert!(stats.evictions > 0, "pressure must evict: {stats:?}");
    assert!(
        stats.hits > 0,
        "the hot circuit must keep hitting: {stats:?}"
    );
    assert!(stats.bytes <= stats.capacity_bytes);
}

/// Gated wall-clock acceptance (`SLIQ_PERF_TEST=1`, release profile): a
/// warm-cache replay of `random_clifford_t(16)` + 10k-shot sampling must be
/// at least 50× faster than the cold path.
#[test]
fn perf_warm_cache_replay_is_50x_cold() {
    if std::env::var_os("SLIQ_PERF_TEST").is_none() {
        eprintln!("skipped (set SLIQ_PERF_TEST=1 to run the wall-clock acceptance test)");
        return;
    }
    let circuit = sliq_workloads::random::random_clifford_t(16, 1);
    let shots = 10_000u64;
    let cache = ResultCache::shared(64 * 1024 * 1024);

    let cold_start = std::time::Instant::now();
    let mut cold = session_with(&circuit, BackendKind::BitSlice, Some(&cache));
    cold.run(&circuit).expect("runs");
    let cold_sample = cold.sample(shots, 2021).expect("samples");
    let cold_secs = cold_start.elapsed().as_secs_f64();

    // Median-of-3 warm replays, each the full serving shape (fresh session,
    // run, sample).
    let mut warm_times = Vec::new();
    let mut warm_histogram = None;
    for _ in 0..3 {
        let warm_start = std::time::Instant::now();
        let mut warm = session_with(&circuit, BackendKind::BitSlice, Some(&cache));
        warm.run(&circuit).expect("hit");
        let sample = warm.sample(shots, 2021).expect("hit");
        warm_times.push(warm_start.elapsed().as_secs_f64());
        warm_histogram = Some(sample.histogram);
    }
    warm_times.sort_by(|a, b| a.total_cmp(b));
    let warm_secs = warm_times[1].max(1e-9);
    assert_eq!(warm_histogram.unwrap(), cold_sample.histogram);
    let speedup = cold_secs / warm_secs;
    assert!(
        speedup >= 50.0,
        "warm replay must be >= 50x cold: cold {cold_secs:.4}s / warm {warm_secs:.6}s = {speedup:.1}x"
    );
}
