//! The sweep executor's core assumption, checked at the kernel layer: a
//! simulation is a closed system, so constructing and running the same
//! SoC on a spawned thread produces exactly the cycles it produces on the
//! main thread. What crosses the thread boundary here is only the
//! parameters in and the plain result struct out, which is precisely
//! what the `bbench` sweep jobs do.

use bkernels::memcpy::{run_memcpy, MemcpyVariant};

#[test]
fn memcpy_cycles_do_not_depend_on_the_host_thread() {
    for variant in MemcpyVariant::ALL {
        let bytes = 16 << 10;
        let on_main = run_memcpy(variant, bytes);
        let on_worker = std::thread::spawn(move || run_memcpy(variant, bytes))
            .join()
            .expect("worker run completes");
        assert_eq!(
            on_main.cycles,
            on_worker.cycles,
            "{} must be cycle-exact across host threads",
            variant.label()
        );
        assert_eq!(on_main.bytes, on_worker.bytes);
        assert!((on_main.gbps - on_worker.gbps).abs() < 1e-12);
    }
}

#[test]
fn concurrent_simulations_do_not_perturb_each_other() {
    let bytes = 8 << 10;
    let reference = run_memcpy(MemcpyVariant::Beethoven, bytes);
    let handles: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || run_memcpy(MemcpyVariant::Beethoven, bytes).cycles))
        .collect();
    for handle in handles {
        let cycles = handle.join().expect("concurrent run completes");
        assert_eq!(cycles, reference.cycles, "no cross-thread interference");
    }
}
