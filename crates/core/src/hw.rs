//! Host hardware detection shared by bench artifacts and the serving
//! layer's observability surface ( `/healthz`, `/metrics` info gauges).

/// SIMD feature levels detected on this host, in a fixed order.
///
/// The list names the SIMD extensions a benchmark host record cares
/// about, not everything CPUID exposes; an empty list means the host runs
/// the scalar reference only.
pub fn cpu_features() -> Vec<&'static str> {
    let mut feats = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
        if is_x86_feature_detected!("avx512bw") {
            feats.push("avx512bw");
        }
        if is_x86_feature_detected!("avx512vbmi") {
            feats.push("avx512vbmi");
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            feats.push("neon");
        }
    }
    feats
}

/// Available parallelism (1 when the runtime can't tell).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The name of the kernel `rabitq_math::simd` runs in this process
/// (`"scalar"` under `RABITQ_FORCE_KERNEL=scalar`).
pub fn active_kernel() -> &'static str {
    rabitq_math::simd::active_kernel().name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabitq_math::simd;

    #[test]
    fn features_are_consistent_with_kernel_dispatch() {
        let feats = cpu_features();
        for k in simd::supported_kernels() {
            assert!(
                k.name() == "scalar" || feats.contains(&k.name()),
                "{} runs without its feature",
                k.name()
            );
        }
        assert!(cores() >= 1);
        assert_eq!(active_kernel(), simd::active_kernel().name());
    }
}
