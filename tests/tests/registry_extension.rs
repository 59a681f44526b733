//! A third-party prefetcher plugs into the simulator without any change
//! to `bosim-sim` — the acceptance test for the open registry design.

use best_offset::{CacheAccess, Prefetcher};
use bosim::{prefetchers, registry, PrefetcherHandle, PrefetcherSpec, SimConfig, System};
use bosim_trace::suite;
use bosim_types::{LineAddr, PageSize};

/// A toy prefetcher defined entirely in this test crate: always fetches
/// `X + 2` on an eligible access.
#[derive(Debug)]
struct TwoAheadPrefetcher {
    page: PageSize,
    issued: u64,
}

impl Prefetcher for TwoAheadPrefetcher {
    fn on_access(&mut self, access: CacheAccess, out: &mut Vec<LineAddr>) {
        if access.outcome.is_eligible() {
            if let Some(target) = access.line.checked_offset(2, self.page) {
                out.push(target);
                self.issued += 1;
            }
        }
    }

    fn on_fill(&mut self, _line: LineAddr, _prefetched: bool) {}

    fn name(&self) -> &'static str {
        "two-ahead"
    }

    fn page_size(&self) -> PageSize {
        self.page
    }
}

/// The spec — also defined entirely outside `bosim-sim`.
#[derive(Debug, Clone, Copy)]
struct TwoAheadSpec;

impl PrefetcherSpec for TwoAheadSpec {
    fn name(&self) -> String {
        "two-ahead".into()
    }

    fn build(&self, cfg: &SimConfig) -> Box<dyn Prefetcher> {
        Box::new(TwoAheadPrefetcher {
            page: cfg.page,
            issued: 0,
        })
    }
}

#[test]
fn external_prefetcher_registers_and_simulates() {
    registry().register("two-ahead", PrefetcherHandle::new(TwoAheadSpec));

    let handle = registry().lookup("two-ahead").expect("registered above");
    assert_eq!(handle.name(), "two-ahead");

    // Full-system run with the external prefetcher in the L2 slot.
    let spec = suite::benchmark("462").expect("exists");
    let cfg = SimConfig::builder()
        .warmup(10_000)
        .instructions(40_000)
        .prefetcher(handle)
        .build()
        .expect("valid");
    assert_eq!(cfg.label(), "4KB/1-core/two-ahead");
    let res = System::new(&cfg, &spec).run();
    assert!(res.ipc() > 0.01, "IPC {}", res.ipc());
    assert!(
        res.uncore.l2_prefetches_issued > 0,
        "the external prefetcher must actually prefetch: {:?}",
        res.uncore
    );
}

#[test]
fn external_prefetcher_beats_no_prefetch_on_streams() {
    let spec = suite::benchmark("462").expect("exists");
    let quick = |p: PrefetcherHandle| {
        SimConfig::builder()
            .warmup(10_000)
            .instructions(40_000)
            .prefetcher(p)
            .build()
            .expect("valid")
    };
    let none = System::new(&quick(prefetchers::none()), &spec).run();
    let two = System::new(&quick(PrefetcherHandle::new(TwoAheadSpec)), &spec).run();
    assert!(
        two.ipc() > none.ipc(),
        "two-ahead {} vs none {}",
        two.ipc(),
        none.ipc()
    );
}
